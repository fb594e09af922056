"""SIMT core model: warps, schedulers, scoreboard, LD/ST unit, and the SM."""

from repro.simt.backend import (
    CORE_BACKENDS,
    CoreBackend,
    available_core_backends,
    core_backend_is_exact,
    get_core_backend,
    register_core_backend,
)
from repro.simt.core import (
    CTAContext,
    FastCore,
    KernelLaunch,
    ReferenceCore,
    StreamingMultiprocessor,
)
from repro.simt.coreconfig import CoreConfig, L1Config
from repro.simt.ldst import LoadStoreUnit, LoadToken
from repro.simt.scheduler import (
    GreedyThenOldestScheduler,
    LooseRoundRobinScheduler,
    WarpScheduler,
    available_warp_schedulers,
    create_warp_scheduler,
)
from repro.simt.scoreboard import Scoreboard
from repro.simt.simt_stack import SIMTStack, StackEntry
from repro.simt.vector import VectorEstimatorCore
from repro.simt.warp import Warp

__all__ = [
    "CORE_BACKENDS",
    "CTAContext",
    "CoreBackend",
    "CoreConfig",
    "FastCore",
    "GreedyThenOldestScheduler",
    "KernelLaunch",
    "L1Config",
    "LoadStoreUnit",
    "LoadToken",
    "LooseRoundRobinScheduler",
    "ReferenceCore",
    "SIMTStack",
    "Scoreboard",
    "StackEntry",
    "StreamingMultiprocessor",
    "VectorEstimatorCore",
    "Warp",
    "WarpScheduler",
    "available_core_backends",
    "available_warp_schedulers",
    "core_backend_is_exact",
    "create_warp_scheduler",
    "get_core_backend",
    "register_core_backend",
]
