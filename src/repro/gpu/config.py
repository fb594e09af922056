"""Top-level GPU configuration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.memory.address import AddressMapping
from repro.memory.interconnect import InterconnectConfig
from repro.memory.partition import PartitionConfig
from repro.simt.coreconfig import CoreConfig
from repro.utils.errors import ConfigurationError


def _replace_path(obj: Any, path: str, value: Any, context: str) -> Any:
    """Rebuild ``obj`` with the dotted ``path`` replaced by ``value``.

    Every dataclass along the path is rebuilt through
    :func:`dataclasses.replace`, so each level's ``__post_init__``
    validation re-runs and an invalid derived value surfaces as a
    :class:`ConfigurationError` at derivation time rather than as a crash
    mid-simulation.
    """
    head, _, rest = path.partition(".")
    if not dataclasses.is_dataclass(obj) or obj is None:
        raise ConfigurationError(
            f"cannot derive {context!r}: {type(obj).__name__!r} has no "
            f"replaceable field {head!r}"
        )
    if head not in {f.name for f in dataclasses.fields(obj)}:
        raise ConfigurationError(
            f"cannot derive {context!r}: {type(obj).__name__} has no "
            f"field {head!r}"
        )
    if rest:
        child = getattr(obj, head)
        if child is None:
            raise ConfigurationError(
                f"cannot derive {context!r}: field {head!r} is None on "
                f"this configuration"
            )
        value = _replace_path(child, rest, value, context)
    return dataclasses.replace(obj, **{head: value})


@dataclass(frozen=True)
class GPUConfig:
    """Configuration of a complete simulated GPU.

    Attributes
    ----------
    name:
        Short identifier (e.g. ``"gf106"``) used in reports.
    description:
        Human-readable description of what the configuration models.
    num_sms:
        Number of streaming multiprocessors.
    core:
        Per-SM configuration (schedulers, pipelines, L1).
    core_backend:
        Name of the registered simulation-core backend that executes
        this configuration's SMs (see :mod:`repro.simt.backend`).  This
        is the one configuration-level choice of core;
        ``Session(core=...)``, ``ParallelExecutor(core=...)`` and the
        CLI's ``--core`` override it per run.
        Built-ins: ``"reference"`` (trusted straight-line loop),
        ``"fast"`` (event-skipping ready sets behind a cached SM
        quiescence gate, run by the GPU's gated drive loop; the
        default), ``"vector"`` (an alias of ``"fast"``), and
        ``"estimator"`` (the fast core with quantized memory timing —
        approximate cycle counts, keyed separately in the result
        store).  Validated against the registry when a
        :class:`~repro.gpu.gpu.GPU` is built.
    interconnect:
        Crossbar parameters shared by the request and reply networks.
    mapping:
        Address interleaving across memory partitions and DRAM banks.
    partition:
        Per-partition configuration (ROP delay, L2 slice, DRAM channel).
    global_memory_bytes:
        Size of the functional global memory backing store.
    max_cycles:
        Safety limit on simulated cycles per kernel launch.
    """

    name: str
    description: str = ""
    num_sms: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    mapping: AddressMapping = field(default_factory=AddressMapping)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    global_memory_bytes: int = 64 * 1024 * 1024
    max_cycles: int = 50_000_000
    core_backend: str = "fast"

    def __post_init__(self) -> None:
        if not isinstance(self.core_backend, str) or not self.core_backend:
            raise ConfigurationError(
                "core_backend must be a non-empty backend name (see "
                "repro.simt.backend.available_core_backends())"
            )
        if self.num_sms < 1:
            raise ConfigurationError("num_sms must be >= 1")
        if self.global_memory_bytes < 1024:
            raise ConfigurationError("global_memory_bytes unreasonably small")
        if self.max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")

    def replace(self, **overrides) -> "GPUConfig":
        """Return a copy of this configuration with fields overridden."""
        return dataclasses.replace(self, **overrides)

    def derive(self, overrides: Mapping[str, Any]) -> "GPUConfig":
        """Return a copy with nested fields replaced by dotted path.

        ``overrides`` maps dotted attribute paths to new values::

            config.derive({"partition.dram.service_pad": 120,
                           "core.max_warps": 24})

        This is the frozen-dataclass-safe derivation primitive used by
        :mod:`repro.sensitivity` transforms: every dataclass along each
        path is rebuilt (never mutated), the whole sub-configuration
        validation chain re-runs, and unknown paths or paths through
        absent components (e.g. ``partition.l2`` on an L2-less
        configuration) raise :class:`ConfigurationError`.
        """
        config: GPUConfig = self
        for path, value in overrides.items():
            config = _replace_path(config, path, value, context=path)
        return config

    def total_l2_bytes(self) -> int:
        """Aggregate L2 capacity across all partitions (0 when disabled)."""
        if not self.partition.l2_enabled or self.partition.l2 is None:
            return 0
        return self.partition.l2.geometry.size_bytes * self.mapping.num_partitions

    def l1_bytes(self) -> Optional[int]:
        """L1 data cache capacity per SM (``None`` when disabled)."""
        if not self.core.l1.enabled:
            return None
        return self.core.l1.geometry.size_bytes
