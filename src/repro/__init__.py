"""repro — reproduction of "On Latency in GPU Throughput Microarchitectures".

The package provides a from-scratch, cycle-level GPU timing simulator (SIMT
cores with a complete global/local memory pipeline) together with the
paper's two analyses:

* the *static* latency analysis — pointer-chase microbenchmarking of four
  GPU-generation configurations, reproducing Table I, and
* the *dynamic* latency analysis — per-stage latency breakdowns and the
  exposed/hidden latency classification for real workloads, reproducing
  Figures 1 and 2.

Typical usage goes through the experiment layer — describe *what* to run
as a declarative :class:`~repro.experiments.Experiment` and hand it to a
:class:`~repro.experiments.Session`, which owns GPU construction, the
tracker lifecycle, result caching, and JSON persistence::

    from repro import Experiment, Session

    session = Session()
    record = session.run(Experiment.dynamic("gf100", "bfs",
                                            num_nodes=2048, avg_degree=8))
    print(record.breakdown.format_table())          # Figure 1
    print(record.exposure.format_table())           # Figure 2
    print(session.run(Experiment.static()).table.format_table())  # Table I

Ablation grids expand declaratively and round-trip through JSON::

    runs = session.run_all(Experiment.grid(
        kind="dynamic", configs=["gf100", "gk104"], workloads=["bfs"],
        params={"num_nodes": [1024, 2048]}))
    runs.save("results.json")

The latency-sensitivity subsystem (:mod:`repro.sensitivity`) runs the
paper's signature perturbation experiment as one declarative sweep: a
:class:`SensitivityStudy` applies composable, JSON round-trippable
configuration transforms (``scale_dram_latency``,
``scale_l2_hit_latency``, ``add_interconnect_hops``,
``scale_mshr_count``, ``scale_max_warps``) across scale factors and
fits tolerance metrics — the cycles-vs-injected-latency slope, the
half-tolerance point, and the exposed-fraction curve::

    result = SensitivityStudy(
        config="gf106", workload="bfs",
        transforms=("scale_dram_latency",), scales=(1, 2, 4, 8),
        params={"num_nodes": 2048},
    ).run(jobs=4)
    print(result.curve("scale_dram_latency").metrics.half_tolerance_scale)

The simulator substrate (``GPU``, ``KernelBuilder``, the workload classes)
remains available for custom kernels; new configurations, workloads, and
transforms plug in through :func:`register_config`,
:func:`register_workload`, and :func:`register_transform`.
"""

from repro.core.breakdown import breakdown_from_tracker, compute_breakdown
from repro.core.exposure import compute_exposure
from repro.core.static import reproduce_table_i
from repro.core.tracker import LatencyTracker
from repro.experiments import (
    Experiment,
    ParallelExecutor,
    RunRecord,
    RunSet,
    Session,
    register_config,
    register_workload,
    unregister_config,
    unregister_workload,
)
from repro.gpu import (
    GPU,
    GPUConfig,
    KernelResult,
    available_configs,
    fermi_gf100,
    fermi_gf106,
    get_config,
    kepler_gk104,
    maxwell_gm107,
    tesla_gt200,
)
from repro.isa import KernelBuilder, Program
from repro.sensitivity import (
    SensitivityResult,
    SensitivityStudy,
    Transform,
    TransformChain,
    available_transforms,
    register_transform,
)
from repro.store import (
    ResultStore,
    StoreKey,
    available_stores,
    open_store,
    register_store,
    unregister_store,
)
from repro.workloads import (
    BFSWorkload,
    MatMulWorkload,
    PointerChaseWorkload,
    ReductionWorkload,
    SpMVWorkload,
    StencilWorkload,
    VecAddWorkload,
    Workload,
    available_workloads,
    create_workload,
)

__version__ = "1.1.0"

__all__ = [
    "BFSWorkload",
    "Experiment",
    "GPU",
    "GPUConfig",
    "KernelBuilder",
    "KernelResult",
    "LatencyTracker",
    "MatMulWorkload",
    "ParallelExecutor",
    "PointerChaseWorkload",
    "Program",
    "ReductionWorkload",
    "ResultStore",
    "RunRecord",
    "RunSet",
    "SensitivityResult",
    "SensitivityStudy",
    "Session",
    "StoreKey",
    "SpMVWorkload",
    "StencilWorkload",
    "Transform",
    "TransformChain",
    "VecAddWorkload",
    "Workload",
    "available_configs",
    "available_stores",
    "available_transforms",
    "available_workloads",
    "breakdown_from_tracker",
    "compute_breakdown",
    "compute_exposure",
    "create_workload",
    "fermi_gf100",
    "fermi_gf106",
    "get_config",
    "kepler_gk104",
    "maxwell_gm107",
    "open_store",
    "register_config",
    "register_store",
    "register_transform",
    "register_workload",
    "reproduce_table_i",
    "tesla_gt200",
    "unregister_config",
    "unregister_store",
    "unregister_workload",
    "__version__",
]
