"""Synthetic microbenchmarks: controlled latency-tolerance kernels.

The paper's latency-tolerance argument rests on kernels whose
instruction-level parallelism, memory-level parallelism, and occupancy
are dialed *independently* — something the bundled hand-written
workloads (BFS, SpMV, stencil, ...) cannot do.  A
:class:`MicrobenchSpec` is the declarative form of one such controlled
kernel: a small set of orthogonal axes, plain data that round-trips
through JSON, compiled to an ISA program with the
:class:`~repro.isa.builder.KernelBuilder`.

The generated kernel is a *multi-chain strided pointer chase with a
tunable compute tail*.  Global memory holds a ring of ``footprint //
stride`` slots; every word of a slot stores the byte offset of the next
slot, so a load both returns verifiable data and serialises the chain's
next access behind it.  Per warp the kernel runs ``ilp`` independent
chains over a fixed budget of ``iters`` serial chase steps:

* ``ilp`` — independent dependency chains per warp.  The serial budget
  is *split* across chains (each runs ``ceil(iters / ilp)`` dependent
  steps), so raising ILP shortens the exposed-latency critical path at
  constant total work — the knob the paper's tolerance curves turn.
* ``mlp`` — outstanding loads per chain and iteration.  Chains issue
  ``mlp`` back-to-back independent loads into the current slot before
  consuming any of them, multiplying the warp's in-flight requests
  (and its MSHR/bandwidth pressure) without lengthening the chain.
* ``arith_per_load`` — FFMA operations executed per loaded value,
  the compute:memory ratio.  Consumption is interleaved round-robin
  across the chains' accumulators, so with ``ilp > 1`` consecutive
  arithmetic instructions are independent.
* ``stride`` / ``footprint`` — bytes between chain slots and the total
  working set: together they dial spatial locality (lanes spread over
  ``min(32 * mlp * 4, stride)`` bytes per access) against cache
  capacity.
* ``divergence`` — fraction of warps that take a lane-splitting branch
  each iteration (lanes 0-15 do one extra FADD under the SIMT stack).
* ``ctas`` / ``warps_per_cta`` — launch geometry, i.e. occupancy.
  ``block_dim`` is ``32 * warps_per_cta``.
* ``iters`` — the total serial chase budget per warp (shared by the
  ``ilp`` chains).

Specs validate eagerly and raise
:class:`~repro.utils.errors.ConfigurationError` with the offending axis
named, so malformed CLI input fails cleanly instead of crashing
mid-simulation.  :class:`MicrobenchWorkload` exposes every axis as a
constructor parameter, which makes generated kernels ordinary registered
workloads: they flow unchanged through
:class:`~repro.experiments.Session`, :meth:`~repro.experiments
.Experiment.grid`, :class:`~repro.experiments.ParallelExecutor` workers
(axes travel as experiment params), and
:class:`~repro.sensitivity.SensitivityStudy` /
:class:`~repro.sensitivity.LatencyToleranceAtlas` sweeps.
:func:`register_microbench` registers a named spec variant in the
workload registry.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.gpu.gpu import GPU
from repro.isa.builder import KernelBuilder
from repro.isa.program import Program
from repro.memory.globalmem import WORD_SIZE
from repro.utils.codec import Codec
from repro.utils.errors import ConfigurationError
from repro.workloads.base import LaunchSpec, Workload

#: SIMT width the generated kernels assume (all bundled configurations
#: use 32-lane warps; ``prepare`` re-checks against the live GPU).
WARP_SIZE = 32

#: Lanes taking the divergent branch in a branch-split warp (a half-warp
#: split, the canonical worst case for the SIMT reconvergence stack).
DIVERGENT_LANES = WARP_SIZE // 2

#: Validation bounds per axis, kept deliberately generous but finite so
#: hypothesis-random specs and CLI typos cannot request absurd programs.
AXIS_BOUNDS: Dict[str, tuple] = {
    "ilp": (1, 32),
    "mlp": (1, 32),
    "arith_per_load": (0, 64),
    "stride": (WORD_SIZE, 1 << 20),
    "footprint": (WORD_SIZE, 16 << 20),
    "divergence": (0.0, 1.0),
    "ctas": (1, 1024),
    "warps_per_cta": (1, 32),
    "iters": (1, 8192),
}


def _check_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and float(value).is_integer():
            value = int(value)
        else:
            raise ConfigurationError(
                f"microbench axis {name!r} expects an integer, got {value!r}"
            )
    low, high = AXIS_BOUNDS[name]
    if not low <= value <= high:
        raise ConfigurationError(
            f"microbench axis {name!r} must be in [{low}, {high}], "
            f"got {value!r}"
        )
    return value


@dataclass(frozen=True)
class MicrobenchSpec(Codec):
    """Declarative, JSON round-trippable synthetic-kernel specification.

    See the module docstring for the meaning of each axis.  Instances
    validate on construction and are hashable plain data:
    ``MicrobenchSpec.from_dict(spec.to_dict()) == spec`` holds exactly,
    and :meth:`spec_hash` is a stable content hash of the canonical JSON
    form.
    """

    ilp: int = 2
    mlp: int = 2
    arith_per_load: int = 2
    stride: int = 128
    footprint: int = 16 * 1024
    divergence: float = 0.0
    ctas: int = 4
    warps_per_cta: int = 2
    iters: int = 32

    codec_error = ConfigurationError

    def __post_init__(self) -> None:
        for name in ("ilp", "mlp", "arith_per_load", "stride", "footprint",
                     "ctas", "warps_per_cta", "iters"):
            object.__setattr__(self, name, _check_int(name,
                                                      getattr(self, name)))
        divergence = self.divergence
        if isinstance(divergence, bool) or not isinstance(divergence,
                                                          (int, float)):
            raise ConfigurationError(
                f"microbench axis 'divergence' expects a number in [0, 1], "
                f"got {divergence!r}"
            )
        divergence = float(divergence)
        if not math.isfinite(divergence) or not 0.0 <= divergence <= 1.0:
            raise ConfigurationError(
                f"microbench axis 'divergence' must be in [0.0, 1.0], "
                f"got {divergence!r}"
            )
        object.__setattr__(self, "divergence", divergence)
        if self.stride % WORD_SIZE:
            raise ConfigurationError(
                f"microbench axis 'stride' must be a multiple of "
                f"{WORD_SIZE} bytes, got {self.stride}"
            )
        if self.footprint % self.stride:
            raise ConfigurationError(
                f"microbench axis 'footprint' ({self.footprint}) must be a "
                f"multiple of 'stride' ({self.stride}) so the chase ring "
                f"has whole slots"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Serial chase steps per chain: the ``iters`` budget split
        across the ``ilp`` independent chains (rounded up)."""
        return -(-self.iters // self.ilp)

    @property
    def block_dim(self) -> int:
        """Threads per CTA (``32 * warps_per_cta``)."""
        return WARP_SIZE * self.warps_per_cta

    @property
    def total_warps(self) -> int:
        """Warps in the whole grid."""
        return self.ctas * self.warps_per_cta

    @property
    def total_threads(self) -> int:
        """Threads in the whole grid."""
        return self.ctas * self.block_dim

    @property
    def diverged_warps(self) -> int:
        """Warps taking the lane-splitting branch (``round`` of the
        divergence fraction over the grid's warps)."""
        return int(round(self.divergence * self.total_warps))

    @property
    def num_slots(self) -> int:
        """Slots in the chase ring."""
        return self.footprint // self.stride

    @property
    def loads_per_warp(self) -> int:
        """Global loads one warp issues over the whole kernel."""
        return self.depth * self.ilp * self.mlp

    def spec_hash(self) -> str:
        """Short, stable content hash of the canonical spec."""
        digest = hashlib.sha256(self.to_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    def default_name(self) -> str:
        """Registry name derived from the content hash."""
        return f"microbench_{self.spec_hash()[:8]}"

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"synthetic microbench: ilp={self.ilp} mlp={self.mlp} "
                f"arith/load={self.arith_per_load} stride={self.stride}B "
                f"footprint={self.footprint}B divergence={self.divergence:g} "
                f"grid={self.ctas}x{self.block_dim} "
                f"({self.depth} serial steps/chain)")


def build_microbench_kernel(spec: MicrobenchSpec,
                            name: str = "microbench") -> Program:
    """Compile a :class:`MicrobenchSpec` to an ISA program.

    The program layout per loop iteration is: address computation for
    every (chain, slot-word) pair, then all ``ilp * mlp`` loads
    back-to-back (the chain-stepping load of each chain first), then the
    ``arith_per_load * mlp * ilp`` FFMA consumption interleaved
    round-robin across chains, then the optional divergent half-warp
    FADD.  All axes are compile-time constants; the only launch
    parameters are the ring and output base addresses.
    """
    builder = KernelBuilder(name)
    base = builder.param("base")
    out = builder.param("out")

    # Per-lane byte offsets within a slot: lane j's word for extra load
    # slot index k is ((laneid * mlp + k) * 4) % stride, folded together
    # with the ring base so the hot loop pays one IADD per address.
    lane = builder.reg()
    builder.mov(lane, builder.laneid)
    lane_base = builder.reg(spec.mlp)
    lane_base = [lane_base] if spec.mlp == 1 else lane_base
    scratch = builder.reg()
    for k in range(spec.mlp):
        builder.imad(scratch, lane, spec.mlp * WORD_SIZE, k * WORD_SIZE)
        builder.irem(scratch, scratch, spec.stride)
        builder.iadd(lane_base[k], scratch, base)

    # Global warp id (uniform across the warp's lanes) selects the
    # chain start slots and the divergent-warp subset.
    wid = builder.reg()
    builder.mov(wid, builder.gtid)
    builder.shr(wid, wid, 5)

    offs = builder.reg(spec.ilp)
    offs = [offs] if spec.ilp == 1 else offs
    for c in range(spec.ilp):
        builder.imad(scratch, wid, spec.ilp * spec.stride, c * spec.stride)
        builder.irem(offs[c], scratch, spec.footprint)

    accs = builder.reg(spec.ilp)
    accs = [accs] if spec.ilp == 1 else accs
    for acc in accs:
        builder.mov(acc, 0.0)

    vals = [[offs[c] if k == 0 else builder.reg()
             for k in range(spec.mlp)] for c in range(spec.ilp)]
    addrs = [[builder.reg() for _ in range(spec.mlp)]
             for _ in range(spec.ilp)]

    diverged = spec.diverged_warps
    if diverged:
        warp_split = builder.pred()
        builder.setp(warp_split, "lt", wid, diverged)
        lane_split = builder.pred()

    counter = builder.reg()
    with builder.for_range(counter, 0, spec.depth):
        for c in range(spec.ilp):
            for k in range(spec.mlp):
                builder.iadd(addrs[c][k], offs[c], lane_base[k])
        # The chain-stepping loads (k == 0 overwrites the offset
        # register with the slot's stored next-offset) go first so every
        # chain's critical path starts as early as possible; the extra
        # MLP loads pile on behind them.
        for c in range(spec.ilp):
            builder.ld_global(vals[c][0], addrs[c][0])
        for k in range(1, spec.mlp):
            for c in range(spec.ilp):
                builder.ld_global(vals[c][k], addrs[c][k])
        # Consumption round-robins across chains: consecutive FFMAs hit
        # different accumulators when ilp > 1, so only the per-chain
        # chains serialise on the ALU pipeline.
        for _ in range(spec.arith_per_load):
            for k in range(spec.mlp):
                for c in range(spec.ilp):
                    builder.ffma(accs[c], vals[c][k], 1.0, accs[c])
        if diverged:
            with builder.if_(warp_split):
                builder.setp(lane_split, "lt", builder.laneid,
                             DIVERGENT_LANES)
                with builder.if_(lane_split):
                    builder.fadd(accs[0], accs[0], 1.0)

    for c in range(1, spec.ilp):
        builder.fadd(accs[0], accs[0], accs[c])
    out_addr = builder.reg()
    builder.imad(out_addr, builder.gtid, WORD_SIZE, out)
    builder.st_global(out_addr, accs[0])
    return builder.build()


def microbench_ring(spec: MicrobenchSpec) -> np.ndarray:
    """The chase ring's backing words: every word of a slot stores the
    byte offset of the next slot, so any in-slot load returns the
    chain's next position."""
    words = np.arange(spec.footprint // WORD_SIZE, dtype=np.int64) * WORD_SIZE
    slot_base = words - words % spec.stride
    return ((slot_base + spec.stride) % spec.footprint).astype(np.float64)


def microbench_expected(spec: MicrobenchSpec) -> np.ndarray:
    """Per-thread expected kernel outputs (the NumPy reference model)."""
    warp_ids = np.arange(spec.total_threads, dtype=np.int64) // WARP_SIZE
    lane_ids = np.arange(spec.total_threads, dtype=np.int64) % WARP_SIZE
    steps = np.arange(1, spec.depth + 1, dtype=np.int64)
    acc = np.zeros(spec.total_threads, dtype=np.float64)
    for c in range(spec.ilp):
        start = (warp_ids * spec.ilp + c) * spec.stride % spec.footprint
        visited = (start[:, None] + steps[None, :] * spec.stride) \
            % spec.footprint
        acc += spec.arith_per_load * spec.mlp * visited.sum(axis=1)
    diverged = (warp_ids < spec.diverged_warps) & (lane_ids < DIVERGENT_LANES)
    acc += np.where(diverged, float(spec.depth), 0.0)
    return acc


class MicrobenchWorkload(Workload):
    """Parameterised synthetic latency-tolerance microbenchmark."""

    name = "microbench"

    def __init__(self, ilp: int = 2, mlp: int = 2, arith_per_load: int = 2,
                 stride: int = 128, footprint: int = 16 * 1024,
                 divergence: float = 0.0, ctas: int = 4,
                 warps_per_cta: int = 2, iters: int = 32) -> None:
        super().__init__()
        self.spec = MicrobenchSpec(
            ilp=ilp, mlp=mlp, arith_per_load=arith_per_load, stride=stride,
            footprint=footprint, divergence=divergence, ctas=ctas,
            warps_per_cta=warps_per_cta, iters=iters,
        )
        self._out = 0

    def build_program(self) -> Program:
        return build_microbench_kernel(self.spec, name=self.name)

    def prepare(self, gpu: GPU) -> LaunchSpec:
        if gpu.config.core.warp_size != WARP_SIZE:
            raise ConfigurationError(
                f"microbench kernels assume {WARP_SIZE}-lane warps; "
                f"configuration {gpu.config.name!r} has "
                f"{gpu.config.core.warp_size}"
            )
        spec = self.spec
        base = gpu.allocate(spec.footprint, name=f"{self.name}.ring")
        self._out = gpu.allocate(spec.total_threads * WORD_SIZE,
                                 name=f"{self.name}.out")
        gpu.global_memory.store_array(base, microbench_ring(spec))
        return LaunchSpec(
            grid_dim=spec.ctas,
            block_dim=spec.block_dim,
            params={"base": base, "out": self._out},
            address_params=("base", "out"),
        )

    def verify(self, gpu: GPU) -> bool:
        produced = gpu.global_memory.load_array(
            self._out, self.spec.total_threads)
        return bool(np.array_equal(produced, microbench_expected(self.spec)))


def register_microbench(spec: MicrobenchSpec, *, name: Optional[str] = None,
                        description: Optional[str] = None,
                        overwrite: bool = False):
    """Register a generated workload class for ``spec``; returns the class.

    The class is a :class:`MicrobenchWorkload` whose constructor defaults
    are the spec's axis values, so the generated workload behaves exactly
    like a hand-written one everywhere the registry reaches: parameter
    validation and CLI ``--param`` overrides see the spec's values as
    defaults, and worker processes rebuild it from name + params alone.
    """
    from repro.workloads import register_workload  # deferred: avoid cycle

    resolved = name or spec.default_name()
    defaults = spec.to_dict()

    def __init__(self, **overrides):
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown microbench axis(es) {sorted(unknown)}; "
                f"valid axes: {sorted(defaults)}"
            )
        MicrobenchWorkload.__init__(self, **{**defaults, **overrides})

    generated = type(resolved, (MicrobenchWorkload,), {
        "__init__": __init__,
        "__doc__": description or f"Generated {spec.describe()}.",
        "name": resolved,
    })
    generated.__signature__ = inspect.Signature([
        inspect.Parameter(axis, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          default=value)
        for axis, value in defaults.items()
    ])
    register_workload(generated, name=resolved, description=description,
                      overwrite=overwrite)
    return generated


#: The generated variant registered alongside the base workload: a
#: single-chain, MLP-heavy spec whose four outstanding loads per step
#: stress MSHR merging and memory-level parallelism.
MLP4_SPEC = MicrobenchSpec(ilp=1, mlp=4, arith_per_load=1, stride=256,
                           footprint=32 * 1024, ctas=4, warps_per_cta=2,
                           iters=24)
