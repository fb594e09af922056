"""Declarative, composable GPU-configuration transforms.

The paper's central experiment perturbs one architectural knob of a GPU
configuration at a time — memory latency up, MSHRs down, occupancy down —
and measures how much of the injected latency the throughput core still
hides.  A :class:`Transform` is the declarative form of one such
perturbation: a registered transform *name* plus a single numeric
*value*, plain data that round-trips through JSON and rides through
:class:`~repro.experiments.Experiment` specs and
:class:`~repro.experiments.ParallelExecutor` workers unchanged.  A
:class:`TransformChain` composes several transforms left to right.

Transforms derive configurations through
:meth:`~repro.gpu.config.GPUConfig.derive`, so the full frozen-dataclass
validation chain re-runs on every derived configuration: scaling MSHRs to
zero or warps below the scheduler count raises
:class:`~repro.utils.errors.ConfigurationError` at derivation time
instead of crashing mid-simulation.

Built-in transforms (see :data:`TRANSFORM_REGISTRY`):

``scale_dram_latency``
    Multiply the DRAM channel's core timings (``t_rcd``/``t_rp``/
    ``t_cas``/``service_pad``) by ``value``.  Timing fields are clamped to
    their minimum legal values so fractional down-scaling stays valid.
``scale_l2_hit_latency``
    Multiply the L2 slice hit latency by ``value`` (raises on
    configurations without an L2 on the global path).
``add_interconnect_hops``
    Add ``round(value)`` extra network hops, each costing
    :data:`INTERCONNECT_HOP_CYCLES` on the traversal latency of *both*
    the request and the reply network (they share one configuration), so
    one hop lengthens a round trip by ``2 * INTERCONNECT_HOP_CYCLES``.
    Identity at ``value == 0``.
``scale_mshr_count``
    Multiply the L1 (and, when present, L2) MSHR entry counts by
    ``value``.  Resource counts are deliberately *not* clamped: scaling
    them to zero is a configuration error and raises cleanly.
``scale_max_warps``
    Multiply the per-SM resident-warp limit by ``value`` (not clamped;
    going below the scheduler count raises).

New transforms plug in with :func:`register_transform`, mirroring the
configuration/workload registries.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.gpu.config import GPUConfig
from repro.utils.codec import Codec
from repro.utils.errors import ConfigurationError, ExperimentError
from repro.utils.registry import Registry

#: Cycles one extra interconnect hop adds to a single network traversal
#: (the presets model one crossbar traversal as 12-20 cycles; a hop on a
#: mesh-like topology is a fraction of that).
INTERCONNECT_HOP_CYCLES = 8


@dataclass(frozen=True)
class TransformDef:
    """A registered transform: the derivation function plus its identity.

    ``identity`` is the parameter value at which the transform leaves the
    configuration unchanged — ``1.0`` for multiplicative transforms,
    ``0.0`` for additive ones.  The sweep machinery uses it to recognise
    points that collapse onto the unperturbed baseline.
    """

    name: str
    fn: Callable[[GPUConfig, float], GPUConfig]
    identity: float = 1.0


#: Open registry of configuration transforms (entries are
#: :class:`TransformDef`).
TRANSFORM_REGISTRY: Registry = Registry("config transform")


def register_transform(fn=None, *, name=None, identity: float = 1.0,
                       description=None, overwrite: bool = False):
    """Register a configuration transform (decorator-friendly).

    ``fn`` is a callable ``(config, value) -> GPUConfig``.  ``identity``
    is the value at which the transform is a no-op (1.0 for
    multiplicative scales, 0.0 for additive counts).
    """
    if fn is None:
        def decorator(target):
            register_transform(target, name=name, identity=identity,
                               description=description, overwrite=overwrite)
            return target
        return decorator
    resolved = name or fn.__name__
    TRANSFORM_REGISTRY.register(
        TransformDef(name=resolved, fn=fn, identity=identity),
        name=resolved,
        description=description or (fn.__doc__ or "").strip().splitlines()[0],
        overwrite=overwrite,
    )
    return fn


def available_transforms() -> List[str]:
    """Names of all registered configuration transforms."""
    return TRANSFORM_REGISTRY.names()


def transform_def(name: str) -> TransformDef:
    """The :class:`TransformDef` registered under ``name``."""
    return TRANSFORM_REGISTRY.get(name)


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an integer timing field, clamped to its minimum legal value."""
    return max(minimum, int(round(value * scale)))


def _counted(value: int, scale: float) -> int:
    """Scale an integer resource count (no clamping: 0 must fail loudly)."""
    return int(round(value * scale))


@register_transform(name="scale_dram_latency")
def scale_dram_latency(config: GPUConfig, value: float) -> GPUConfig:
    """Scale the DRAM channel's core timings and service pad."""
    dram = config.partition.dram
    return config.derive({
        "partition.dram.t_rcd": _scaled(dram.t_rcd, value),
        "partition.dram.t_rp": _scaled(dram.t_rp, value),
        "partition.dram.t_cas": _scaled(dram.t_cas, value),
        "partition.dram.service_pad": _scaled(dram.service_pad, value,
                                              minimum=0),
    })


@register_transform(name="scale_l2_hit_latency")
def scale_l2_hit_latency(config: GPUConfig, value: float) -> GPUConfig:
    """Scale the L2 slice hit latency."""
    l2 = config.partition.l2
    if not config.partition.l2_enabled or l2 is None:
        raise ConfigurationError(
            f"configuration {config.name!r} has no L2 on the global path; "
            f"'scale_l2_hit_latency' does not apply"
        )
    return config.derive({
        "partition.l2.hit_latency": _scaled(l2.hit_latency, value),
    })


@register_transform(name="add_interconnect_hops", identity=0.0)
def add_interconnect_hops(config: GPUConfig, value: float) -> GPUConfig:
    """Add extra network hops to both interconnect directions."""
    hops = int(round(value))
    if hops < 0:
        raise ConfigurationError(
            f"'add_interconnect_hops' needs a hop count >= 0, got {value!r}"
        )
    return config.derive({
        "interconnect.latency":
            config.interconnect.latency + hops * INTERCONNECT_HOP_CYCLES,
    })


@register_transform(name="scale_mshr_count")
def scale_mshr_count(config: GPUConfig, value: float) -> GPUConfig:
    """Scale the L1 (and L2, when present) MSHR entry counts."""
    overrides: Dict[str, Any] = {
        "core.l1.mshr_entries": _counted(config.core.l1.mshr_entries, value),
    }
    if config.partition.l2_enabled and config.partition.l2 is not None:
        overrides["partition.l2.mshr_entries"] = _counted(
            config.partition.l2.mshr_entries, value)
    return config.derive(overrides)


@register_transform(name="scale_max_warps")
def scale_max_warps(config: GPUConfig, value: float) -> GPUConfig:
    """Scale the per-SM resident warp limit."""
    return config.derive({
        "core.max_warps": _counted(config.core.max_warps, value),
    })


@dataclass(frozen=True)
class Transform(Codec):
    """One named configuration perturbation with a numeric parameter.

    ``name`` must be registered in :data:`TRANSFORM_REGISTRY`; ``value``
    is the transform's parameter (a scale factor for multiplicative
    transforms, a count for additive ones).
    """

    name: str
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.name not in TRANSFORM_REGISTRY.names():
            raise ExperimentError(
                f"unknown config transform {self.name!r}; "
                f"available: {available_transforms()}"
            )
        value = float(self.value)
        if not math.isfinite(value) or value < 0:
            raise ExperimentError(
                f"transform {self.name!r} needs a finite value >= 0, "
                f"got {self.value!r}"
            )
        object.__setattr__(self, "value", value)

    @property
    def is_identity(self) -> bool:
        """Whether this transform leaves any configuration unchanged."""
        return self.value == transform_def(self.name).identity

    def apply(self, config: GPUConfig) -> GPUConfig:
        """Derive a new configuration with this perturbation applied."""
        return transform_def(self.name).fn(config, self.value)

    def scaled(self, scale: float) -> "Transform":
        """This transform with its value multiplied by ``scale``."""
        return Transform(self.name, self.value * scale)

    def token(self) -> str:
        """Compact string form, e.g. ``"scale_dram_latency:2.0"``.

        ``repr(float)`` is the shortest round-tripping representation, so
        ``parse_transform(t.token()) == t`` holds exactly.
        """
        return f"{self.name}:{self.value!r}"


def parse_transform(token: str) -> Transform:
    """Parse one CLI transform token: ``name`` or ``name:value``."""
    name, sep, raw = token.partition(":")
    name = name.strip()
    if not name:
        raise ExperimentError(
            f"malformed transform {token!r}; expected name or name:value"
        )
    if not sep:
        return Transform(name)
    try:
        value = float(raw)
    except ValueError:
        raise ExperimentError(
            f"malformed transform {token!r}; value {raw!r} is not a number"
        ) from None
    return Transform(name, value)


@dataclass(frozen=True)
class TransformChain(Codec):
    """An ordered composition of transforms, applied left to right."""

    transforms: Tuple[Transform, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "transforms", tuple(self.transforms))

    def __len__(self) -> int:
        return len(self.transforms)

    def __iter__(self):
        return iter(self.transforms)

    @property
    def is_identity(self) -> bool:
        """Whether every member transform is at its identity value."""
        return all(transform.is_identity for transform in self.transforms)

    def apply(self, config: GPUConfig) -> GPUConfig:
        """Derive a configuration with every member applied in order."""
        for transform in self.transforms:
            config = transform.apply(config)
        return config

    def at(self, scale: float) -> "TransformChain":
        """The chain with every member's value multiplied by ``scale``.

        This is the sweep primitive: a chain built from bare transform
        names (member values all 1.0) evaluated ``at(s)`` perturbs each
        member by ``s``.
        """
        return TransformChain(tuple(transform.scaled(scale)
                                    for transform in self.transforms))

    def identity_scale(self) -> Optional[float]:
        """The sweep scale at which :meth:`at` yields the identity chain.

        ``1.0`` when every member is multiplicative, ``0.0`` when every
        member is additive; ``None`` when no single scale neutralises a
        mixed chain (the sweep then labels the unperturbed baseline point
        with scale ``0.0``).
        """
        scales = set()
        for transform in self.transforms:
            identity = transform_def(transform.name).identity
            if transform.value == 0:
                if identity != 0:
                    return None
                continue
            scales.add(identity / transform.value)
        if not scales:
            return 1.0
        if len(scales) > 1:
            return None
        return scales.pop()

    def token(self) -> str:
        """Compact string form, e.g. ``"scale_dram_latency:2.0+..."``."""
        return "+".join(transform.token() for transform in self.transforms)

    def describe(self) -> str:
        """Human-readable summary of the chain."""
        if not self.transforms:
            return "identity"
        return " + ".join(f"{t.name} x{t.value:g}" for t in self.transforms)

    # Codec hook: a chain's JSON is its bare list of transforms, not a
    # ``{"transforms": [...]}`` object.
    def to_dict(self) -> List[Dict[str, Any]]:
        """Plain-data form: a list of :class:`Transform` dicts."""
        return super().to_dict()["transforms"]

    @classmethod
    def from_dict(cls, data: Any) -> "TransformChain":
        """Rebuild a chain from :meth:`to_dict` output."""
        return super().from_dict({"transforms": data})

    @classmethod
    def parse(cls, token: str) -> "TransformChain":
        """Parse a CLI chain token: ``name[:value][+name[:value]...]``.

        Members are separated by a ``+`` that starts the next transform
        *name*, so exponent signs inside values (``1e+16``) do not split.
        """
        parts = [part for part in re.split(r"\+(?=[A-Za-z_])", token)
                 if part.strip()]
        if not parts:
            raise ExperimentError(
                f"malformed transform chain {token!r}; expected "
                f"name[:value][+name[:value]...]"
            )
        return cls(tuple(parse_transform(part) for part in parts))


def nominal_dram_latency(config: GPUConfig) -> int:
    """Analytic estimate of one unloaded global load's DRAM round trip.

    Sums the configured latencies a lone load would see on its way to
    DRAM and back: SM base, both interconnect traversals, ROP, the L2
    lookup (when an L2 is on the path), the closed-row DRAM access plus
    burst and service pad, and writeback.  Queueing is deliberately
    excluded — the estimate expresses *injected* latency for sensitivity
    metrics, so it only needs to be additive in the knobs the built-in
    transforms perturb, not to predict loaded latencies.
    """
    dram = config.partition.dram
    latency = (config.core.sm_base_latency
               + 2 * config.interconnect.latency
               + config.partition.rop_latency
               + dram.row_closed_latency()
               + dram.burst_cycles
               + dram.service_pad
               + config.core.writeback_latency)
    if config.partition.l2_enabled and config.partition.l2 is not None:
        latency += config.partition.l2.hit_latency
    return latency


def injected_latency(base: GPUConfig, derived: GPUConfig) -> int:
    """Nominal per-load latency a derived configuration injects over base.

    Zero (not negative-clamped) deltas are meaningful: resource-count
    transforms (MSHRs, warps) change no path latency, and the sensitivity
    metrics fall back to per-scale slopes for them.
    """
    return nominal_dram_latency(derived) - nominal_dram_latency(base)
