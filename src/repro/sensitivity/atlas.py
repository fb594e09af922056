"""The latency-tolerance atlas: a 2-D microbench-axis x transform sweep.

A single :class:`~repro.sensitivity.SensitivityStudy` answers "how much
injected latency does *this* kernel hide?".  The paper's argument needs
the next dimension: how that tolerance *changes* as one controlled
workload property — instruction-level parallelism, outstanding loads,
occupancy — is dialed.  A :class:`LatencyToleranceAtlas` runs exactly
that grid: one workload-parameter axis (by default an axis of the
synthetic ``microbench`` workload, e.g. ``ilp``) crossed with one
configuration-transform axis (e.g. ``scale_dram_latency`` across scale
factors), fitting per-row tolerance metrics into one table.

Execution pools every row's sweep points into a single
:meth:`~repro.experiments.Session.run_all` call, so ``jobs=N`` shards
the whole 2-D grid across worker processes and the assembled
:class:`AtlasResult` is byte-identical to a serial run.  The atlas spec
and its result are plain data (``to_dict`` / ``from_dict`` / canonical
JSON), mirroring the rest of the experiment layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.experiments.results import RunRecord
from repro.experiments.spec import (
    normalize_scenario_kernels,
    workload_param_spec,
)
from repro.sensitivity.study import (
    SensitivityCurve,
    SensitivityStudy,
    _normalise_chain,
)
from repro.sensitivity.transforms import TransformChain, nominal_dram_latency
from repro.utils.codec import Codec
from repro.utils.errors import ExperimentError


@dataclass(frozen=True)
class LatencyToleranceAtlas(Codec):
    """Declarative specification of one 2-D latency-tolerance sweep.

    Attributes
    ----------
    config:
        Registered (or session-local) base configuration name.
    axis:
        Workload constructor parameter swept along the rows (an axis of
        the ``microbench`` spec such as ``ilp``, ``mlp``, or
        ``warps_per_cta`` — any registered workload's parameter works).
    values:
        The axis values, one sweep row each.
    transform:
        The transform axis swept along the columns; accepts a
        :class:`TransformChain`, a transform name, or a chain token.
    scales:
        Transform sweep scale factors (the columns).
    workload:
        Registered workload name (default: the synthetic microbench).
    params:
        Workload parameters held constant across the grid.
    label:
        Optional free-form tag carried into the result.
    neighbor:
        Optional co-location axis forwarded to every row's
        :class:`SensitivityStudy`: a scenario kernel entry run
        concurrently with the primary workload at every grid point, so
        the atlas maps latency tolerance *under contention*.
    """

    config: str
    axis: str
    values: Tuple[float, ...]
    transform: Union[str, TransformChain] = "scale_dram_latency"
    scales: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    workload: str = "microbench"
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    neighbor: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.config:
            raise ExperimentError("atlas sweeps need a config")
        if not self.workload:
            raise ExperimentError("atlas sweeps need a workload")
        if not self.axis:
            raise ExperimentError("atlas sweeps need a workload axis")
        values = tuple(self.values)
        if not values:
            raise ExperimentError(
                "atlas sweeps need at least one axis value"
            )
        if len(set(values)) != len(values):
            raise ExperimentError(
                f"duplicate atlas axis values in {list(values)}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "transform",
                           _normalise_chain(self.transform))
        scales = tuple(float(scale) for scale in self.scales)
        if not scales:
            raise ExperimentError(
                "atlas sweeps need at least one scale factor"
            )
        object.__setattr__(self, "scales", scales)
        params = dict(self.params)
        if self.axis in params:
            raise ExperimentError(
                f"atlas axis {self.axis!r} cannot also be a fixed "
                f"parameter"
            )
        object.__setattr__(self, "params", params)
        if self.neighbor is not None:
            entry = dict(self.neighbor)
            entry.setdefault("stream", 1)
            object.__setattr__(
                self, "neighbor", normalize_scenario_kernels([entry])[0])

    def validate_axis(self) -> None:
        """Check the axis against the workload's constructor signature.

        Raises :class:`ExperimentError` listing the valid axes.  Kept
        separate from ``__post_init__`` because the workload may be
        registered after the atlas spec is built (mirroring dynamic
        experiments' lazy parameter validation).
        """
        spec = workload_param_spec(self.workload)
        if self.axis not in spec:
            raise ExperimentError(
                f"unknown atlas axis {self.axis!r} for workload "
                f"{self.workload!r}; valid axes: {sorted(spec)}"
            )

    def describe(self) -> str:
        """One-line human-readable summary."""
        neighbor = (f" (co-located with {self.neighbor['workload']})"
                    if self.neighbor else "")
        return (f"latency-tolerance atlas of {self.workload} on "
                f"{self.config}{neighbor}: {self.axis} x "
                f"{self.transform.describe()} at scales "
                f"{[format(s, 'g') for s in self.scales]}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def studies(self) -> List[SensitivityStudy]:
        """One :class:`SensitivityStudy` per axis value (sweep row)."""
        return [
            SensitivityStudy(
                config=self.config,
                workload=self.workload,
                transforms=(self.transform,),
                scales=self.scales,
                params={**self.params, self.axis: value},
                label=self.label,
                neighbor=self.neighbor,
            )
            for value in self.values
        ]

    def run(self, session=None, jobs: Optional[int] = 1,
            progress: Optional[Callable[[int, int, RunRecord, str],
                                        None]] = None,
            ) -> "AtlasResult":
        """Run the whole grid and fit per-row tolerance metrics.

        Every row's sweep points (including each row's baseline) are
        pooled into one :meth:`~repro.experiments.Session.run_all` call,
        so ``jobs=N`` parallelises across the entire 2-D grid and the
        result is byte-identical to a serial run.
        """
        from repro.experiments.session import Session  # deferred: avoid cycle

        self.validate_axis()
        session = session if session is not None else Session()
        base = session.resolve_config(self.config)
        studies = self.studies()
        pooled: List[Any] = []
        slices: List[Tuple[SensitivityStudy, List, int]] = []
        for study in studies:
            specs, meta = study.experiments(session)
            slices.append((study, meta, len(specs)))
            pooled.extend(specs)
        runs = list(session.run_all(pooled, jobs=jobs, progress=progress))
        rows: List[AtlasRow] = []
        cursor = 0
        for value, (study, meta, count) in zip(self.values, slices):
            row_runs = runs[cursor:cursor + count]
            cursor += count
            result = study.assemble(base, row_runs, meta)
            rows.append(AtlasRow(value=value, curve=result.curves[0]))
        return AtlasResult(
            atlas=self.to_dict(),
            base_nominal_latency=nominal_dram_latency(base),
            rows=rows,
        )


@dataclass(frozen=True)
class AtlasRow(Codec):
    """One sweep row: an axis value and its fitted sensitivity curve."""

    value: float
    curve: SensitivityCurve


@dataclass
class AtlasResult(Codec):
    """The complete outcome of one latency-tolerance atlas sweep.

    ``atlas`` is the producing spec as plain data,
    ``base_nominal_latency`` the analytic unloaded DRAM round trip of
    the base configuration, and ``rows`` one fitted
    :class:`AtlasRow` per axis value, in sweep order.
    """

    atlas: Dict[str, Any]
    base_nominal_latency: int
    rows: List[AtlasRow]

    def row(self, value: float) -> AtlasRow:
        """The sweep row for one axis value."""
        for row in self.rows:
            if row.value == value:
                return row
        raise ExperimentError(
            f"no atlas row for axis value {value!r}; available: "
            f"{[row.value for row in self.rows]}"
        )

    def slopes(self) -> List[Tuple[float, Optional[float]]]:
        """Per-row ``(axis value, cycles-per-injected-cycle slope)``."""
        return [(row.value, row.curve.metrics.slope_cycles_per_injected)
                for row in self.rows]


def parse_axis_token(token: str) -> Tuple[str, List[Any]]:
    """Parse a CLI atlas-axis token: ``name=v1,v2,...``.

    Values are coerced through JSON (ints stay ints, floats floats).
    """
    name, sep, raw = token.partition("=")
    name = name.strip()
    if not sep or not name:
        raise ExperimentError(
            f"malformed atlas axis {token!r}; expected name=v1,v2,..."
        )
    values: List[Any] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(json.loads(part))
        except ValueError:
            raise ExperimentError(
                f"malformed atlas axis {token!r}; value {part!r} is not "
                f"a number"
            ) from None
    if not values:
        raise ExperimentError(
            f"atlas axis {token!r} names no values"
        )
    return name, values
