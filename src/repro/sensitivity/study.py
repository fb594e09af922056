"""The sensitivity-study runner: transform sweeps fitted into metrics.

A :class:`SensitivityStudy` is the declarative form of the paper's
signature experiment: take one registered workload x configuration pair,
perturb the configuration along one or more transform axes
(:class:`~repro.sensitivity.transforms.TransformChain`), simulate every
point, and fit latency-tolerance metrics from the resulting cycle and
exposure curves.  The study itself is plain data (``to_dict`` /
``from_dict`` / canonical JSON), mirroring
:class:`~repro.experiments.Experiment`.

Execution rides entirely on the experiment layer: every sweep point
becomes a session-local derived configuration plus a ``dynamic``
:class:`~repro.experiments.Experiment` whose label carries the transform
chain token, and the whole grid runs through
:meth:`~repro.experiments.Session.run_all` — so ``jobs=N`` shards points
across :class:`~repro.experiments.ParallelExecutor` workers (derived
configurations travel as session-local configs) and the assembled
:class:`SensitivityResult` is byte-identical to a serial run.  Every
curve implicitly includes the unperturbed baseline point, simulated once
no matter how many transform axes sweep over it.
"""

from __future__ import annotations

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
from repro.experiments.spec import Experiment, normalize_scenario_kernels
from repro.sensitivity.metrics import (
    SensitivityPoint,
    ToleranceMetrics,
    fit_tolerance,
)
from repro.sensitivity.transforms import (
    TransformChain,
    injected_latency,
    nominal_dram_latency,
)
from repro.utils.codec import Codec
from repro.utils.errors import ExperimentError

#: The label prefix marking experiments generated by a sensitivity sweep.
#: The remainder of the label is the transform chain's compact token, so
#: the perturbation that produced a record round-trips through the
#: experiment spec itself (and hence through JSON and worker processes).
SENSITIVITY_LABEL_PREFIX = "sensitivity:"


def chain_label(chain: TransformChain) -> str:
    """The experiment label carrying ``chain`` through a spec."""
    return SENSITIVITY_LABEL_PREFIX + chain.token()


def chain_from_label(label: Optional[str]) -> Optional[TransformChain]:
    """Recover the transform chain from a sweep-generated experiment label.

    ``None`` for labels not produced by :func:`chain_label` (including
    ``None`` itself); the empty-chain label yields an identity chain.
    """
    if label is None or not label.startswith(SENSITIVITY_LABEL_PREFIX):
        return None
    token = label[len(SENSITIVITY_LABEL_PREFIX):]
    if not token:
        return TransformChain()
    return TransformChain.parse(token)


def _normalise_chain(axis: Union[str, TransformChain]) -> TransformChain:
    """Accept a chain, a transform name, or a chain token as a sweep axis."""
    if isinstance(axis, TransformChain):
        return axis
    return TransformChain.parse(axis)


@dataclass(frozen=True)
class SensitivityCurve(Codec):
    """One transform axis of a study: its points and fitted metrics."""

    transform: TransformChain
    points: Tuple[SensitivityPoint, ...]
    metrics: ToleranceMetrics


@dataclass(frozen=True)
class SensitivityStudy(Codec):
    """Declarative specification of one latency-sensitivity sweep.

    Attributes
    ----------
    config:
        Registered (or session-local) base configuration name.
    workload:
        Registered workload name.
    transforms:
        Transform axes; each is swept independently across ``scales``.
        Entries may be given as :class:`TransformChain` objects, bare
        transform names, or chain tokens (``"name[:value][+name...]"``).
    scales:
        Sweep scale factors.  Each axis chain is evaluated ``at(scale)``;
        scales that neutralise the chain collapse onto the implicit
        baseline point, which is always included.
    params:
        Workload constructor parameters (as for dynamic experiments).
    label:
        Optional free-form tag carried into the result.
    neighbor:
        Optional co-location axis: a scenario kernel entry (``workload``,
        optional ``params``/``stream``/``sm_mask``) run **concurrently**
        with the primary workload at every sweep point.  The sweep then
        measures the primary kernel's *attributed* cycle window under
        contention — every point becomes a two-kernel ``scenario``
        experiment and the fitted curve uses the primary kernel's
        per-launch cycles instead of whole-device wall cycles.  The
        neighbor defaults to stream 1 (so it overlaps the primary on
        stream 0); ``params`` must be pure workload parameters.
    """

    config: str
    workload: str
    transforms: Tuple[TransformChain, ...] = ()
    scales: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    neighbor: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.config:
            raise ExperimentError("sensitivity studies need a config")
        if not self.workload:
            raise ExperimentError("sensitivity studies need a workload")
        chains = tuple(_normalise_chain(axis) for axis in self.transforms)
        if not chains:
            raise ExperimentError(
                "sensitivity studies need at least one transform axis"
            )
        scales = tuple(float(scale) for scale in self.scales)
        if not scales:
            raise ExperimentError(
                "sensitivity studies need at least one scale factor"
            )
        if len(set(scales)) != len(scales):
            raise ExperimentError(
                f"duplicate scale factors in {list(scales)}"
            )
        object.__setattr__(self, "transforms", chains)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "params", dict(self.params))
        if self.neighbor is not None:
            entry = dict(self.neighbor)
            entry.setdefault("stream", 1)
            object.__setattr__(
                self, "neighbor", normalize_scenario_kernels([entry])[0])

    def describe(self) -> str:
        """One-line human-readable summary."""
        axes = ", ".join(chain.describe() for chain in self.transforms)
        head = f"sensitivity of {self.workload} on {self.config}"
        if self.neighbor is not None:
            head += f" (co-located with {self.neighbor['workload']})"
        return (f"{head} along [{axes}] at scales "
                f"{[format(s, 'g') for s in self.scales]}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def experiments(self, session) -> Tuple[List[Experiment],
                                            List[Tuple[int, float, str, int]]]:
        """Expand the study into experiments plus per-point metadata.

        Derived configurations are registered as session-local configs on
        ``session`` (so they ride to parallel workers); the metadata list
        carries ``(curve index, scale, config name, injected latency)``
        per experiment, with curve index ``-1`` marking the shared
        baseline experiment.
        """
        base = session.resolve_config(self.config)
        specs: List[Experiment] = [
            self._point_experiment(self.config, chain_label(TransformChain()))
        ]
        meta: List[Tuple[int, float, str, int]] = [
            (-1, 0.0, self.config, 0)]
        for curve_index, chain in enumerate(self.transforms):
            for scale in self.scales:
                evaluated = chain.at(scale)
                if evaluated.is_identity:
                    continue  # collapses onto the shared baseline point
                derived = evaluated.apply(base)
                name = session.add_config(
                    derived, name=f"{self.config}@{evaluated.token()}")
                specs.append(self._point_experiment(
                    name, chain_label(evaluated)))
                meta.append((curve_index, scale, name,
                             injected_latency(base, derived)))
        return specs, meta

    def _point_experiment(self, config_name: str, label: str) -> Experiment:
        """The experiment for one sweep point on one derived config.

        A plain ``dynamic`` run of the primary workload — or, with a
        ``neighbor``, a two-kernel ``scenario`` co-locating the primary
        (stream 0) with the neighbor, whose per-launch attribution the
        curve is fitted from.
        """
        if self.neighbor is None:
            return Experiment.dynamic(config_name, self.workload,
                                      label=label, **dict(self.params))
        primary = {"workload": self.workload, "params": dict(self.params),
                   "stream": 0}
        return Experiment.scenario(config_name,
                                   [primary, dict(self.neighbor)],
                                   label=label)

    def run(self, session=None, jobs: Optional[int] = 1,
            progress: Optional[Callable[[int, int, RunRecord, str],
                                        None]] = None,
            ) -> "SensitivityResult":
        """Run every sweep point and fit the tolerance metrics.

        ``session`` defaults to a fresh :class:`~repro.experiments.Session`;
        ``jobs`` and ``progress`` are forwarded to
        :meth:`~repro.experiments.Session.run_all`, so ``jobs > 1`` shards
        the points across worker processes with byte-identical results.
        """
        from repro.experiments.session import Session  # deferred: avoid cycle

        session = session if session is not None else Session()
        base = session.resolve_config(self.config)
        specs, meta = self.experiments(session)
        runs = session.run_all(specs, jobs=jobs, progress=progress)
        return self.assemble(base, runs, meta)

    def assemble(self, base, runs,
                 meta: List[Tuple[int, float, str, int]]
                 ) -> "SensitivityResult":
        """Fit a :class:`SensitivityResult` from already-run records.

        ``runs`` must be ordered like the specs returned by
        :meth:`experiments` (baseline first) with ``meta`` the matching
        metadata list.  Factored out of :meth:`run` so batched drivers
        (the :class:`~repro.sensitivity.LatencyToleranceAtlas`) can pool
        many studies' experiments into one ``run_all`` call and still
        assemble per-study results identically.
        """

        def point_from(record: RunRecord, scale: float, config_name: str,
                       injected: int, token: str) -> SensitivityPoint:
            exposure = record.payload.get("exposure", {})
            # Scenario records attribute cycles per kernel; the curve
            # tracks the primary kernel's window, not the device wall
            # clock (which includes the neighbor's tail).
            cycles = record.payload.get("primary_cycles",
                                        record.total_cycles)
            return SensitivityPoint(
                scale=scale,
                config=config_name,
                transform=token,
                injected_latency=injected,
                cycles=cycles,
                exposed_fraction=exposure.get("overall_exposed_fraction",
                                              0.0),
                total_loads=exposure.get("total_loads", 0),
            )

        base_nominal = nominal_dram_latency(base)
        baseline_record = runs[0]
        curves: List[SensitivityCurve] = []
        for curve_index, chain in enumerate(self.transforms):
            identity_scale = chain.identity_scale()
            points = [point_from(
                baseline_record,
                identity_scale if identity_scale is not None else 0.0,
                self.config, 0, "")]
            for record, (index, scale, config_name, injected) in zip(
                    runs, meta):
                if index != curve_index:
                    continue
                points.append(point_from(
                    record, scale, config_name, injected,
                    chain.at(scale).token()))
            points.sort(key=lambda point: point.scale)
            curves.append(SensitivityCurve(
                transform=chain,
                points=tuple(points),
                metrics=fit_tolerance(points, base_nominal),
            ))
        return SensitivityResult(
            study=self.to_dict(),
            base_nominal_latency=base_nominal,
            curves=curves,
            runs=runs,
        )


@dataclass
class SensitivityResult(Codec):
    """The complete outcome of one sensitivity study.

    ``study`` is the producing spec as plain data,
    ``base_nominal_latency`` the analytic unloaded DRAM round trip of the
    base configuration, and ``curves`` one fitted
    :class:`SensitivityCurve` per transform axis.  ``runs`` holds the
    underlying :class:`~repro.experiments.RunSet` on live results and is
    never serialized (results rebuilt from JSON have ``runs=None``).
    """

    study: Dict[str, Any]
    base_nominal_latency: int
    curves: List[SensitivityCurve]
    runs: Optional[Any] = field(default=None, repr=False, compare=False)

    def curve(self, token_or_index: Union[int, str]) -> SensitivityCurve:
        """A curve by position, or by transform-chain token/name."""
        if isinstance(token_or_index, int):
            return self.curves[token_or_index]
        for curve in self.curves:
            chain = curve.transform
            if (chain.token() == token_or_index
                    or "+".join(t.name for t in chain) == token_or_index):
                return curve
        raise ExperimentError(
            f"no sensitivity curve matches {token_or_index!r}; available: "
            f"{[curve.transform.token() for curve in self.curves]}"
        )
