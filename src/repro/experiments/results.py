"""Result records for experiment runs.

A :class:`RunRecord` is the persistent outcome of one experiment: the
spec that produced it, per-launch statistics (with per-launch counter
deltas), and a kind-specific JSON-native payload (the Table I rows, the
sweep curve + inferred hierarchy, or the Figure 1/2 breakdown and
exposure buckets).  A :class:`RunSet` is an ordered collection of records
with canonical ``to_json``/``from_json`` that round-trips byte-identically.

Records produced by a live :class:`~repro.experiments.session.Session`
additionally carry in-memory *artifacts* — the rich analysis objects
(``BreakdownResult``, ``ExposureResult``, ``TableIResult``, ...) and the
GPU itself — which are deliberately not serialized; records rebuilt from
JSON have an empty artifact dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.breakdown import BreakdownResult, LatencyBucket
from repro.core.exposure import ExposureBucket, ExposureResult
from repro.core.hierarchy import HierarchyEstimate, HierarchyLevel
from repro.core.pointer_chase import ChaseMeasurement, LatencySurface
from repro.core.static import (
    TABLE_I_LEVELS,
    GenerationLatencies,
    TableIResult,
)
from repro.core.stages import STAGE_ORDER, Stage
from repro.gpu.gpu import KernelResult
from repro.utils.codec import Codec
from repro.utils.errors import ExperimentError


# ----------------------------------------------------------------------
# Payload serializers: rich analysis objects -> JSON-native dicts
# ----------------------------------------------------------------------
def launch_to_dict(result: KernelResult) -> Dict[str, Any]:
    """Serialize one :class:`KernelResult` (stats are per-launch deltas).

    Deliberately explicit about the keys it emits: single-kernel
    (``dynamic``) payloads must stay byte-identical across simulator
    versions, so fields added to :class:`KernelResult` for scenarios
    (``launch_id``, ``stream``, ``overlap_cycles``) are serialized only
    by :func:`scenario_launch_to_dict`.
    """
    return {
        "kernel": result.kernel_name,
        "cycles": result.cycles,
        "start_cycle": result.start_cycle,
        "end_cycle": result.end_cycle,
        "instructions": result.instructions,
        "ipc": result.ipc,
        "stats": dict(result.stats),
    }


def scenario_launch_to_dict(result: KernelResult) -> Dict[str, Any]:
    """Serialize one scenario :class:`KernelResult` with its identity.

    Extends :func:`launch_to_dict` with the co-location fields: which
    launch/stream produced it and how many of its cycles overlapped
    another kernel's execution window.  Its ``stats`` are the counters
    attributed to this launch alone, not whole-device deltas.
    """
    data = launch_to_dict(result)
    data["launch_id"] = result.launch_id
    data["stream"] = result.stream
    data["overlap_cycles"] = result.overlap_cycles
    return data


def breakdown_to_dict(breakdown: BreakdownResult) -> Dict[str, Any]:
    """Serialize a Figure 1 breakdown (non-empty buckets only)."""
    return {
        "total_requests": breakdown.total_requests,
        "min_latency": breakdown.min_latency,
        "max_latency": breakdown.max_latency,
        "stage_fractions": {
            stage.value: fraction
            for stage, fraction in breakdown.stage_fractions().items()
        },
        "buckets": [
            {
                "lower": bucket.lower,
                "upper": bucket.upper,
                "count": bucket.count,
                "stage_cycles": {
                    stage.value: bucket.stage_cycles[stage]
                    for stage in STAGE_ORDER
                },
            }
            for bucket in breakdown.non_empty_buckets()
        ],
    }


def exposure_to_dict(exposure: ExposureResult) -> Dict[str, Any]:
    """Serialize a Figure 2 exposure analysis (non-empty buckets only)."""
    return {
        "total_loads": exposure.total_loads,
        "min_latency": exposure.min_latency,
        "max_latency": exposure.max_latency,
        "overall_exposed_fraction": exposure.overall_exposed_fraction,
        "buckets": [
            {
                "lower": bucket.lower,
                "upper": bucket.upper,
                "count": bucket.count,
                "exposed_cycles": bucket.exposed_cycles,
                "hidden_cycles": bucket.hidden_cycles,
            }
            for bucket in exposure.non_empty_buckets()
        ],
    }


def table_to_dict(table: TableIResult) -> Dict[str, Any]:
    """Serialize a Table I reproduction."""
    return {
        "levels": list(TABLE_I_LEVELS),
        "generations": [
            {
                "config": generation.config_name,
                "label": generation.label,
                "measured": dict(generation.measured),
                "paper": dict(generation.paper),
            }
            for generation in table.generations
        ],
    }


def sweep_to_dict(surface: LatencySurface,
                  hierarchy: HierarchyEstimate) -> Dict[str, Any]:
    """Serialize a footprint sweep and its inferred hierarchy."""
    return {
        "config": surface.config_name,
        "space": surface.space,
        "measurements": [
            {
                "footprint_bytes": m.footprint_bytes,
                "stride_bytes": m.stride_bytes,
                "cycles_per_access": m.cycles_per_access,
            }
            for m in surface.measurements
        ],
        "hierarchy": {
            "stride_bytes": hierarchy.stride_bytes,
            "levels": [
                {
                    "index": level.index,
                    "latency": level.latency,
                    "min_footprint": level.min_footprint,
                    "max_footprint": level.max_footprint,
                }
                for level in hierarchy.levels
            ],
        },
    }


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
#: Artifact keys holding live simulator state (the full GPU with its
#: global-memory backing store, the workload instance, raw kernel
#: results).  These never cross a process boundary and are dropped from
#: session-cached records; the remaining ("light") artifacts are the
#: plain-data analysis objects, which pickle fine.
HEAVY_ARTIFACTS = ("gpu", "workload", "results")


def light_artifacts(artifacts: Mapping[str, Any]) -> Dict[str, Any]:
    """The picklable analysis artifacts (everything but live state)."""
    return {key: value for key, value in artifacts.items()
            if key not in HEAVY_ARTIFACTS}


@dataclass
class RunRecord(Codec):
    """The persistent outcome of one experiment run.

    ``experiment`` is the producing spec as plain data, ``launches`` the
    per-launch statistics (empty for microbenchmark kinds, which build
    fresh GPUs per data point), and ``payload`` the kind-specific analysis
    results.  ``artifacts`` holds live objects (``gpu``, ``workload``,
    ``results``, ``breakdown``, ``exposure``, ``table``, ``surface``,
    ``hierarchy``) and is never serialized.
    """

    experiment: Dict[str, Any]
    kind: str
    total_cycles: int = 0
    launches: List[Dict[str, Any]] = field(default_factory=list)
    payload: Dict[str, Any] = field(default_factory=dict)
    artifacts: Dict[str, Any] = field(default_factory=dict, repr=False,
                                      compare=False)

    # -- live-object conveniences (None on records rebuilt from JSON) --
    @property
    def gpu(self):
        """The GPU the run executed on (dynamic runs only)."""
        return self.artifacts.get("gpu")

    @property
    def tracker(self):
        """The latency tracker of the run's GPU (dynamic runs only)."""
        gpu = self.gpu
        return gpu.tracker if gpu is not None else None

    @property
    def workload(self):
        """The live workload instance (dynamic runs only)."""
        return self.artifacts.get("workload")

    @property
    def results(self) -> Optional[List[KernelResult]]:
        """Per-launch :class:`KernelResult` objects (dynamic runs only)."""
        return self.artifacts.get("results")

    @property
    def breakdown(self) -> Optional[BreakdownResult]:
        """The Figure 1 analysis object (dynamic runs only)."""
        return self.artifacts.get("breakdown")

    @property
    def exposure(self) -> Optional[ExposureResult]:
        """The Figure 2 analysis object (dynamic runs only)."""
        return self.artifacts.get("exposure")

    @property
    def table(self) -> Optional[TableIResult]:
        """The Table I analysis object (static runs only)."""
        return self.artifacts.get("table")

    @property
    def surface(self) -> Optional[LatencySurface]:
        """The latency surface (sweep runs only)."""
        return self.artifacts.get("surface")

    @property
    def hierarchy(self) -> Optional[HierarchyEstimate]:
        """The inferred hierarchy (sweep runs only)."""
        return self.artifacts.get("hierarchy")

    def summary(self) -> str:
        """One-line human-readable summary of the record."""
        spec = self.experiment
        head = f"{self.kind}"
        if spec.get("configs"):
            head += f" on {','.join(spec['configs'])}"
        if spec.get("workload"):
            head += f" workload={spec['workload']}"
        if self.kind == "dynamic":
            return (f"{head}: {self.total_cycles} cycles over "
                    f"{len(self.launches)} launch(es)")
        if self.kind == "scenario":
            kernels = "+".join(launch.get("kernel", "?")
                               for launch in self.launches)
            return (f"{head}: {kernels} in {self.total_cycles} "
                    f"wall cycles ({len(self.launches)} concurrent "
                    f"launch(es))")
        if self.kind == "sweep":
            levels = self.payload.get("hierarchy", {}).get("levels", [])
            return f"{head}: {len(levels)} hierarchy level(s) detected"
        generations = self.payload.get("generations", [])
        return f"{head}: {len(generations)} generation(s) measured"


@dataclass
class RunSet(Codec):
    """An ordered collection of :class:`RunRecord` with JSON persistence."""

    records: List[RunRecord] = field(default_factory=list)

    def append(self, record: RunRecord) -> None:
        """Add one record to the set."""
        self.records.append(record)

    @classmethod
    def from_indexed(cls, indexed: Iterable[Tuple[int, RunRecord]]
                     ) -> "RunSet":
        """Assemble a set from ``(index, record)`` pairs in index order.

        This is the deterministic-merge primitive behind parallel
        execution: results stream back from workers in completion order,
        and reassembling them by their submission index makes the merged
        set independent of worker count and scheduling.  Duplicate or
        missing indices indicate a broken producer and raise.
        """
        pairs = sorted(indexed, key=lambda pair: pair[0])
        indices = [index for index, _record in pairs]
        if indices != list(range(len(pairs))):
            raise ExperimentError(
                f"cannot assemble run set: expected indices "
                f"0..{len(pairs) - 1}, got {indices}"
            )
        return cls(records=[record for _index, record in pairs])

    @classmethod
    def merge(cls, *run_sets: "RunSet") -> "RunSet":
        """Concatenate several run sets into one (records in given order)."""
        merged: List[RunRecord] = []
        for run_set in run_sets:
            merged.extend(run_set.records)
        return cls(records=merged)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> RunRecord:
        return self.records[index]

    def filter(self, **spec_fields: Any) -> "RunSet":
        """Records whose experiment spec matches all given fields, e.g.
        ``runs.filter(kind="dynamic", workload="bfs")``."""
        selected = []
        for record in self.records:
            spec = dict(record.experiment)
            spec["kind"] = record.kind
            if all(spec.get(key) == value
                   for key, value in spec_fields.items()):
                selected.append(record)
        return RunSet(records=selected)


# ----------------------------------------------------------------------
# Payload deserializers: stored record dicts -> rich analysis objects
# ----------------------------------------------------------------------
def rehydrate_artifacts(record: RunRecord) -> RunRecord:
    """Rebuild a record's analysis artifacts from its JSON payload.

    Records served from a persistent result store carry only plain data;
    this rebuilds the printable analysis objects (``table``, ``surface``
    + ``hierarchy``, ``breakdown`` + ``exposure``) so store hits render
    identically to fresh runs in the CLI.  The rebuilt objects are
    *print-faithful*, not byte-faithful: fields the payload deliberately
    does not serialize (per-measurement cycle counts, per-load exposure
    pairs, empty histogram buckets) come back zeroed or empty, and none
    of the formatters consult them.  A payload from a foreign or older
    producer that lacks the expected fields leaves the artifacts empty
    rather than failing the run.  Live simulator state (``gpu``,
    ``workload``, ``results``) is gone for good — it never serializes.
    """
    if record.artifacts:
        return record
    payload = record.payload
    artifacts: Dict[str, Any] = {}
    try:
        if record.kind == "static":
            artifacts["table"] = TableIResult(generations=[
                GenerationLatencies(
                    config_name=generation["config"],
                    label=generation["label"],
                    measured=dict(generation["measured"]),
                    paper=dict(generation["paper"]),
                )
                for generation in payload["generations"]
            ])
        elif record.kind == "sweep":
            artifacts["surface"] = LatencySurface(
                config_name=payload["config"],
                space=payload["space"],
                measurements=[
                    ChaseMeasurement(
                        config_name=payload["config"],
                        space=payload["space"],
                        footprint_bytes=m["footprint_bytes"],
                        stride_bytes=m["stride_bytes"],
                        measured_accesses=0,
                        cycles_per_access=m["cycles_per_access"],
                        baseline_cycles=0,
                        measured_cycles=0,
                    )
                    for m in payload["measurements"]
                ],
            )
            artifacts["hierarchy"] = HierarchyEstimate(
                stride_bytes=payload["hierarchy"]["stride_bytes"],
                levels=[
                    HierarchyLevel(
                        index=level["index"],
                        latency=level["latency"],
                        min_footprint=level["min_footprint"],
                        max_footprint=level["max_footprint"],
                    )
                    for level in payload["hierarchy"]["levels"]
                ],
            )
        elif record.kind == "dynamic":
            breakdown = payload["breakdown"]
            artifacts["breakdown"] = BreakdownResult(
                buckets=[
                    LatencyBucket(
                        lower=bucket["lower"],
                        upper=bucket["upper"],
                        count=bucket["count"],
                        stage_cycles={
                            **{stage: 0 for stage in Stage},
                            **{Stage(name): cycles for name, cycles
                               in bucket["stage_cycles"].items()},
                        },
                    )
                    for bucket in breakdown["buckets"]
                ],
                total_requests=breakdown["total_requests"],
                min_latency=breakdown["min_latency"],
                max_latency=breakdown["max_latency"],
            )
            exposure = payload["exposure"]
            artifacts["exposure"] = ExposureResult(
                buckets=[
                    ExposureBucket(
                        lower=bucket["lower"],
                        upper=bucket["upper"],
                        count=bucket["count"],
                        exposed_cycles=bucket["exposed_cycles"],
                        hidden_cycles=bucket["hidden_cycles"],
                    )
                    for bucket in exposure["buckets"]
                ],
                total_loads=exposure["total_loads"],
                min_latency=exposure["min_latency"],
                max_latency=exposure["max_latency"],
                per_load=[],
            )
    except (KeyError, TypeError, ValueError):
        return record
    record.artifacts = artifacts
    return record
