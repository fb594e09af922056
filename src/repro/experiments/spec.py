"""Declarative experiment specifications.

An :class:`Experiment` names everything needed to reproduce one of the
paper's analyses — which kind of analysis, on which GPU configuration(s),
over which workload, with which parameters — as plain data that
round-trips through JSON.  Three kinds map onto the paper, one extends
it:

``static``
    Table I: pointer-chase measurement of the per-generation L1/L2/DRAM
    load latencies.  ``configs`` lists the generations (defaults to the
    paper's four).
``sweep``
    Section II's footprint/stride sweep on a single configuration plus the
    Wong-style plateau detection that infers the memory hierarchy.
``dynamic``
    Figures 1 and 2: run a workload on a configuration, then compute the
    per-stage latency breakdown and the exposed/hidden split.  Workload
    constructor parameters ride along in ``params`` and are validated
    against the workload's signature.
``scenario``
    Concurrent multi-kernel co-location (beyond the paper's isolated
    runs): several workloads submitted to one GPU on streams, sharing
    all SMs or pinned to disjoint ``sm_mask`` partitions, with
    per-kernel stat attribution.  ``params["kernels"]`` is the list of
    kernel entries — each a dict with ``workload`` (registered name)
    and optional ``params``/``stream``/``sm_mask``.

:meth:`Experiment.grid` expands lists of configs/workloads/parameter
values into the cartesian product of experiments — the declarative form
of an ablation study.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.utils.codec import Codec
from repro.utils.errors import ExperimentError

#: The supported experiment kinds.
EXPERIMENT_KINDS: Tuple[str, ...] = ("static", "sweep", "dynamic",
                                     "scenario")

#: Session-level parameters accepted by each kind (name -> (type, default)).
#: ``dynamic`` additionally accepts the chosen workload's constructor
#: parameters, which are validated separately against its signature;
#: ``scenario``'s ``kernels`` list is validated structurally by
#: :func:`normalize_scenario_kernels`.
KIND_PARAMS: Dict[str, Dict[str, Tuple[type, Any]]] = {
    "static": {
        "accesses": (int, 256),
        "stride": (int, 128),
    },
    "sweep": {
        "accesses": (int, 192),
        "stride": (int, 128),
        "space": (str, "global"),
        "footprints": (list, None),
    },
    "dynamic": {
        "buckets": (int, 24),
        "verify": (bool, True),
    },
    "scenario": {
        "kernels": (list, None),
        "verify": (bool, True),
    },
}

#: Keys a scenario kernel entry may carry.
SCENARIO_KERNEL_KEYS = ("workload", "params", "stream", "sm_mask")


def normalize_scenario_kernels(kernels: Any) -> List[Dict[str, Any]]:
    """Validate and canonicalize a scenario's ``kernels`` list.

    Each entry must be a mapping with a ``workload`` name and optional
    ``params`` (workload constructor parameters), ``stream``
    (non-negative int, default 0), and ``sm_mask`` (list of SM indices
    or ``None`` for all SMs).  Entries come back in a canonical shape —
    every key present, ``sm_mask`` sorted and deduplicated — so equal
    scenarios serialize to equal canonical JSON (and share a
    ``spec_hash``) regardless of how sparsely they were written.
    """
    if not isinstance(kernels, (list, tuple)) or not kernels:
        raise ExperimentError(
            "'scenario' experiments need a non-empty 'kernels' list"
        )
    normalized: List[Dict[str, Any]] = []
    for position, entry in enumerate(kernels):
        if not isinstance(entry, Mapping):
            raise ExperimentError(
                f"scenario kernel #{position} must be a mapping with a "
                f"'workload' key, got {entry!r}"
            )
        unknown = set(entry) - set(SCENARIO_KERNEL_KEYS)
        if unknown:
            raise ExperimentError(
                f"scenario kernel #{position} has unknown fields "
                f"{sorted(unknown)}; valid fields: "
                f"{list(SCENARIO_KERNEL_KEYS)}"
            )
        workload = entry.get("workload")
        if not workload or not isinstance(workload, str):
            raise ExperimentError(
                f"scenario kernel #{position} needs a 'workload' name"
            )
        params = entry.get("params") or {}
        if not isinstance(params, Mapping):
            raise ExperimentError(
                f"scenario kernel #{position}: 'params' must be a "
                f"mapping, got {params!r}"
            )
        stream = _coerce(f"kernel #{position} stream",
                         entry.get("stream", 0), int)
        if stream < 0:
            raise ExperimentError(
                f"scenario kernel #{position}: stream must be >= 0"
            )
        sm_mask = entry.get("sm_mask")
        if sm_mask is not None:
            if not isinstance(sm_mask, (list, tuple)):
                raise ExperimentError(
                    f"scenario kernel #{position}: 'sm_mask' must be a "
                    f"list of SM indices or null"
                )
            sm_mask = sorted({
                _coerce(f"kernel #{position} sm_mask entry", sm_id, int)
                for sm_id in sm_mask
            })
            if not sm_mask:
                raise ExperimentError(
                    f"scenario kernel #{position}: 'sm_mask' must name "
                    f"at least one SM"
                )
        normalized.append({
            "workload": workload,
            "params": dict(params),
            "stream": stream,
            "sm_mask": sm_mask,
        })
    return normalized


def coerce_scenario_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate and coerce a scenario experiment's parameter dict."""
    spec = KIND_PARAMS["scenario"]
    unknown = set(params) - set(spec)
    if unknown:
        raise ExperimentError(
            f"unknown parameter(s) {sorted(unknown)} for 'scenario' "
            f"experiments; valid parameters: {sorted(spec)}"
        )
    coerced: Dict[str, Any] = {
        "kernels": normalize_scenario_kernels(params.get("kernels")),
    }
    if "verify" in params:
        coerced["verify"] = _coerce("verify", params["verify"], bool)
    return coerced


def parse_param_token(token: str) -> Tuple[str, Any]:
    """Parse one CLI ``key=value`` token into a (key, typed value) pair.

    The value is coerced through JSON (so ``2048`` becomes an int, ``0.5``
    a float, ``true`` a bool, ``[1,2]`` a list) and falls back to the raw
    string for anything unquoted, e.g. ``--param space=global``.
    """
    if "=" not in token:
        raise ExperimentError(
            f"malformed parameter {token!r}; expected key=value"
        )
    key, _, raw = token.partition("=")
    key = key.strip()
    if not key:
        raise ExperimentError(
            f"malformed parameter {token!r}; expected key=value"
        )
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return key, value


def parse_param_tokens(tokens: Iterable[str]) -> Dict[str, Any]:
    """Parse a list of CLI ``key=value`` tokens into a params dict."""
    return dict(parse_param_token(token) for token in tokens)


def parse_scenario_kernel_token(token: str) -> Dict[str, Any]:
    """Parse one CLI scenario kernel token into a kernel entry dict.

    The token format is ``workload[:key=value,...]``.  Two keys are
    special — ``stream`` (integer stream id) and ``sm_mask`` (SM indices
    joined with ``+``, e.g. ``sm_mask=0+1``) — and everything else is a
    workload parameter, coerced the same way as ``--param`` tokens::

        vecadd:n=2048
        stencil:n=1024,stream=1,sm_mask=2+3

    The returned entry is in the shape :func:`normalize_scenario_kernels`
    expects (it still runs afterwards, so validation is shared with the
    JSON spec path).
    """
    name, _, rest = token.partition(":")
    name = name.strip()
    if not name:
        raise ExperimentError(
            f"malformed scenario kernel {token!r}; expected "
            f"workload[:key=value,...]"
        )
    entry: Dict[str, Any] = {"workload": name}
    params: Dict[str, Any] = {}
    for part in filter(None, (p.strip() for p in rest.split(","))):
        key, value = parse_param_token(part)
        if key == "stream":
            entry["stream"] = value
        elif key == "sm_mask":
            if isinstance(value, str):
                try:
                    value = [int(p) for p in value.split("+") if p.strip()]
                except ValueError:
                    raise ExperimentError(
                        f"malformed sm_mask in scenario kernel {token!r}; "
                        f"expected '+'-joined SM indices, e.g. sm_mask=0+1"
                    ) from None
            elif isinstance(value, int):
                value = [value]
            entry["sm_mask"] = value
        else:
            params[key] = value
    if params:
        entry["params"] = params
    return entry


def _coerce(name: str, value: Any, target: type) -> Any:
    """Coerce ``value`` toward ``target`` type, erroring on nonsense."""
    if target is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        if isinstance(value, int):
            return bool(value)
    elif target is int:
        if isinstance(value, bool):
            raise ExperimentError(f"parameter {name!r} expects an integer")
        if isinstance(value, int):
            return value
        if isinstance(value, (float, str)):
            try:
                as_float = float(value)
            except ValueError:
                raise ExperimentError(
                    f"parameter {name!r} expects an integer, got {value!r}"
                ) from None
            if as_float.is_integer():
                return int(as_float)
    elif target is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
    elif target is list:
        if value is None or isinstance(value, list):
            return value
        if isinstance(value, (tuple, set)):
            return list(value)
        return [value]
    elif target is str:
        if isinstance(value, str):
            return value
    else:
        return value
    raise ExperimentError(
        f"parameter {name!r} expects {target.__name__}, got {value!r}"
    )


def workload_param_spec(workload_name: str) -> Dict[str, Tuple[type, Any]]:
    """Constructor parameters of a registered workload: name -> (type, default).

    The parameter type is inferred from the default value (falling back to
    no coercion for ``None`` defaults, such as BFS's optional ``graph``).
    """
    from repro.workloads import workload_class  # deferred: avoid cycle

    signature = inspect.signature(workload_class(workload_name))
    spec: Dict[str, Tuple[type, Any]] = {}
    for name, parameter in signature.parameters.items():
        if name == "self" or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
        ):
            continue
        default = (parameter.default
                   if parameter.default is not inspect.Parameter.empty
                   else None)
        target = type(default) if default is not None else object
        spec[name] = (target, default)
    return spec


def coerce_workload_params(workload_name: str,
                           params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate and coerce workload constructor parameters.

    Unknown keys raise :class:`ExperimentError` listing the valid
    parameter names; values are coerced to the type of the corresponding
    default (so CLI strings like ``"2048"`` become ints).
    """
    spec = workload_param_spec(workload_name)
    coerced: Dict[str, Any] = {}
    for name, value in params.items():
        if name not in spec:
            raise ExperimentError(
                f"unknown parameter {name!r} for workload "
                f"{workload_name!r}; valid parameters: {sorted(spec)}"
            )
        target, _default = spec[name]
        if target is object or value is None:
            coerced[name] = value
        else:
            coerced[name] = _coerce(name, value, target)
    return coerced


def split_dynamic_params(
    params: Mapping[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a dynamic experiment's params into (session, workload) dicts."""
    session_spec = KIND_PARAMS["dynamic"]
    session_params: Dict[str, Any] = {}
    workload_params: Dict[str, Any] = {}
    for name, value in params.items():
        if name in session_spec:
            target, _default = session_spec[name]
            session_params[name] = _coerce(name, value, target)
        else:
            workload_params[name] = value
    return session_params, workload_params


def coerce_kind_params(kind: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate and coerce session-level params for ``static``/``sweep``."""
    spec = KIND_PARAMS[kind]
    coerced: Dict[str, Any] = {}
    for name, value in params.items():
        if name not in spec:
            raise ExperimentError(
                f"unknown parameter {name!r} for {kind!r} experiments; "
                f"valid parameters: {sorted(spec)}"
            )
        target, _default = spec[name]
        coerced[name] = value if value is None else _coerce(name, value, target)
    return coerced


@dataclass(frozen=True)
class Experiment(Codec):
    """One declarative, JSON round-trippable experiment specification.

    Attributes
    ----------
    kind:
        ``"static"``, ``"sweep"``, ``"dynamic"``, or ``"scenario"``.
    configs:
        Registered GPU configuration names.  ``static`` accepts several
        (one Table I column each, defaulting to the paper's four);
        ``sweep``, ``dynamic``, and ``scenario`` require exactly one.
    workload:
        Registered workload name (``dynamic`` only; ``scenario``
        kernels name their workloads inside ``params["kernels"]``).
    params:
        Kind-specific parameters; for ``dynamic`` this also carries the
        workload's constructor parameters, for ``scenario`` the
        ``kernels`` list.
    label:
        Optional free-form tag carried into the :class:`RunRecord`.
    """

    kind: str
    configs: Tuple[str, ...] = ()
    workload: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ExperimentError(
                f"unknown experiment kind {self.kind!r}; "
                f"valid kinds: {list(EXPERIMENT_KINDS)}"
            )
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "params", dict(self.params))
        if (self.kind in ("sweep", "dynamic", "scenario")
                and len(self.configs) != 1):
            raise ExperimentError(
                f"{self.kind!r} experiments need exactly one config, "
                f"got {list(self.configs)}"
            )
        if self.kind == "dynamic" and not self.workload:
            raise ExperimentError("'dynamic' experiments need a workload")
        if self.kind != "dynamic" and self.workload is not None:
            raise ExperimentError(
                f"{self.kind!r} experiments take no workload"
            )
        if self.kind == "scenario":
            object.__setattr__(
                self, "params", coerce_scenario_params(self.params))
        if self.kind in ("static", "sweep"):
            # Store the coerced values so the runners see e.g. "48" as 48
            # and a scalar footprint as a one-element list.  Dynamic params
            # are coerced at run time against the workload's signature,
            # which may not be registered yet at spec-construction time.
            object.__setattr__(
                self, "params", coerce_kind_params(self.kind, self.params))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def static(cls, configs: Optional[Sequence[str]] = None,
               label: Optional[str] = None, **params: Any) -> "Experiment":
        """A Table I style static-latency experiment."""
        return cls(kind="static", configs=tuple(configs or ()),
                   params=params, label=label)

    @classmethod
    def sweep(cls, config: str, label: Optional[str] = None,
              **params: Any) -> "Experiment":
        """A footprint-sweep + hierarchy-inference experiment."""
        return cls(kind="sweep", configs=(config,), params=params,
                   label=label)

    @classmethod
    def dynamic(cls, config: str, workload: str,
                label: Optional[str] = None, **params: Any) -> "Experiment":
        """A Figure 1/2 style dynamic-analysis experiment."""
        return cls(kind="dynamic", configs=(config,), workload=workload,
                   params=params, label=label)

    @classmethod
    def scenario(cls, config: str,
                 kernels: Sequence[Mapping[str, Any]],
                 label: Optional[str] = None,
                 **params: Any) -> "Experiment":
        """A concurrent multi-kernel co-location experiment.

        ``kernels`` is a sequence of kernel entries (see
        :func:`normalize_scenario_kernels`)::

            Experiment.scenario("gf106", kernels=[
                {"workload": "vecadd", "stream": 0},
                {"workload": "stencil", "stream": 1,
                 "params": {"n": 2048}},
            ])
        """
        return cls(kind="scenario", configs=(config,),
                   params={"kernels": list(kernels), **params},
                   label=label)

    @classmethod
    def grid(
        cls,
        kind: str = "dynamic",
        configs: Sequence[str] = (),
        workloads: Sequence[Optional[str]] = (None,),
        params: Optional[Mapping[str, Any]] = None,
        label: Optional[str] = None,
    ) -> List["Experiment"]:
        """Expand configs x workloads x parameter values into experiments.

        Every value in ``params`` that is a list is treated as an axis to
        sweep; scalars are held constant.  One experiment is produced per
        point of the cartesian product — the declarative form of an
        ablation study::

            Experiment.grid(
                kind="dynamic",
                configs=["gf100", "gk104"],
                workloads=["bfs"],
                params={"num_nodes": [1024, 2048], "avg_degree": 8},
            )   # -> 4 experiments

        To hold a *list-valued* parameter constant (e.g. ``sweep``'s
        ``footprints``), nest it one level — a single-point axis::

            Experiment.grid(kind="sweep", configs=["gf106", "gk104"],
                            params={"footprints": [[4096, 65536]]})
            # -> 2 experiments, each sweeping both footprints

        For ``sweep``/``dynamic`` kinds each config in ``configs`` becomes
        its own experiment; for ``static`` too, so a static grid measures
        one generation per record.
        """
        params = dict(params or {})
        axes: List[Tuple[str, List[Any]]] = [
            (name, value) for name, value in params.items()
            if isinstance(value, list)
        ]
        constants = {name: value for name, value in params.items()
                     if not isinstance(value, list)}
        axis_names = [name for name, _ in axes]
        axis_values = [values for _, values in axes]
        experiments: List[Experiment] = []
        config_list: Sequence[Optional[str]] = list(configs) or [None]
        for config in config_list:
            for workload in workloads:
                for point in itertools.product(*axis_values) if axes else [()]:
                    combined = dict(constants)
                    combined.update(zip(axis_names, point))
                    experiments.append(cls(
                        kind=kind,
                        configs=(config,) if config is not None else (),
                        workload=workload,
                        params=combined,
                        label=label,
                    ))
        return experiments

    def cache_key(self) -> str:
        """Canonical string identity used for session result caching."""
        return self.to_json()

    def _workload_fingerprints(self) -> List[Tuple[str, str]]:
        """Content fingerprints of the referenced data-defined workloads.

        Trace-bundle workloads carry their bundle's content hash as a
        ``content_fingerprint`` class attribute; an experiment's identity
        must include it, because two byte-different bundles can share a
        registered name (e.g. a user bundle edited in place) while the
        canonical JSON spec — which only stores the name — stays equal.
        Builder workloads are code, already covered by the store's
        ``code_version``, and contribute nothing here.  Unregistered
        names also contribute nothing, so specs stay hashable before
        their workloads exist.
        """
        names = set()
        if self.workload:
            names.add(self.workload)
        if self.kind == "scenario":
            names.update(entry["workload"]
                         for entry in self.params.get("kernels", []))
        fingerprints: List[Tuple[str, str]] = []
        if names:
            from repro.workloads import (  # deferred: avoid cycle
                WORKLOAD_REGISTRY,
            )

            for name in sorted(names):
                if name not in WORKLOAD_REGISTRY:
                    continue
                fingerprint = getattr(WORKLOAD_REGISTRY.get(name),
                                      "content_fingerprint", None)
                if fingerprint:
                    fingerprints.append((name, str(fingerprint)))
        return fingerprints

    def spec_hash(self) -> str:
        """Short content hash of the canonical spec.

        Two experiments have the same hash iff their canonical JSON forms
        — plus the content fingerprints of any trace-bundle workloads
        they reference (see :meth:`_workload_fingerprints`) — are
        identical.  That makes the hash a compact, process-safe key:
        parallel workers tag the records they return with it, the parent
        session merges them into its cache without shipping the full
        spec back across the pipe, and the persistent store uses it to
        serve cached results only for byte-identical bundle content,
        independent of where on disk a bundle lives.
        """
        digest = hashlib.sha256(self.cache_key().encode("utf-8"))
        for name, fingerprint in self._workload_fingerprints():
            digest.update(f"\0{name}={fingerprint}".encode("utf-8"))
        return digest.hexdigest()[:16]

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [self.kind]
        if self.configs:
            parts.append("on " + ",".join(self.configs))
        if self.workload:
            parts.append(f"workload={self.workload}")
        if self.kind == "scenario":
            parts.append("kernels=" + "+".join(
                entry["workload"] for entry in self.params["kernels"]))
            extras = {k: v for k, v in self.params.items()
                      if k != "kernels"}
            if extras:
                parts.append(" ".join(f"{k}={v}" for k, v in
                                      sorted(extras.items())))
        elif self.params:
            parts.append(" ".join(f"{k}={v}" for k, v in
                                  sorted(self.params.items())))
        if self.label:
            parts.append(f"[{self.label}]")
        return " ".join(parts)
