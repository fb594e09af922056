"""The one serialisation codec (:mod:`repro.utils.codec`).

Every spec and result class encodes through the same dataclass codec.
The goldens pin the canonical JSON of one fixture instance per class,
and the ``spec_hash`` of three specs, as the hand-written serialisers
before the codec produced them: a codec change that moves one byte
(key order, separators, escaping, how a tuple or ``None`` encodes)
fails here.  The fuzz feeds arbitrary JSON to the decoders, which must
fail only with a :class:`~repro.utils.errors.ReproError`.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import Experiment, RunRecord, RunSet
from repro.sensitivity import (
    AtlasResult,
    AtlasRow,
    LatencyToleranceAtlas,
    SensitivityCurve,
    SensitivityPoint,
    SensitivityResult,
    SensitivityStudy,
    ToleranceMetrics,
    Transform,
    TransformChain,
)
from repro.store import StoreKey
from repro.utils.errors import ReproError
from repro.workloads.synthetic import MicrobenchSpec

#: ``SMALL_SPEC`` of tests/test_backends.py.
DYNAMIC = Experiment.dynamic("gf100", "vecadd", n=64, block_dim=64)
#: The sparse scenario of tests/test_streams.py.
SCENARIO = Experiment.scenario("gf106", [
    {"workload": "vecadd"},
    {"workload": "stencil", "stream": 1},
])
#: The default spec pinned in tests/test_synthetic.py.
MICROBENCH = MicrobenchSpec()

RECORD = RunRecord(
    experiment=DYNAMIC.to_dict(),
    kind="dynamic",
    total_cycles=1234,
    launches=[{"kernel": "vecadd", "cycles": 1234, "start_cycle": 0,
               "end_cycle": 1234, "instructions": 4096, "ipc": 4096 / 1234,
               "stats": {"l1_hits": 12, "dram_reads": 40}}],
    payload={"breakdown": {"total_requests": 40, "min_latency": None,
                           "stage_fractions": {"dram": 0.1 + 0.2}},
             "exposure": {"overall_exposed_fraction": 0.25}},
)
POINTS = (
    SensitivityPoint(scale=1.0, config="gf106", transform="",
                     injected_latency=0, cycles=1000,
                     exposed_fraction=0.125, total_loads=64),
    SensitivityPoint(scale=2.0, config="gf106@scale_dram_latency:2.0",
                     transform="scale_dram_latency:2.0",
                     injected_latency=300, cycles=1450,
                     exposed_fraction=1 / 3),
)
METRICS = ToleranceMetrics(
    baseline_cycles=1000,
    slope_cycles_per_scale=450.0,
    slope_cycles_per_injected=1.5,
    half_tolerance_injected=None,
    tolerance_curve=((1.0, 1.0), (2.0, 0.25)),
    exposed_fraction_curve=((1.0, 0.125), (2.0, 1 / 3)),
)
CURVE = SensitivityCurve(transform=TransformChain.parse("scale_dram_latency"),
                         points=POINTS, metrics=METRICS)
STUDY = SensitivityStudy(
    config="gf106", workload="vecadd",
    transforms=("scale_dram_latency", "scale_max_warps:0.25"),
    scales=(1, 2.0, 4.0), params={"n": 256}, label="golden µs",
    neighbor={"workload": "stencil", "params": {"n": 512}},
)
ATLAS = LatencyToleranceAtlas(
    config="gf106", axis="ilp", values=(1, 2.5),
    transform="scale_dram_latency:1+add_interconnect_hops",
    scales=(1.0, 2.0), params={"iters": 8},
)

#: One instance of every class that serialises through the codec.
FIXTURES = {
    "Experiment": SCENARIO,
    "MicrobenchSpec": MicrobenchSpec(ilp=4, mlp=1, divergence=0.25, ctas=2),
    "RunRecord": RECORD,
    "RunSet": RunSet([RECORD, RunRecord(
        experiment=Experiment.static(["gt200"], accesses=48).to_dict(),
        kind="static", payload={"levels": ["L1", "L2", "DRAM"]})]),
    "SensitivityPoint": POINTS[1],
    "ToleranceMetrics": METRICS,
    "SensitivityCurve": CURVE,
    "SensitivityStudy": STUDY,
    "SensitivityResult": SensitivityResult(
        study=STUDY.to_dict(), base_nominal_latency=500, curves=[CURVE]),
    "LatencyToleranceAtlas": ATLAS,
    "AtlasRow": AtlasRow(value=2, curve=CURVE),
    "AtlasResult": AtlasResult(
        atlas=ATLAS.to_dict(), base_nominal_latency=500,
        rows=[AtlasRow(value=1, curve=CURVE),
              AtlasRow(value=2.5, curve=CURVE)]),
    "Transform": Transform("add_interconnect_hops", 3),
    "TransformChain": TransformChain.parse(
        "scale_dram_latency:2+scale_mshr_count:0.5"),
    "StoreKey": StoreKey("0123456789abcdef", "fedcba9876543210", "c0de"),
}

#: Canonical JSON of each fixture, as written before the codec existed.
GOLDEN_JSON = {
    "AtlasResult": (
        '{"atlas":{"axis":"ilp","config":"gf106","label":null,"neighbor":'
        'null,"params":{"iters":8},"scales":[1.0,2.0],"transform":[{"name'
        '":"scale_dram_latency","value":1.0},{"name":"add_interconnect_ho'
        'ps","value":1.0}],"values":[1,2.5],"workload":"microbench"},"bas'
        'e_nominal_latency":500,"rows":[{"curve":{"metrics":{"baseline_cy'
        'cles":1000,"exposed_fraction_curve":[[1.0,0.125],[2.0,0.33333333'
        '33333333]],"half_tolerance_injected":null,"half_tolerance_scale"'
        ':null,"slope_cycles_per_injected":1.5,"slope_cycles_per_scale":4'
        '50.0,"tolerance_curve":[[1.0,1.0],[2.0,0.25]]},"points":[{"confi'
        'g":"gf106","cycles":1000,"exposed_fraction":0.125,"injected_late'
        'ncy":0,"scale":1.0,"total_loads":64,"transform":""},{"config":"g'
        'f106@scale_dram_latency:2.0","cycles":1450,"exposed_fraction":0.'
        '3333333333333333,"injected_latency":300,"scale":2.0,"total_loads'
        '":0,"transform":"scale_dram_latency:2.0"}],"transform":[{"name":'
        '"scale_dram_latency","value":1.0}]},"value":1},{"curve":{"metric'
        's":{"baseline_cycles":1000,"exposed_fraction_curve":[[1.0,0.125]'
        ',[2.0,0.3333333333333333]],"half_tolerance_injected":null,"half_'
        'tolerance_scale":null,"slope_cycles_per_injected":1.5,"slope_cyc'
        'les_per_scale":450.0,"tolerance_curve":[[1.0,1.0],[2.0,0.25]]},"'
        'points":[{"config":"gf106","cycles":1000,"exposed_fraction":0.12'
        '5,"injected_latency":0,"scale":1.0,"total_loads":64,"transform":'
        '""},{"config":"gf106@scale_dram_latency:2.0","cycles":1450,"expo'
        'sed_fraction":0.3333333333333333,"injected_latency":300,"scale":'
        '2.0,"total_loads":0,"transform":"scale_dram_latency:2.0"}],"tran'
        'sform":[{"name":"scale_dram_latency","value":1.0}]},"value":2.5}'
        ']}'),
    "AtlasRow": (
        '{"curve":{"metrics":{"baseline_cycles":1000,"exposed_fraction_cu'
        'rve":[[1.0,0.125],[2.0,0.3333333333333333]],"half_tolerance_inje'
        'cted":null,"half_tolerance_scale":null,"slope_cycles_per_injecte'
        'd":1.5,"slope_cycles_per_scale":450.0,"tolerance_curve":[[1.0,1.'
        '0],[2.0,0.25]]},"points":[{"config":"gf106","cycles":1000,"expos'
        'ed_fraction":0.125,"injected_latency":0,"scale":1.0,"total_loads'
        '":64,"transform":""},{"config":"gf106@scale_dram_latency:2.0","c'
        'ycles":1450,"exposed_fraction":0.3333333333333333,"injected_late'
        'ncy":300,"scale":2.0,"total_loads":0,"transform":"scale_dram_lat'
        'ency:2.0"}],"transform":[{"name":"scale_dram_latency","value":1.'
        '0}]},"value":2}'),
    "Experiment": (
        '{"configs":["gf106"],"kind":"scenario","label":null,"params":{"k'
        'ernels":[{"params":{},"sm_mask":null,"stream":0,"workload":"veca'
        'dd"},{"params":{},"sm_mask":null,"stream":1,"workload":"stencil"'
        '}]},"workload":null}'),
    "LatencyToleranceAtlas": (
        '{"axis":"ilp","config":"gf106","label":null,"neighbor":null,"par'
        'ams":{"iters":8},"scales":[1.0,2.0],"transform":[{"name":"scale_'
        'dram_latency","value":1.0},{"name":"add_interconnect_hops","valu'
        'e":1.0}],"values":[1,2.5],"workload":"microbench"}'),
    "MicrobenchSpec": (
        '{"arith_per_load":2,"ctas":2,"divergence":0.25,"footprint":16384'
        ',"ilp":4,"iters":32,"mlp":1,"stride":128,"warps_per_cta":2}'),
    "RunRecord": (
        '{"experiment":{"configs":["gf100"],"kind":"dynamic","label":null'
        ',"params":{"block_dim":64,"n":64},"workload":"vecadd"},"kind":"d'
        'ynamic","launches":[{"cycles":1234,"end_cycle":1234,"instruction'
        's":4096,"ipc":3.319286871961102,"kernel":"vecadd","start_cycle":'
        '0,"stats":{"dram_reads":40,"l1_hits":12}}],"payload":{"breakdown'
        '":{"min_latency":null,"stage_fractions":{"dram":0.30000000000000'
        '004},"total_requests":40},"exposure":{"overall_exposed_fraction"'
        ':0.25}},"total_cycles":1234}'),
    "RunSet": (
        '{"records":[{"experiment":{"configs":["gf100"],"kind":"dynamic",'
        '"label":null,"params":{"block_dim":64,"n":64},"workload":"vecadd'
        '"},"kind":"dynamic","launches":[{"cycles":1234,"end_cycle":1234,'
        '"instructions":4096,"ipc":3.319286871961102,"kernel":"vecadd","s'
        'tart_cycle":0,"stats":{"dram_reads":40,"l1_hits":12}}],"payload"'
        ':{"breakdown":{"min_latency":null,"stage_fractions":{"dram":0.30'
        '000000000000004},"total_requests":40},"exposure":{"overall_expos'
        'ed_fraction":0.25}},"total_cycles":1234},{"experiment":{"configs'
        '":["gt200"],"kind":"static","label":null,"params":{"accesses":48'
        '},"workload":null},"kind":"static","launches":[],"payload":{"lev'
        'els":["L1","L2","DRAM"]},"total_cycles":0}]}'),
    "SensitivityCurve": (
        '{"metrics":{"baseline_cycles":1000,"exposed_fraction_curve":[[1.'
        '0,0.125],[2.0,0.3333333333333333]],"half_tolerance_injected":nul'
        'l,"half_tolerance_scale":null,"slope_cycles_per_injected":1.5,"s'
        'lope_cycles_per_scale":450.0,"tolerance_curve":[[1.0,1.0],[2.0,0'
        '.25]]},"points":[{"config":"gf106","cycles":1000,"exposed_fracti'
        'on":0.125,"injected_latency":0,"scale":1.0,"total_loads":64,"tra'
        'nsform":""},{"config":"gf106@scale_dram_latency:2.0","cycles":14'
        '50,"exposed_fraction":0.3333333333333333,"injected_latency":300,'
        '"scale":2.0,"total_loads":0,"transform":"scale_dram_latency:2.0"'
        '}],"transform":[{"name":"scale_dram_latency","value":1.0}]}'),
    "SensitivityPoint": (
        '{"config":"gf106@scale_dram_latency:2.0","cycles":1450,"exposed_'
        'fraction":0.3333333333333333,"injected_latency":300,"scale":2.0,'
        '"total_loads":0,"transform":"scale_dram_latency:2.0"}'),
    "SensitivityResult": (
        '{"base_nominal_latency":500,"curves":[{"metrics":{"baseline_cycl'
        'es":1000,"exposed_fraction_curve":[[1.0,0.125],[2.0,0.3333333333'
        '333333]],"half_tolerance_injected":null,"half_tolerance_scale":n'
        'ull,"slope_cycles_per_injected":1.5,"slope_cycles_per_scale":450'
        '.0,"tolerance_curve":[[1.0,1.0],[2.0,0.25]]},"points":[{"config"'
        ':"gf106","cycles":1000,"exposed_fraction":0.125,"injected_latenc'
        'y":0,"scale":1.0,"total_loads":64,"transform":""},{"config":"gf1'
        '06@scale_dram_latency:2.0","cycles":1450,"exposed_fraction":0.33'
        '33333333333333,"injected_latency":300,"scale":2.0,"total_loads":'
        '0,"transform":"scale_dram_latency:2.0"}],"transform":[{"name":"s'
        'cale_dram_latency","value":1.0}]}],"study":{"config":"gf106","la'
        'bel":"golden \\u00b5s","neighbor":{"params":{"n":512},"sm_mask":n'
        'ull,"stream":1,"workload":"stencil"},"params":{"n":256},"scales"'
        ':[1.0,2.0,4.0],"transforms":[[{"name":"scale_dram_latency","valu'
        'e":1.0}],[{"name":"scale_max_warps","value":0.25}]],"workload":"'
        'vecadd"}}'),
    "SensitivityStudy": (
        '{"config":"gf106","label":"golden \\u00b5s","neighbor":{"params":'
        '{"n":512},"sm_mask":null,"stream":1,"workload":"stencil"},"param'
        's":{"n":256},"scales":[1.0,2.0,4.0],"transforms":[[{"name":"scal'
        'e_dram_latency","value":1.0}],[{"name":"scale_max_warps","value"'
        ':0.25}]],"workload":"vecadd"}'),
    "StoreKey": (
        '{"code_version":"c0de","config_hash":"fedcba9876543210","spec_ha'
        'sh":"0123456789abcdef"}'),
    "ToleranceMetrics": (
        '{"baseline_cycles":1000,"exposed_fraction_curve":[[1.0,0.125],[2'
        '.0,0.3333333333333333]],"half_tolerance_injected":null,"half_tol'
        'erance_scale":null,"slope_cycles_per_injected":1.5,"slope_cycles'
        '_per_scale":450.0,"tolerance_curve":[[1.0,1.0],[2.0,0.25]]}'),
    "Transform": (
        '{"name":"add_interconnect_hops","value":3.0}'),
    "TransformChain": (
        '[{"name":"scale_dram_latency","value":2.0},{"name":"scale_mshr_c'
        'ount","value":0.5}]'),
}

#: ``spec_hash`` of the three fixture specs, as computed before the codec.
GOLDEN_SPEC_HASHES = {
    "dynamic": "8807771b7fd02c14",
    "scenario": "862af02450477091",
    "microbench": "567b855a7d940188",
}


class TestByteGoldens:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_canonical_json_is_pinned_and_round_trips(self, name):
        fixture = FIXTURES[name]
        text = fixture.to_json()
        assert text == GOLDEN_JSON[name]
        rebuilt = type(fixture).from_json(text)
        assert rebuilt == fixture
        assert rebuilt.to_json() == text
        assert json.loads(fixture.to_json(indent=2)) == json.loads(text)

    def test_spec_hashes_are_pinned(self):
        hashes = {"dynamic": DYNAMIC.spec_hash(),
                  "scenario": SCENARIO.spec_hash(),
                  "microbench": MICROBENCH.spec_hash()}
        assert hashes == GOLDEN_SPEC_HASHES

    def test_transient_fields_are_not_serialised(self):
        live = RunRecord(experiment=RECORD.experiment, kind="dynamic",
                         artifacts={"gpu": object()})
        assert "artifacts" not in live.to_dict()
        with pytest.raises(ReproError, match="unknown RunRecord field"):
            RunRecord.from_dict({**live.to_dict(), "artifacts": {}})


#: Arbitrary JSON values.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12,
)


def _mutated(data, draw):
    """``data`` with one value at a random depth replaced by arbitrary
    JSON, or one key dropped."""
    keys = (sorted(data) if isinstance(data, dict)
            else range(len(data)) if isinstance(data, list) else [])
    action = draw(st.sampled_from(["replace", "descend", "drop"]))
    if not keys or action == "replace":
        return draw(JSON_VALUES)
    key = draw(st.sampled_from(list(keys)))
    copy = data.copy()
    if action == "drop" and isinstance(data, dict):
        del copy[key]
    else:
        copy[key] = _mutated(data[key], draw)
    return copy


@pytest.mark.parametrize("cls", [
    Experiment, MicrobenchSpec, SensitivityStudy, LatencyToleranceAtlas,
    RunSet, AtlasResult,
], ids=lambda cls: cls.__name__)
@settings(deadline=None)
@given(data=st.data())
def test_hostile_input_fails_only_with_repro_errors(cls, data):
    """Arbitrary JSON, or a valid form with one part replaced, either
    decodes or raises a ReproError: never a bare TypeError or
    ValueError."""
    if data.draw(st.booleans(), label="mutate a valid form"):
        value = _mutated(FIXTURES[cls.__name__].to_dict(), data.draw)
    else:
        value = data.draw(JSON_VALUES)
    for decode in (cls.from_dict,
                   lambda value: cls.from_json(json.dumps(value))):
        try:
            decode(value)
        except ReproError:
            pass


@pytest.mark.parametrize("cls,text", [
    (AtlasResult, "[]"),
    (RunSet, '{"records":[1]}'),
    (LatencyToleranceAtlas, '{"config":"gf100","axis":"ilp","values":5}'),
    # Past float range: the class's own float() conversion overflows.
    (LatencyToleranceAtlas,
     '{"config":"gf100","axis":"ilp","values":[1],"scales":[%d]}'
     % (1 << 1100)),
    (MicrobenchSpec, '{"divergence":%d}' % (1 << 1100)),
    (Experiment, '{"kind":"dynamic","configs":"gf100","workload":"bfs"}'),
    (Experiment, "[" * 100_000),
], ids=["atlas-result-list", "record-not-object", "atlas-values-scalar",
        "atlas-scale-overflow", "divergence-overflow", "configs-string",
        "deep-nesting"])
def test_known_hostile_input_is_a_repro_error(cls, text):
    with pytest.raises(ReproError):
        cls.from_json(text)
