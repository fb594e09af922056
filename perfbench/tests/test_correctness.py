import copy
import json
from pathlib import Path

from perfbench.workloads import WORKLOADS, BfsDram8, Iteration, Workload, digest

RECORD = {
    "kind": "dynamic",
    "total_cycles": 1234,
    "launches": [{"cycles": 1234, "instructions": 56,
                  "stats": {"gf100.memory.gf100.l2.hits": 7}}],
    "payload": {"verified": True},
}


def test_digest_is_canonical():
    reordered = json.loads(json.dumps(RECORD, sort_keys=True))
    assert digest(RECORD) == digest(dict(reversed(list(reordered.items()))))


def test_perturbed_result_counts_as_failed():
    reference = digest(RECORD)
    clean = Iteration(attempted=1)
    Workload.check(clean, digest(RECORD), 1, reference, "cell")
    assert clean.failed == 0 and clean.digest == reference

    perturbed = copy.deepcopy(RECORD)
    perturbed["launches"][0]["stats"]["gf100.memory.gf100.l2.hits"] += 1
    result = Iteration(attempted=1)
    Workload.check(result, digest(perturbed), 1, reference, "cell")
    assert result.failed == 1
    assert "cell: digest" in result.problems[0]


def test_every_workload_and_graph_has_a_reference_digest():
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "reference.json").read_text())
    assert set(reference) == set(WORKLOADS)
    assert set(reference[BfsDram8.name]) == {
        str(seed) for seed in range(BfsDram8.GRAPHS)}
    for name, cls in WORKLOADS.items():
        assert cls(123, "unused").reference_key() in reference[name]
