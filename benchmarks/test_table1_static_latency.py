"""Experiment E1 — Table I: static memory latencies across GPU generations.

Reproduces the paper's Table I: the unloaded latency of L1, L2, and DRAM
accesses on the Tesla (GT200), Fermi (GF106), Kepler (GK104), and Maxwell
(GM107) configurations, measured with the single-thread pointer-chase
microbenchmark.  The benchmark prints the table in the paper's layout
(measured value next to the paper's value) and asserts that every measured
latency lands within 10% of the paper's number and that the paper's
qualitative trends hold.
"""

import pytest

from benchmarks.conftest import save_and_print
from repro.core.static import reproduce_table_i
from repro.gpu.configs import TABLE_I_TARGETS, table_i_generations

#: Chain accesses measured per (generation, level) data point.
MEASURE_ACCESSES = 256


def test_table1_static_latencies():
    result = reproduce_table_i(measure_accesses=MEASURE_ACCESSES)
    save_and_print("table1_static_latency", result.format_table())

    for name in table_i_generations():
        row = result.row(name)
        for level, target in TABLE_I_TARGETS[name].items():
            measured = row.measured[level]
            if target is None:
                assert measured is None, (
                    f"{name}: paper reports no {level} on the global/local "
                    f"path but the simulator measured {measured}"
                )
            else:
                assert measured == pytest.approx(target, rel=0.10), (
                    f"{name} {level}: measured {measured:.1f}, paper {target}"
                )

    # The paper's headline observations:
    fermi = result.row("gf106").measured
    kepler = result.row("gk104").measured
    maxwell = result.row("gm107").measured
    tesla = result.row("gt200").measured
    # 1. Fermi introduced caches, but its DRAM latency exceeds Tesla's.
    assert fermi["dram"] > tesla["dram"]
    # 2. Kepler lowered every latency relative to Fermi.
    assert kepler["l2"] < fermi["l2"] and kepler["dram"] < fermi["dram"]
    # 3. Maxwell regressed relative to Kepler at both remaining levels.
    assert maxwell["l2"] > kepler["l2"] and maxwell["dram"] > kepler["dram"]
    # 4. Fermi's L1 hit latency exceeds a contemporary CPU's L3 (36 cycles,
    #    Haswell) — the paper's CPU-comparison remark.
    assert fermi["l1"] > 36
