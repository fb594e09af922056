"""Benchmark S1 — concurrent two-kernel scenario vs serialized launches.

The stream-based launch path lets independent kernels share the device:
while one kernel's CTAs drain through the memory system, another
kernel's CTAs occupy the SMs the first has released.  This benchmark
runs vecadd and stencil once each as ordinary single-kernel experiments
(the serialized baseline), then together as a two-stream scenario, and
asserts the scenario's wall-cycles land strictly below the serialized
sum — the whole point of concurrent residency.
"""

from benchmarks.conftest import save_and_print
from repro.analysis import comparison_table
from repro.experiments import Experiment, Session

SCENARIO_CONFIG = "gf106"
SCENARIO_KERNELS = [
    {"workload": "vecadd",
     "params": {"n": 4096, "block_dim": 64}, "stream": 0},
    {"workload": "stencil",
     "params": {"n": 4096, "block_dim": 64}, "stream": 1},
]


def test_scenario_wall_cycles_below_serialized_sum():
    session = Session(cache=False, core="fast")
    serial_records = [
        session.run(Experiment.dynamic(SCENARIO_CONFIG, kernel["workload"],
                                       **kernel["params"]))
        for kernel in SCENARIO_KERNELS
    ]
    serial_cycles = [record.total_cycles for record in serial_records]
    serialized_sum = sum(serial_cycles)

    record = session.run(Experiment.scenario(SCENARIO_CONFIG,
                                             SCENARIO_KERNELS))
    wall_cycles = record.total_cycles

    assert record.payload["verified"]
    assert len(record.launches) == len(SCENARIO_KERNELS)
    assert all(launch["overlap_cycles"] > 0 for launch in record.launches)
    assert wall_cycles < serialized_sum

    rows = [
        {
            "kernel": launch["kernel"],
            "serialized cycles": f"{alone}",
            "scenario cycles": f"{launch['cycles']}",
            "overlap cycles": f"{launch['overlap_cycles']}",
        }
        for launch, alone in zip(record.launches, serial_cycles)
    ]
    rows.append({
        "kernel": "wall clock",
        "serialized cycles": f"{serialized_sum}",
        "scenario cycles": f"{wall_cycles}",
        "overlap cycles":
            f"saved {serialized_sum - wall_cycles}",
    })
    save_and_print(
        "scenario_overlap",
        comparison_table(
            f"Two-stream scenario on {SCENARIO_CONFIG} vs the same "
            f"kernels serialized (wall cycles must shrink)",
            rows,
            ["kernel", "serialized cycles", "scenario cycles",
             "overlap cycles"],
        ),
    )
