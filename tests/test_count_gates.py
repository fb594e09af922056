"""Deterministic work-count gates for the simulator's speed-ups.

Each gate wraps one method with ``monkeypatch``, runs a small fixed cell
and asserts a ratio of call counts.  The counts depend only on the
simulated work, never on host speed: a gate fails on any runner when its
speed-up is disabled, and never because the runner is slow.  Wall-time
claims come from ``perfbench`` alternating parent/change pairs instead.

The two cells:

* the 8x-DRAM BFS: ``bfs`` (256 nodes, degree 6, block 64, seed 3) on
  ``gf100@scale_dram_latency:8`` — memory-bound, SMs mostly parked;
* the atlas cell: ``microbench ilp=1 iters=32`` on
  ``gf106@scale_dram_latency:8`` — latency-bound, memory mostly idle.
"""

import pytest

import repro.core.stages
import repro.core.tracker
import repro.gpu.configs
from repro.core.breakdown import breakdown_from_tracker
from repro.experiments import Experiment, ParallelExecutor, Session, parallel
from repro.gpu import GPU, get_config
from repro.memory.dram import FCFSScheduler, FRFCFSScheduler
from repro.sensitivity import parse_transform
from repro.simt.core import FastCore, StreamingMultiprocessor
from repro.simt.scoreboard import Scoreboard
from repro.store import MemoryStore, RequestBroker
from repro.utils.stats import StatCounters
from repro.workloads import create_workload

CELLS = {
    "bfs": ("gf100", "bfs", dict(num_nodes=256, avg_degree=6,
                                 block_dim=64, seed=3)),
    "atlas": ("gf106", "microbench", dict(ilp=1, iters=32)),
}


def build_cell(cell, core):
    """A fresh GPU for ``cell`` at 8x DRAM latency, and its workload."""
    config_name, workload, params = CELLS[cell]
    config = parse_transform("scale_dram_latency:8").apply(
        get_config(config_name)).replace(core_backend=core)
    return GPU(config), create_workload(workload, **params)


def run_verified(gpu, workload):
    """Run ``workload`` to completion; returns warp instructions issued."""
    results = workload.run(gpu)
    assert workload.verify(gpu)
    return sum(result.instructions for result in results)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call bumps the returned counter."""
    counter = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return counter


def sm_cycle_calls(monkeypatch, cell, core):
    """``cycle`` calls summed over every SM of one run of ``cell``."""
    gpu, workload = build_cell(cell, core)
    counters = [count_calls(monkeypatch, sm, "cycle") for sm in gpu.sms]
    run_verified(gpu, workload)
    return sum(counter[0] for counter in counters)


class TestDeviceSkipGate:
    """The gated drive loop: a parked SM is passed over instead of having
    its ``cycle`` called, as the reference loop calls it on every cycle
    it visits."""

    def test_fast_calls_sm_cycle_a_quarter_as_often_as_reference(
            self, monkeypatch):
        reference = sm_cycle_calls(monkeypatch, "bfs", "reference")
        fast = sm_cycle_calls(monkeypatch, "bfs", "fast")
        assert 4 * fast <= reference, (fast, reference)


class TestParkBeforeScanGate:
    """At a decision where nothing issued, only the SMs not parked past
    the next cycle are asked for their next event; the parked SMs'
    earliest wake stands in for theirs."""

    @pytest.mark.parametrize("cell", ["atlas", "bfs"])
    def test_asks_only_awake_sms(self, monkeypatch, cell):
        gpu, workload = build_cell(cell, "fast")
        asked = [count_calls(monkeypatch, sm, "next_event_time")
                 for sm in gpu.sms]
        # (awake SMs, next_event_time calls so far) at each decision;
        # the awake count is 0 after an issue, which asks no SM.
        decisions = []

        def deciding(device, issued):
            later = device.cycle + 1
            awake = 0 if issued else sum(
                1 for sm in device.sms
                if not (later < sm._sm_wake and not sm._reply_entries))
            decisions.append((awake, sum(count[0] for count in asked)))

        monkeypatch.setattr(GPU, "_clock_check_hook",
                            staticmethod(deciding))
        run_verified(gpu, workload)
        ends = [calls for _, calls in decisions[1:]]
        ends.append(sum(count[0] for count in asked))
        for (awake, start), end in zip(decisions, ends):
            assert end - start <= awake, (awake, end - start)
        # Parked SMs were there to be passed over.
        stops = [awake for awake, _ in decisions if awake]
        assert stops and sum(stops) < len(gpu.sms) * len(stops)


class TestOneLdstWalkGate:
    """Each SM walks its LD/ST unit at most once between body runs: the
    walk's visit and quiet horizon are both kept until the next body run,
    so a decision where nothing issued walks each SM at most once."""

    @pytest.mark.parametrize("cell", ["atlas", "bfs"])
    def test_walks_each_ldst_once_per_body_run(self, monkeypatch, cell):
        gpu, workload = build_cell(cell, "fast")
        since_body = [0] * len(gpu.sms)
        worst = [0]
        for sm in gpu.sms:
            def walking(now, _sm_id=sm.sm_id, _walk=sm.ldst.horizons):
                since_body[_sm_id] += 1
                worst[0] = max(worst[0], since_body[_sm_id])
                return _walk(now)

            def body(now, _sm_id=sm.sm_id, _cycle=sm.cycle):
                since_body[_sm_id] = 0
                return _cycle(now)

            monkeypatch.setattr(sm.ldst, "horizons", walking)
            monkeypatch.setattr(sm, "cycle", body)
        run_verified(gpu, workload)
        assert worst[0] == 1, worst[0]


class TestIdleFastForwardGate:
    """The drive loop jumps the clock over cycles in which nothing can
    happen instead of iterating through them."""

    def test_bfs_at_8x_dram_latency_skips_most_cycles(self, monkeypatch):
        gpu, workload = build_cell("bfs", "fast")
        iterations = count_calls(monkeypatch, gpu.memory_system, "cycle")
        run_verified(gpu, workload)
        assert 2 * iterations[0] <= gpu.cycle, (iterations[0], gpu.cycle)


class TestQuietJumpGate:
    """While every component is blocked, the drive loop jumps the clock to
    the earliest quiet horizon and replays the stall counters in bulk,
    instead of visiting each stalled cycle in turn."""

    @pytest.mark.parametrize("cell,factor", [("atlas", 20), ("bfs", 5)])
    def test_drive_loop_visits_few_stalled_cycles(self, monkeypatch, cell,
                                                  factor):
        gpu, workload = build_cell(cell, "fast")
        iterations = count_calls(monkeypatch, gpu.memory_system, "cycle")
        run_verified(gpu, workload)
        assert factor * iterations[0] <= gpu.cycle, (iterations[0],
                                                     gpu.cycle)


class TestMemoryWakeGate:
    """The memory system skips its body until its cached wake time, so an
    idle interconnect is not ticked on every cycle, and it walks its
    components once per body run for both its visit and its quiet
    horizon.

    Both counts are per body run or per simulated cycle, never per
    drive-loop iteration: the stall jump removes iterations, not body
    runs, so it would inflate a per-iteration ratio."""

    def test_atlas_cell_ticks_the_request_network_rarely(self, monkeypatch):
        gpu, workload = build_cell("atlas", "fast")
        ticks = count_calls(monkeypatch, gpu.memory_system.request_network,
                            "cycle")
        run_verified(gpu, workload)
        assert 100 * ticks[0] <= gpu.cycle, (ticks[0], gpu.cycle)

    @pytest.mark.parametrize("cell", ["atlas", "bfs"])
    def test_one_walk_per_body_run_or_input_refresh(self, monkeypatch,
                                                    cell):
        # Beyond the walk after each body run (one request_network.cycle
        # each), only SM input marks the visit stale, and the next
        # next_event_time walks again: at most once per cycle with input.
        gpu, workload = build_cell(cell, "fast")
        memory = gpu.memory_system
        body_runs = count_calls(monkeypatch, memory.request_network,
                                "cycle")
        walks = count_calls(monkeypatch, memory, "_refresh")
        input_cycles = set()
        try_inject, pop_response = memory.try_inject, memory.pop_response

        def injecting(sm_id, request, now):
            injected = try_inject(sm_id, request, now)
            if injected:
                input_cycles.add(now)
            return injected

        def popping(sm_id):
            response = pop_response(sm_id)
            if response is not None:
                input_cycles.add(gpu.cycle)
            return response

        monkeypatch.setattr(memory, "try_inject", injecting)
        monkeypatch.setattr(memory, "pop_response", popping)
        run_verified(gpu, workload)
        assert body_runs[0] and input_cycles
        assert walks[0] <= body_runs[0] + len(input_cycles), (
            walks[0], body_runs[0], len(input_cycles))


class TestReadySetGate:
    """The fast core parks blocked warps and re-wakes each one only when
    its blocking condition can clear, so a scoreboard hazard is checked a
    few times per issued instruction, not once per warp per cycle."""

    def check(self, monkeypatch, cell):
        gpu, workload = build_cell(cell, "fast")
        checks = count_calls(monkeypatch, Scoreboard, "has_hazard")
        issued = run_verified(gpu, workload)
        assert issued > 0 and checks[0] <= 4 * issued, (checks[0], issued)

    def test_atlas_cell_checks_hazards_per_issue(self, monkeypatch):
        self.check(monkeypatch, "atlas")

    def test_bfs_at_8x_dram_latency_checks_hazards_per_issue(
            self, monkeypatch):
        self.check(monkeypatch, "bfs")


class TestDecodeOnceGate:
    """Each instruction is decoded once: register and immediate sources
    are read through the cached decoded form, so the general per-operand
    reader sees only special registers and kernel parameters."""

    def test_atlas_cell_reads_few_operands_generally(self, monkeypatch):
        gpu, workload = build_cell("atlas", "fast")
        reads = count_calls(monkeypatch, StreamingMultiprocessor,
                            "_read_operand")
        issued = run_verified(gpu, workload)
        assert issued > 0 and 4 * reads[0] <= issued, (reads[0], issued)


class TestWorkerPoolGate:
    """A ParallelExecutor forks its workers once and reuses them for
    every ``run()`` until shut down."""

    def test_three_runs_fork_at_most_jobs_workers(self, monkeypatch):
        forks = count_calls(monkeypatch, parallel, "_Worker")
        specs = [Experiment.dynamic("gf100", "vecadd", n=n, buckets=4)
                 for n in (64, 96)]
        with ParallelExecutor(jobs=2) as executor:
            for _ in range(3):
                assert len(executor.run(specs)) == 2
        assert 1 <= forks[0] <= 2, forks[0]


class TestWarmLookupGate:
    """A warm ``repro serve`` request neither rebuilds its preset config
    nor encodes its spec twice: the session memoizes config fingerprints
    and hashes the spec once per lookup."""

    def test_warm_broker_requests_build_no_config(self, monkeypatch):
        spec = Experiment.dynamic("gf100", "vecadd", n=64, buckets=4)
        session = Session(store=MemoryStore())
        session.run(spec)
        broker = RequestBroker(session)
        try:
            assert broker.run(spec.to_dict())[1] == "cache"
            builds = count_calls(monkeypatch, repro.gpu.configs,
                                 "_build_config")
            keys = count_calls(monkeypatch, Experiment, "cache_key")
            requests = 20
            for _ in range(requests):
                assert broker.run(spec.to_dict())[1] == "cache"
        finally:
            broker.close()
        assert builds[0] == 0, builds[0]
        assert keys[0] == requests, keys[0]


class TestParkOnHazardGate:
    """A warp whose next instruction waits on the one it just issued
    leaves the ready set at issue, so the SM body does not run again
    only to find it blocked."""

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_few_body_runs_with_a_ready_warp_issue_nothing(
            self, monkeypatch, cell):
        counts = {"runs": 0, "idle": 0}
        original = FastCore.cycle

        def counting(sm, now):
            ready = any(sm._ready)
            issued = original(sm, now)
            counts["runs"] += 1
            counts["idle"] += ready and not issued
            return issued

        monkeypatch.setattr(FastCore, "cycle", counting)
        gpu, workload = build_cell(cell, "fast")
        run_verified(gpu, workload)
        assert counts["runs"] > 0
        assert 100 * counts["idle"] <= counts["runs"], counts


class TestScanCountGate:
    """A deterministic stand-in for a timing gate: at 8x DRAM latency the
    banks are often all busy, and the channel must not rescan its queue
    on each of those cycles."""

    def test_bfs_at_8x_dram_latency_scans_rarely(self, monkeypatch):
        counts = {"calls": 0, "none": 0}
        for cls in (FCFSScheduler, FRFCFSScheduler):
            def counting(self, *args, _select=cls.select, **kwargs):
                index = _select(self, *args, **kwargs)
                counts["calls"] += 1
                counts["none"] += index is None
                return index

            monkeypatch.setattr(cls, "select", counting)
        config = parse_transform("scale_dram_latency:8").apply(
            get_config("gf100")).replace(core_backend="fast")
        gpu = GPU(config)
        workload = create_workload("bfs", num_nodes=256, avg_degree=6,
                                   block_dim=64, seed=3)
        workload.run(gpu)
        assert workload.verify(gpu)
        stats = gpu.collect_stats().as_dict()
        requests = sum(value for key, value in stats.items()
                       if ".dram" in key and key.endswith(".requests"))
        busy = sum(value for key, value in stats.items()
                   if key.endswith(".all_banks_busy_cycles"))
        started = counts["calls"] - counts["none"]
        assert requests > 0 and busy > 10 * requests
        assert counts["none"] <= started
        assert counts["calls"] <= 2 * requests


class TestLdstParkGate:
    """An SM none of whose warps can move (each waits on a scoreboard or
    behind a full LD/ST unit) parks on its quiet horizon, stalled LD/ST
    unit included: its body runs again when the horizon comes, a reply
    arrives, or the request network frees the credit a refused
    miss-queue head waits for, never just to poll the unit."""

    def test_no_body_run_only_polls_a_full_ldst_unit(self, monkeypatch):
        gpu, workload = build_cell("bfs", "fast")
        memory = gpu.memory_system
        # SMs the memory body woke on a freed credit this cycle: another
        # SM may take that credit first, leaving the woken one polling.
        woken = set()
        wake_waiters = memory._wake_credit_waiters

        def waking(pid):
            before = list(memory.credit_woken)
            wake_waiters(pid)
            woken.update(sm_id for sm_id in memory.credit_woken
                         if sm_id not in before)

        monkeypatch.setattr(memory, "_wake_credit_waiters", waking)
        runs, polls = [0], [0]
        for sm in gpu.sms:
            def body(now, _sm=sm, _cycle=sm.cycle, _quiet=[None]):
                ldst = _sm.ldst
                head = ldst._miss_entries[0] if ldst._miss_entries else None
                blocked_only = (
                    not any(_sm._ready) and not _sm._barrier_ctas
                    and not (any(_sm._ldst_blocked) and ldst.can_accept())
                    and not _sm._reply_entries)
                credit = _sm.sm_id in woken or (
                    head is not None and memory.can_inject(head.address))
                woken.discard(_sm.sm_id)
                runs[0] += 1
                if (blocked_only and not credit and _quiet[0] is not None
                        and now < _quiet[0]):
                    polls[0] += 1
                issued = _cycle(now)
                # The horizon this run leaves, read without disturbing
                # the unit's record of its stalls.
                saved = ldst._stalls, ldst._refused
                _quiet[0] = StreamingMultiprocessor._horizons(_sm, now)[1]
                ldst._stalls, ldst._refused = saved
                return issued

            monkeypatch.setattr(sm, "cycle", body)
        run_verified(gpu, workload)
        assert runs[0] and polls[0] == 0, (polls[0], runs[0])


class TestPartitionWakeGate:
    """The memory body ticks a partition only when its own wake is due or
    the request network delivers to it, so on the bfs cell most body runs
    leave most partitions asleep."""

    def test_partition_ticks_at_most_half_of_body_runs(self, monkeypatch):
        gpu, workload = build_cell("bfs", "fast")
        memory = gpu.memory_system
        body_runs = count_calls(monkeypatch, memory.request_network,
                                "cycle")
        ticks = [count_calls(monkeypatch, partition, "cycle")
                 for partition in memory.partitions]
        run_verified(gpu, workload)
        total = sum(count[0] for count in ticks)
        assert total and 2 * total <= body_runs[0] * len(ticks), (
            total, body_runs[0], len(ticks))


class TestRefreshGatesBodyGate:
    """After SM input the memory system walks again for its next event,
    and that walk's quiet horizon gates its body: the stall jump is not
    refused by a gate left at the next cycle."""

    def test_quiet_horizon_matches_a_fresh_walk(self, monkeypatch):
        gpu, workload = build_cell("bfs", "fast")
        memory = gpu.memory_system
        mismatched, after_input = [], [0]
        sleep = GPU._sleep_through_stalls

        def sleeping(device, now, *args):
            fresh = max(memory._walk(now, [])[1], now + 1)
            gate = memory.quiet_horizon(now)
            if gate != fresh:
                mismatched.append((now, gate, fresh))
            return sleep(device, now, *args)

        try_inject = memory.try_inject

        def injecting(sm_id, request, now):
            injected = try_inject(sm_id, request, now)
            after_input[0] += injected
            return injected

        monkeypatch.setattr(GPU, "_sleep_through_stalls", sleeping)
        monkeypatch.setattr(memory, "try_inject", injecting)
        run_verified(gpu, workload)
        assert after_input[0] and not mismatched, mismatched[:5]


class TestColumnarBreakdownGate:
    """The Figure 1 breakdown classifies the tracker's columns in one
    array pass: no per-request Python classification."""

    def test_no_per_request_classification(self, monkeypatch):
        gpu, workload = build_cell("bfs", "fast")
        run_verified(gpu, workload)
        calls = [count_calls(monkeypatch, module, "classify_lifetime")
                 for module in (repro.core.stages, repro.core.tracker)]
        result = breakdown_from_tracker(gpu.tracker)
        assert result.total_requests > 0
        assert sum(count[0] for count in calls) == 0


class TestInternedCountersGate:
    """Per-request and per-issue counters bump pre-interned slots; the
    string-keyed ``StatCounters.add`` is left to per-CTA bookkeeping and
    to stats collection (``merge``)."""

    PER_CTA = {"ctas_launched", "ctas_retired", "barriers_released"}

    def test_no_string_keyed_add_per_request(self, monkeypatch):
        gpu, workload = build_cell("bfs", "fast")
        names = []
        merging = [0]
        add, merge = StatCounters.add, StatCounters.merge

        def adding(self, name, amount=1):
            if not merging[0]:
                names.append(name)
            return add(self, name, amount)

        def merged(self, other):
            merging[0] += 1
            try:
                return merge(self, other)
            finally:
                merging[0] -= 1

        monkeypatch.setattr(StatCounters, "add", adding)
        monkeypatch.setattr(StatCounters, "merge", merged)
        run_verified(gpu, workload)
        requests = gpu.collect_stats()["memory.memsys.requests_injected"]
        assert requests > 0
        assert set(names) <= self.PER_CTA, sorted(set(names) - self.PER_CTA)
