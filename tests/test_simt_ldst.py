"""Unit tests for the LD/ST unit: coalescing, L1 behaviour, completion."""

import dataclasses

import numpy as np
import pytest

from repro.core.stages import Event
from repro.core.tracker import LatencyTracker
from repro.isa import KernelBuilder
from repro.memory.subsystem import MemorySystem
from repro.simt.ldst import LoadStoreUnit
from tests.conftest import make_fast_config


def build_harness(l1_enabled=True, cache_global=True, core=None, l1=None,
                  interconnect=None, tracking=True):
    """A LoadStoreUnit wired to a real (small) memory system.

    ``core``, ``l1`` and ``interconnect`` are field overrides applied to
    the matching parts of the small test configuration; ``tracking``
    enables the shared latency tracker.
    """
    config = make_fast_config()
    l1_config = dataclasses.replace(config.core.l1, enabled=l1_enabled,
                                    cache_global=cache_global, **(l1 or {}))
    core_config = dataclasses.replace(config.core, l1=l1_config,
                                      **(core or {}))
    icnt_config = dataclasses.replace(config.interconnect,
                                      **(interconnect or {}))
    config = config.replace(core=core_config, interconnect=icnt_config)
    tracker = LatencyTracker(enabled=tracking)
    memory_system = MemorySystem(
        num_sms=config.num_sms,
        mapping=config.mapping,
        icnt_config=config.interconnect,
        partition_config=config.partition,
        tracker=tracker,
    )
    unit = LoadStoreUnit(0, config.core, memory_system, tracker)
    return unit, memory_system, tracker, config


def make_load_instruction():
    builder = KernelBuilder("ld")
    dst = builder.reg()
    addr = builder.reg()
    builder.ld_global(dst, addr)
    return builder.build()[0]


def make_store_instruction():
    builder = KernelBuilder("st")
    addr = builder.reg()
    builder.st_global(addr, addr)
    return builder.build()[0]


class FakeWarp:
    """Minimal stand-in for a Warp (only the fields the LD/ST unit touches)."""

    def __init__(self, warp_id=0):
        self.warp_id = warp_id
        self.done = False
        self.launch_id = 0


def lane_addresses(base, count=32, stride=4):
    return np.array([base + lane * stride for lane in range(32)],
                    dtype=np.float64), np.array([lane < count for lane in range(32)])


def issue(unit, warp, instruction, addresses, mask, now):
    """Issue through ``unit`` the lanes of ``addresses`` that ``mask``
    keeps, as the SM hands them over: int64 byte addresses."""
    return unit.issue(warp, instruction, addresses[mask].astype(np.int64),
                      now)


def run_cycles(unit, memory_system, cycles, start=0):
    for cycle in range(start, start + cycles):
        memory_system.cycle(cycle)
        unit.process_writebacks(cycle)
        unit.cycle(cycle)
    return start + cycles


class TestCoalescing:
    def test_consecutive_words_coalesce_to_one_line(self):
        unit, _, _, _ = build_harness()
        addresses, mask = lane_addresses(0x1000, count=32, stride=4)
        token = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        assert token.expected == 1

    def test_strided_accesses_need_multiple_lines(self):
        unit, _, _, _ = build_harness()
        addresses, mask = lane_addresses(0x1000, count=32, stride=128)
        token = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        assert token.expected == 32

    def test_duplicate_out_of_order_lines_coalesce_ascending(self):
        # 128-byte lines.  Lanes cycle through lines 7, 3, 7, 0, 12, 3 of
        # the 0x4000 region at word offsets 0-3 within each line; lane 31
        # is masked off and points at line 20.  Distinct active lines,
        # ascending: 0, 3, 7, 12 -> 0x4000, 0x4180, 0x4380, 0x4600.
        unit, _, _, _ = build_harness()
        table = [7, 3, 7, 0, 12, 3]
        addresses = np.array(
            [0x4000 + table[lane % 6] * 128 + (lane % 4) * 4
             for lane in range(31)] + [0x4000 + 20 * 128], dtype=np.float64)
        mask = np.array([lane < 31 for lane in range(32)])
        token = issue(unit, FakeWarp(), make_load_instruction(), addresses,
                           mask, 0)
        assert unit.instruction_queue[0].remaining_lines == [
            0x4000, 0x4180, 0x4380, 0x4600]
        assert unit.stats["coalesced_accesses"] == 4
        assert token.expected == 4

    def test_masked_off_load_completes_quickly(self):
        unit, memory_system, _, _ = build_harness()
        addresses, _ = lane_addresses(0x1000)
        mask = np.zeros(32, dtype=bool)
        completed = []
        unit.on_load_complete = lambda token, cycle: completed.append(cycle)
        token = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        assert token.expected == 1
        run_cycles(unit, memory_system, 5)
        assert completed

    def test_capacity_limit(self):
        unit, _, _, config = build_harness()
        addresses, mask = lane_addresses(0x1000)
        for _ in range(config.core.ldst_queue_size):
            assert unit.can_accept()
            issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        assert not unit.can_accept()


class TestTimestamps:
    def finished_rows(self, tracking):
        """The timestamp rows of a missing load's requests as they finish."""
        unit, memory_system, tracker, _ = build_harness(tracking=tracking)
        rows = []
        finish = tracker.finish_request

        def capture(request, cycle):
            finish(request, cycle)
            rows.append(list(request.times))

        tracker.finish_request = capture
        addresses, mask = lane_addresses(0x2000, count=32, stride=4)
        token = issue(unit, FakeWarp(), make_load_instruction(), addresses,
                      mask, 0)
        run_cycles(unit, memory_system, 300)
        assert token.finished and rows
        return rows

    def test_enabled_tracker_stamps_every_stage(self):
        for row in self.finished_rows(tracking=True):
            assert row[Event.ISSUE.column] >= 0
            assert row[Event.L1_ACCESS.column] >= 0
            assert row[Event.COMPLETE.column] > row[Event.ISSUE.column]

    def test_disabled_tracker_stamps_nothing(self):
        for row in self.finished_rows(tracking=False):
            assert row == [-1] * len(row)


class TestL1Behaviour:
    def test_miss_then_hit(self):
        unit, memory_system, tracker, _ = build_harness()
        addresses, mask = lane_addresses(0x2000, count=32, stride=4)
        completed = []
        unit.on_load_complete = lambda token, cycle: completed.append((token, cycle))
        first = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        now = run_cycles(unit, memory_system, 300)
        assert first.finished and not first.all_l1_hits
        second = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, now)
        run_cycles(unit, memory_system, 60, start=now)
        assert second.finished and second.all_l1_hits
        miss_latency = completed[0][1] - first.issue_cycle
        hit_latency = completed[1][1] - second.issue_cycle
        assert hit_latency < miss_latency

    def test_l1_disabled_never_hits(self):
        unit, memory_system, _, _ = build_harness(l1_enabled=False)
        addresses, mask = lane_addresses(0x2000, count=32, stride=4)
        first = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        now = run_cycles(unit, memory_system, 300)
        second = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, now)
        run_cycles(unit, memory_system, 300, start=now)
        assert first.finished and second.finished
        assert not second.all_l1_hits

    def test_global_bypass_still_caches_local(self):
        unit, memory_system, _, _ = build_harness(cache_global=False)
        builder = KernelBuilder("ldl")
        dst, addr = builder.reg(), builder.reg()
        builder.ld_local(dst, addr)
        builder.local_alloc(4)
        local_load = builder.build()[0]
        addresses, mask = lane_addresses(0x2000, count=32, stride=4)
        issue(unit, FakeWarp(), local_load, addresses, mask, 0)
        now = run_cycles(unit, memory_system, 300)
        second = issue(unit, FakeWarp(), local_load, addresses, mask, now)
        run_cycles(unit, memory_system, 60, start=now)
        assert second.all_l1_hits
        # A global load to the same line must not have been cached.
        third = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask,
                           now + 60)
        run_cycles(unit, memory_system, 300, start=now + 60)
        assert third.finished and not third.all_l1_hits

    def test_mshr_merges_loads_to_same_line(self):
        unit, memory_system, tracker, _ = build_harness()
        addresses, mask = lane_addresses(0x3000, count=32, stride=4)
        first = issue(unit, FakeWarp(0), make_load_instruction(), addresses, mask, 0)
        second = issue(unit, FakeWarp(1), make_load_instruction(), addresses, mask, 0)
        run_cycles(unit, memory_system, 300)
        assert first.finished and second.finished
        assert unit.stats["mshr_merges"] >= 1
        # Only one request went to the memory system.
        assert memory_system.stats["requests_injected"] == 1

    def test_store_invalidates_l1_line(self):
        unit, memory_system, _, _ = build_harness()
        addresses, mask = lane_addresses(0x4000, count=32, stride=4)
        load = issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        now = run_cycles(unit, memory_system, 300)
        assert load.finished
        assert unit.l1.probe(0x4000)
        issue(unit, FakeWarp(), make_store_instruction(), addresses, mask, now)
        run_cycles(unit, memory_system, 20, start=now)
        assert not unit.l1.probe(0x4000)


def make_shared_load(shared_bytes=4096):
    builder = KernelBuilder("lds")
    dst, addr = builder.reg(), builder.reg()
    builder.shared_alloc(shared_bytes)
    builder.ld_shared(dst, addr)
    return builder.build()[0]


class TestSharedMemoryTiming:
    def test_conflict_free_access(self):
        unit, memory_system, _, config = build_harness()
        instruction = make_shared_load()
        addresses = np.arange(32, dtype=np.float64) * 4
        mask = np.ones(32, dtype=bool)
        completed = []
        unit.on_load_complete = lambda token, cycle: completed.append(cycle)
        issue(unit, FakeWarp(), instruction, addresses, mask, 0)
        run_cycles(unit, memory_system, 40)
        assert completed
        assert completed[0] == config.core.shared_latency
        assert unit.stats["shared_bank_conflict_cycles"] == 0

    def test_bank_conflicts_add_latency(self):
        unit, memory_system, _, config = build_harness()
        instruction = make_shared_load(16 * 1024)
        # All 32 lanes hit the same bank (stride of 32 words).
        addresses = np.arange(32, dtype=np.float64) * 4 * config.core.shared_banks
        mask = np.ones(32, dtype=bool)
        completed = []
        unit.on_load_complete = lambda token, cycle: completed.append(cycle)
        issue(unit, FakeWarp(), instruction, addresses, mask, 0)
        run_cycles(unit, memory_system, 80)
        assert completed
        assert completed[0] == config.core.shared_latency + 31
        assert unit.stats["shared_bank_conflict_cycles"] == 31


class TestEventRecording:
    def test_miss_records_full_event_sequence(self):
        unit, memory_system, tracker, _ = build_harness()
        addresses, mask = lane_addresses(0x5000, count=32, stride=4)
        issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        run_cycles(unit, memory_system, 300)
        records = tracker.read_requests()
        assert len(records) == 1
        timestamps = records[0].timestamps
        for event in (Event.ISSUE, Event.L1_ACCESS, Event.ICNT_INJECT,
                      Event.ROP_ARRIVE, Event.L2Q_ARRIVE, Event.COMPLETE):
            assert event in timestamps
        ordered = [timestamps[event] for event in timestamps]
        assert ordered == sorted(ordered)

    def test_hit_records_short_sequence(self):
        unit, memory_system, tracker, _ = build_harness()
        addresses, mask = lane_addresses(0x6000, count=32, stride=4)
        issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        now = run_cycles(unit, memory_system, 300)
        issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, now)
        run_cycles(unit, memory_system, 60, start=now)
        hit_record = tracker.read_requests()[-1]
        assert Event.ICNT_INJECT not in hit_record.timestamps
        assert hit_record.latency < 60

    def test_load_records_written(self):
        unit, memory_system, tracker, _ = build_harness()
        addresses, mask = lane_addresses(0x7000, count=32, stride=4)
        issue(unit, FakeWarp(3), make_load_instruction(), addresses, mask, 0)
        run_cycles(unit, memory_system, 300)
        assert len(tracker.loads) == 1
        record = tracker.loads[0]
        assert record.warp_id == 3
        assert record.num_requests == 1
        assert record.latency > 0


def tick_unit(unit, cycles):
    """Cycle the LD/ST unit alone from cycle 0.

    The memory system is never cycled, so nothing leaves the
    interconnect and no response returns: once a stall condition is
    reached it holds, and its counter grows by one every later cycle.
    """
    for cycle in range(cycles):
        unit.process_writebacks(cycle)
        unit.cycle(cycle)


#: One interconnect credit per destination: the first injection to a
#: memory partition succeeds, every later one is refused.
ONE_CREDIT = {"output_queue_size": 1, "credit_limit": 1}


class TestStallCounters:
    """Each stall counter pinned to a hand-computed count over 10 cycles."""

    def test_l1_stage_full_cycles(self):
        # sm_base_latency 10: accesses generated at cycles 0-3 fill the
        # 4-deep L1 stage and none is ready before cycle 10, so cycles
        # 4-9 each find the stage full.
        unit, _, _, _ = build_harness(core={"sm_base_latency": 10})
        addresses, mask = lane_addresses(0x1000, count=32, stride=128)
        issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        tick_unit(unit, 10)
        assert unit.stats["l1_stage_full_cycles"] == 6
        assert len(unit.l1_access_queue) == unit.L1_STAGE_DEPTH

    def test_mshr_merge_stall_cycles(self):
        # Three loads of one line reach the L1 at cycles 1, 2 and 3: the
        # first allocates the MSHR entry, the second takes its only merge
        # slot, the third stalls at cycles 3-9.
        unit, _, _, _ = build_harness(core={"sm_base_latency": 1},
                                      l1={"mshr_max_merge": 1})
        addresses, mask = lane_addresses(0x3000, count=32, stride=4)
        for warp_id in range(3):
            issue(unit, FakeWarp(warp_id), make_load_instruction(),
                       addresses, mask, 0)
        tick_unit(unit, 10)
        assert unit.stats["mshr_merges"] == 1
        assert unit.stats["mshr_merge_stall_cycles"] == 7
        assert unit.stats["mshr_full_stall_cycles"] == 0

    def test_mshr_full_stall_cycles(self):
        # One load of two lines: the first line takes the only MSHR entry
        # at cycle 1, the second finds the table full at cycles 2-9.
        unit, _, _, _ = build_harness(core={"sm_base_latency": 1},
                                      l1={"mshr_entries": 1})
        addresses, mask = lane_addresses(0x1000, count=2, stride=128)
        issue(unit, FakeWarp(), make_load_instruction(), addresses, mask, 0)
        tick_unit(unit, 10)
        assert unit.stats["mshr_full_stall_cycles"] == 8
        assert unit.stats["mshr_merge_stall_cycles"] == 0

    @pytest.mark.parametrize("access", ["store", "uncached_load"])
    def test_miss_queue_stall_cycles(self, access):
        # Three one-line accesses to one partition reach the L1 at cycles
        # 1, 2 and 3.  The first is injected at cycle 1 and uses the
        # partition's only credit; the second then sits in the 1-entry
        # miss queue, so the third stalls at cycles 3-9.
        unit, _, _, _ = build_harness(l1_enabled=access == "store",
                                      core={"sm_base_latency": 1},
                                      l1={"miss_queue_size": 1},
                                      interconnect=ONE_CREDIT)
        instruction = (make_store_instruction() if access == "store"
                       else make_load_instruction())
        addresses, mask = lane_addresses(0x1000, count=32, stride=4)
        for warp_id in range(3):
            issue(unit, FakeWarp(warp_id), instruction, addresses, mask, 0)
        tick_unit(unit, 10)
        assert unit.stats["miss_queue_stall_cycles"] == 7
        assert unit.stats["icnt_stall_cycles"] == 8

    def test_icnt_stall_cycles(self):
        # One store of two lines in one 256-byte partition chunk: the
        # first line is injected at cycle 1 with the partition's only
        # credit, the second is refused at cycles 2-9.
        unit, memory_system, _, _ = build_harness(core={"sm_base_latency": 1},
                                                  interconnect=ONE_CREDIT)
        addresses, mask = lane_addresses(0x1000, count=2, stride=128)
        issue(unit, FakeWarp(), make_store_instruction(), addresses, mask, 0)
        tick_unit(unit, 10)
        assert unit.stats["icnt_stall_cycles"] == 8
        assert unit.stats["miss_queue_stall_cycles"] == 0
        assert memory_system.stats["requests_injected"] == 1
        assert len(unit.miss_queue) == 1
