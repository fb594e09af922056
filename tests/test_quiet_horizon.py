"""Quiet horizons: the promise behind the stall jump.

After a cycle, each component's ``horizons`` reports its next *visit*
and its *quiet horizon*: the earliest cycle at which its state can
change without outside input, plus the stall counters one idle cycle
before it bumps.  ``GPU._sleep_through_stalls``
jumps the clock over those cycles and bumps the counters in bulk.

The tests here hold each component to that promise directly.  At a
checkpoint one copy is ticked through the quiet cycles while another
copy only replays the reported counters; both must then agree on every
counter, and keep agreeing over the cycles that follow the horizon.
"""

import copy
import dataclasses

import pytest

from repro.core.tracker import LatencyTracker
from repro.gpu import GPU
from repro.memory.address import AddressMapping
from repro.memory.dram import DRAMTiming, DramChannel
from repro.memory.interconnect import Interconnect, InterconnectConfig
from repro.memory.partition import MemoryPartition
from repro.memory.subsystem import MemorySystem
from repro.workloads import create_workload
from tests.conftest import make_fast_config
from tests.test_memory_l2_partition import (partition_config, read_request,
                                            write_request)
from tests.test_simt_ldst import (ONE_CREDIT, FakeWarp, build_harness,
                                  issue, lane_addresses, make_load_instruction,
                                  make_store_instruction, tick_unit)

#: The longest quiet window a checkpoint ticks through.
SPAN = 25


def replay(stalls, cycles):
    """Bump each reported ``(stats, slot)`` counter ``cycles`` times."""
    for stats, slot in stalls:
        stats.inc(slot, cycles)


def counters(*stats):
    merged = {}
    for collection in stats:
        merged.update(collection.as_dict())
    return merged


def check_quiet_window(component, now, tick, stats_of, polls=None,
                       follow=30):
    """Hold ``component`` (just ticked at ``now``) to its quiet horizon.

    Returns the horizon and the reported stalls.  The visit ``horizons``
    reports with it lies after ``now``, no later than the horizon, and
    is either ``now + 1`` or the horizon; it is the horizon itself when
    no stall was reported and nothing waits on the component (``polls``,
    given the component, says whether something does).  When the
    horizon lies beyond ``now + 1``, a ticked copy and a replayed copy
    must agree on ``stats_of`` at the end of the window and on every one
    of the ``follow`` cycles after it.
    """
    stalls = []
    visit, horizon = component.horizons(now, stalls)
    assert now < visit <= horizon, (now, visit, horizon)
    assert visit in (now + 1, horizon), (now, visit, horizon)
    if not stalls and not (polls is not None and polls(component)):
        assert visit == horizon, (now, visit, horizon)
    if horizon <= now + 1:
        return horizon, stalls
    end = int(min(horizon, now + 1 + SPAN))
    ticked = copy.deepcopy(component)
    replayed, replayed_stalls = copy.deepcopy((component, stalls))
    for cycle in range(now + 1, end):
        tick(ticked, cycle)
    replay(replayed_stalls, end - now - 1)
    assert stats_of(ticked) == stats_of(replayed), now
    for cycle in range(end, end + follow):
        tick(ticked, cycle)
        tick(replayed, cycle)
        assert stats_of(ticked) == stats_of(replayed), (now, cycle)
    return horizon, stalls


class TestInterconnectHorizon:
    @staticmethod
    def make(out_queue=1, destinations=1):
        return Interconnect(
            num_sources=1, num_destinations=destinations,
            config=InterconnectConfig(latency=3, accept_per_cycle=1,
                                      output_queue_size=out_queue,
                                      credit_limit=4),
            name="test")

    def test_empty_network_is_quiet_forever(self):
        icnt = self.make()
        stalls = []
        assert icnt.horizons(0, stalls) == (float("inf"), float("inf"))
        assert stalls == []

    def test_horizon_is_the_next_arrival(self):
        icnt = self.make()
        icnt.inject(0, 0, "pkt", now=2)
        stalls = []
        assert icnt.horizons(2, stalls) == (5, 5)
        assert stalls == []
        icnt.cycle(5)
        # The delivered packet waits for its consumer, which polls it.
        assert icnt.horizons(5, stalls) == (6, float("inf"))

    def test_arrived_head_with_room_moves_next_cycle(self):
        icnt = self.make(out_queue=2)
        for index in range(2):
            icnt.inject(0, 0, index, now=0)
        icnt.cycle(3)
        assert icnt.horizons(3, []) == (4, 4)

    def test_blocked_output_replays_like_ticking(self):
        # Destination 0's one-entry output is full with two more packets
        # arrived behind it; destination 1's packet is still in flight.
        icnt = self.make(destinations=2)
        for index in range(3):
            icnt.inject(0, 0, index, now=0)
        icnt.cycle(3)
        icnt.inject(0, 1, "late", now=5)

        def tick(network, cycle):
            network.cycle(cycle)

        def polls(network):
            return any(network.has_output(destination)
                       for destination in range(network.num_destinations))

        horizon, stalls = check_quiet_window(
            icnt, 5, tick, lambda network: counters(network.stats), polls)
        assert horizon == 8
        assert stalls == [(icnt.stats, icnt.stats.slot(
            "output_blocked_cycles"))]


class TestDramHorizon:
    @staticmethod
    def make():
        timing = DRAMTiming(t_rcd=5, t_rp=5, t_cas=5, burst_cycles=2,
                            service_pad=0, queue_size=8, num_banks=2)
        mapping = AddressMapping(num_partitions=1, partition_chunk=256,
                                 row_bytes=512, num_banks=2)
        return DramChannel(0, timing, mapping, LatencyTracker()), mapping

    def test_idle_channel_is_quiet_forever(self):
        channel, _ = self.make()
        channel.cycle(0)
        stalls = []
        assert channel.horizons(0, stalls) == (float("inf"), float("inf"))
        assert stalls == []

    def test_all_banks_busy_replays_like_ticking(self):
        # Reads to different rows of one bank: the first opens the row,
        # the rest wait with every queued request's bank busy.
        channel, mapping = self.make()
        bank_rows = {}
        address = 0
        while len(bank_rows) < 4:
            row = mapping.row_of(address)
            if mapping.bank_of(address) == 0 and row not in bank_rows:
                bank_rows[row] = address
            address += 128
        for address in bank_rows.values():
            channel.enqueue(read_request(address), 0)

        def tick(dram, cycle):
            dram.cycle(cycle)
            while dram.pop_completed_read(cycle) is not None:
                pass

        def stats_of(dram):
            return counters(dram.stats), dram.in_flight()

        blocked = 0
        for now in range(120):
            tick(channel, now)
            horizon, stalls = check_quiet_window(channel, now, tick, stats_of)
            if stalls:
                blocked += 1
                assert horizon > now + 1
        assert blocked
        assert channel.stats["all_banks_busy_cycles"] > 0


class TestPartitionHorizon:
    """A partition whose return queue nobody drains backs up into the L2,
    the ROP queue and the DRAM channel; every checkpoint on the way must
    keep the promise, across the L2 slice's and the DRAM channel's
    horizons."""

    @staticmethod
    def stats_of(partition):
        l2 = partition.l2
        sources = [partition.stats, partition.dram.stats]
        if l2 is not None:
            sources += [l2.stats, l2.cache.stats, l2.mshr.stats]
        return counters(*sources), partition.in_flight(), len(
            partition.return_queue)

    @staticmethod
    def tick(partition, cycle):
        partition.cycle(cycle)

    @staticmethod
    def polls(partition):
        # Responses wait for the reply network, outside the partition.
        return bool(partition.return_queue or partition._fill_overflow)

    def drive(self, config, make_request):
        mapping = AddressMapping(num_partitions=1, partition_chunk=256,
                                 row_bytes=512, num_banks=2)
        partition = MemoryPartition(0, config, mapping, LatencyTracker())
        seen = set()
        quiet = 0
        line = 0
        for now in range(160):
            if now % 50 == 49 and partition.return_queue:
                partition.return_queue.pop()
            while now < 40 and partition.can_accept():
                partition.accept(make_request(line * 128), now)
                line += 1
            self.tick(partition, now)
            horizon, stalls = check_quiet_window(partition, now, self.tick,
                                                 self.stats_of, self.polls)
            quiet += horizon > now + 1
            for stats, slot in stalls:
                seen.add(next(name for name, index in stats._index.items()
                              if index == slot))
        assert quiet
        return seen

    def test_reads_backed_up_behind_a_full_return_queue(self):
        seen = self.drive(partition_config(), read_request)
        assert "l2_queue_stall_cycles" in seen

    def test_writes_backed_up_behind_a_full_dram_queue(self):
        config = partition_config()
        config = dataclasses.replace(
            config, dram=dataclasses.replace(config.dram, queue_size=2))
        seen = self.drive(config, write_request)
        assert "write_stall_cycles" in seen

    def test_uncached_partition(self):
        config = partition_config()
        config = dataclasses.replace(
            config, l2_enabled=False,
            dram=dataclasses.replace(config.dram, queue_size=2))
        seen = self.drive(config, read_request)
        assert "dram_queue_stall_cycles" in seen


def build_memory_pair(**interconnect):
    config = make_fast_config()
    icnt = dataclasses.replace(config.interconnect, **interconnect)
    return [MemorySystem(num_sms=config.num_sms, mapping=config.mapping,
                         icnt_config=icnt,
                         partition_config=config.partition,
                         tracker=LatencyTracker(),
                         reference_memory=reference)
            for reference in (False, True)]


class TestMemorySystemSleep:
    """The fast memory body sleeps through stalls and credits the calls it
    skipped; reference memory never sleeps.  Both must read the same
    counters at every cycle."""

    def test_reference_memory_reports_no_horizon(self):
        _, reference = build_memory_pair()
        reference.cycle(0)
        assert reference.quiet_horizon(0) == 1

    def test_stats_read_mid_sleep_match_reference_memory(self):
        fast, reference = build_memory_pair(output_queue_size=1,
                                            credit_limit=2)
        slept = 0
        next_line = 0
        for now in range(400):
            # A burst of reads that nobody collects until cycle 300,
            # then one pop per SM every cycle.
            while now < 20:
                address = next_line * 128
                if not fast.can_inject(address):
                    break
                for system in (fast, reference):
                    request = read_request(address, sm_id=next_line % 2)
                    assert system.try_inject(request.sm_id, request, now)
                next_line += 1
            if now >= 300:
                for sm_id in range(2):
                    popped = [system.pop_response(sm_id)
                              for system in (fast, reference)]
                    assert (popped[0] is None) == (popped[1] is None)
            fast.cycle(now)
            reference.cycle(now)
            slept += fast._calls > fast._net_mark
            assert (fast.collect_stats().as_dict()
                    == reference.collect_stats().as_dict()), now
        assert slept
        assert fast.in_flight() == reference.in_flight() == 0
        assert fast.collect_stats()["icnt_rep.output_blocked_cycles"] > 0

    def test_replayed_cycles_credit_like_skipped_calls(self):
        # A jump the GPU makes counts exactly like body runs the memory
        # system skipped on its own.
        fast, reference = build_memory_pair(output_queue_size=1,
                                            credit_limit=2)
        for system in (fast, reference):
            for line in range(2):
                request = read_request(line * 256, sm_id=0)
                assert system.try_inject(0, request, 0)
        now = 0
        while fast.quiet_horizon(now) <= now + 1 or not (
                fast._net_stalls or any(fast._part_stalls)):
            fast.cycle(now)
            reference.cycle(now)
            now += 1
            assert now < 300
        horizon = int(min(fast.quiet_horizon(now - 1), now + SPAN))
        fast.replay_stalls(horizon - now)
        for cycle in range(now, horizon):
            reference.cycle(cycle)
        assert (fast.collect_stats().as_dict()
                == reference.collect_stats().as_dict())


LDST_STALLS = {
    "l1_stage_full": dict(core={"sm_base_latency": 10}, lines=32,
                          stride=128, warps=1),
    "mshr_merge": dict(core={"sm_base_latency": 1},
                       l1={"mshr_max_merge": 1}, base=0x3000, lines=32,
                       stride=4, warps=3),
    "mshr_full": dict(core={"sm_base_latency": 1}, l1={"mshr_entries": 1},
                      lines=2, stride=128, warps=1),
    "miss_queue": dict(core={"sm_base_latency": 1},
                       l1={"miss_queue_size": 1}, interconnect=ONE_CREDIT,
                       lines=32, stride=4, warps=3, store=True),
    "uncached_miss_queue": dict(l1_enabled=False,
                                core={"sm_base_latency": 1},
                                l1={"miss_queue_size": 1},
                                interconnect=ONE_CREDIT, lines=32, stride=4,
                                warps=3),
    "icnt": dict(core={"sm_base_latency": 1}, interconnect=ONE_CREDIT,
                 lines=2, stride=128, warps=1, store=True),
}


def stalled_ldst(case):
    """A LD/ST unit in one of the stall cases of ``tests/test_simt_ldst``,
    ticked alone (no memory cycles, so no reply ever returns)."""
    spec = dict(LDST_STALLS[case])
    base, lines = spec.pop("base", 0x1000), spec.pop("lines")
    stride, warps = spec.pop("stride"), spec.pop("warps")
    store = spec.pop("store", False)
    unit, memory_system, _, _ = build_harness(**spec)
    instruction = make_store_instruction() if store else make_load_instruction()
    addresses, mask = lane_addresses(base, count=lines, stride=stride)
    for warp_id in range(warps):
        issue(unit, FakeWarp(warp_id), instruction, addresses, mask, 0)
    return unit, memory_system


class TestLoadStoreUnitHorizon:
    @pytest.mark.parametrize("case", sorted(LDST_STALLS))
    def test_replay_matches_ticking(self, case):
        # Two copies stall identically up to cycle 5.  One ticks on; the
        # other replays the cycles up to its horizon (or cycle 30) and
        # then ticks on too.  Both must agree through cycle 39.
        ticked, ticked_memory = stalled_ldst(case)
        tick_unit(ticked, 40)
        replayed, replayed_memory = stalled_ldst(case)
        tick_unit(replayed, 6)
        visit, horizon = replayed.horizons(5)
        assert visit == 6
        assert horizon > 6
        assert replayed._stalls or replayed._refused is not None
        end = int(min(horizon, 30))
        replayed.replay_stalls(end - 6)
        for cycle in range(end, 40):
            replayed.process_writebacks(cycle)
            replayed.cycle(cycle)
        assert (ticked.collect_stats().as_dict()
                == replayed.collect_stats().as_dict())
        assert (ticked_memory.stats.as_dict()
                == replayed_memory.stats.as_dict())

    def test_waiting_reply_moves_next_cycle(self):
        unit, memory_system = stalled_ldst("mshr_full")
        tick_unit(unit, 2)
        assert unit.horizons(1)[1] > 2
        now = 2
        while not unit._reply_entries:
            memory_system.cycle(now)
            now += 1
            assert now < 500
        assert unit.horizons(now) == (now + 1, now + 1)

    def test_idle_unit_is_quiet_forever(self):
        unit, _, _, _ = build_harness()
        assert unit.horizons(0) == (float("inf"), float("inf"))
        assert unit._stalls == []


class TestGpuJump:
    @pytest.mark.parametrize("core,jumps", [("reference", False),
                                            ("fast", True)])
    def test_only_event_driven_cores_jump(self, monkeypatch, core, jumps):
        # At 8x DRAM latency the bfs reads leave long stalled spans.
        config = make_fast_config(core_backend=core)
        config = config.replace(partition=dataclasses.replace(
            config.partition, dram=dataclasses.replace(
                config.partition.dram, t_rcd=48, t_rp=48, t_cas=48)))
        gpu = GPU(config)
        jumped = []
        original = gpu.memory_system.replay_stalls
        monkeypatch.setattr(gpu.memory_system, "replay_stalls",
                            lambda cycles: (jumped.append(cycles),
                                            original(cycles)))
        workload = create_workload("bfs", num_nodes=128, avg_degree=5,
                                   block_dim=64, seed=5)
        workload.run(gpu)
        assert workload.verify(gpu)
        assert bool(jumped) is jumps
        assert all(cycles > 0 for cycles in jumped)
        # Only the gated drive loop jumps; the base SM class stays out
        # of it.
        assert all(sm.supports_device_skip is jumps for sm in gpu.sms)

    def test_generic_loop_never_sleeps_through_stalls(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the generic drive loop jumped")

        monkeypatch.setattr(GPU, "_sleep_through_stalls", refuse)
        gpu = GPU(make_fast_config(core_backend="reference"))
        workload = create_workload("bfs", num_nodes=128, avg_degree=5,
                                   block_dim=64, seed=5)
        workload.run(gpu)
        assert workload.verify(gpu)
