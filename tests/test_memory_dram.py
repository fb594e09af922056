"""Unit tests for the DRAM channel, its timing, and its schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stages import Event
from repro.core.tracker import LatencyTracker
from repro.isa.opcodes import MemSpace
from repro.memory.address import AddressMapping
from repro.memory.dram import (
    DRAMTiming,
    DramChannel,
    FCFSScheduler,
    FRFCFSScheduler,
    create_scheduler,
)
from repro.memory.request import MemoryRequest
from repro.utils.errors import ConfigurationError


def make_channel(scheduler="frfcfs", reference_memory=False,
                 **timing_overrides):
    timing_kwargs = dict(t_rcd=5, t_rp=5, t_cas=5, burst_cycles=2,
                         service_pad=0, queue_size=8, num_banks=2,
                         scheduler=scheduler, starvation_limit=0)
    timing_kwargs.update(timing_overrides)
    timing = DRAMTiming(**timing_kwargs)
    mapping = AddressMapping(num_partitions=1, partition_chunk=256,
                             row_bytes=512, num_banks=timing.num_banks)
    channel = DramChannel(0, timing, mapping, LatencyTracker(),
                          reference_memory=reference_memory)
    return channel, mapping


def read_request(address):
    return MemoryRequest(address=address, size=128, is_write=False,
                         space=MemSpace.GLOBAL, sm_id=0)


def run_until_complete(channel, limit=1000):
    completed = []
    for cycle in range(limit):
        channel.cycle(cycle)
        while True:
            done = channel.pop_completed_read(cycle)
            if done is None:
                break
            completed.append((cycle, done))
    return completed


class TestTimingValidation:
    def test_latencies_by_row_state(self):
        timing = DRAMTiming(t_rcd=10, t_rp=8, t_cas=6)
        assert timing.row_hit_latency() == 6
        assert timing.row_closed_latency() == 16
        assert timing.row_conflict_latency() == 24

    def test_rejects_invalid_values(self):
        with pytest.raises(ConfigurationError):
            DRAMTiming(t_rcd=0)
        with pytest.raises(ConfigurationError):
            DRAMTiming(queue_size=0)
        with pytest.raises(ConfigurationError):
            DRAMTiming(scheduler="bogus")
        with pytest.raises(ConfigurationError):
            DRAMTiming(starvation_limit=-1)

    def test_scheduler_factory(self):
        assert isinstance(create_scheduler("fcfs"), FCFSScheduler)
        assert isinstance(create_scheduler("frfcfs"), FRFCFSScheduler)
        with pytest.raises(ConfigurationError):
            create_scheduler("unknown")


class TestChannelBehaviour:
    def test_queue_capacity(self):
        channel, _ = make_channel(queue_size=2)
        channel.enqueue(read_request(0), 0)
        channel.enqueue(read_request(128), 0)
        assert not channel.can_accept()
        with pytest.raises(RuntimeError):
            channel.enqueue(read_request(256), 0)

    def test_read_completes_and_records_timestamps(self):
        channel, _ = make_channel()
        request = read_request(0)
        channel.enqueue(request, 0)
        completed = run_until_complete(channel)
        assert len(completed) == 1
        assert Event.DRAM_Q_ARRIVE in request.timestamps
        assert Event.DRAM_SCHEDULED in request.timestamps
        assert Event.DRAM_DATA in request.timestamps
        assert (request.timestamps[Event.DRAM_DATA]
                > request.timestamps[Event.DRAM_SCHEDULED])

    def test_row_hit_faster_than_row_conflict(self):
        channel, mapping = make_channel()
        same_row = [read_request(0), read_request(128)]
        for request in same_row:
            channel.enqueue(request, 0)
        run_until_complete(channel)
        assert channel.stats["row_closed"] == 1
        assert channel.stats["row_hits"] == 1

        conflict_channel, _ = make_channel()
        # Same bank (bank 0), different rows: rows interleave across the 2
        # banks every 512 bytes, so 0 and 1024 share bank 0.
        conflict_channel.enqueue(read_request(0), 0)
        conflict_channel.enqueue(read_request(1024), 0)
        run_until_complete(conflict_channel)
        assert conflict_channel.stats["row_conflicts"] == 1

    def test_writes_complete_without_response(self):
        channel, _ = make_channel()
        write = MemoryRequest(address=0, size=128, is_write=True,
                              space=MemSpace.GLOBAL, sm_id=0)
        channel.enqueue(write, 0)
        completed = run_until_complete(channel)
        assert completed == []
        assert channel.stats["writes_completed"] == 1

    def test_service_pad_delays_response_not_bank(self):
        slow, _ = make_channel(service_pad=50)
        fast, _ = make_channel(service_pad=0)
        slow.enqueue(read_request(0), 0)
        fast.enqueue(read_request(0), 0)
        slow_done = run_until_complete(slow)[0][0]
        fast_done = run_until_complete(fast)[0][0]
        assert slow_done - fast_done == 50

    def test_bank_parallelism_beats_single_bank(self):
        # Two requests to different banks overlap; two to the same bank
        # (different rows) serialise.
        parallel, _ = make_channel()
        parallel.enqueue(read_request(0), 0)       # bank 0
        parallel.enqueue(read_request(512), 0)     # bank 1
        parallel_last = run_until_complete(parallel)[-1][0]

        serial, _ = make_channel()
        serial.enqueue(read_request(0), 0)         # bank 0 row 0
        serial.enqueue(read_request(1024), 0)      # bank 0 row 1
        serial_last = run_until_complete(serial)[-1][0]
        assert parallel_last < serial_last

    def test_next_visit(self):
        channel, _ = make_channel()
        assert channel.horizons(0, [])[0] == float("inf")
        channel.enqueue(read_request(0), 0)
        assert channel.horizons(0, [])[0] == 1
        channel.cycle(0)
        assert channel.horizons(0, [])[0] > 1

    def test_in_flight_accounting(self):
        channel, _ = make_channel()
        channel.enqueue(read_request(0), 0)
        assert channel.in_flight() == 1
        run_until_complete(channel)
        assert channel.in_flight() == 0


def queue_entry(enqueue_time, seq, address, mapping):
    """A scheduler queue entry for a read of ``address``, decoded."""
    return (enqueue_time, seq, read_request(address),
            mapping.bank_of(address), mapping.row_of(address))


class TestSchedulers:
    def test_fcfs_picks_oldest_ready(self):
        channel, mapping = make_channel(scheduler="fcfs")
        scheduler = channel.scheduler
        queue = [queue_entry(0, 0, 1024, mapping),
                 queue_entry(1, 1, 0, mapping)]
        index = scheduler.select(queue, channel.banks, now=10)
        assert index == 0

    def test_frfcfs_prefers_row_hit(self):
        channel, mapping = make_channel(scheduler="frfcfs")
        channel.banks[0].open_row = mapping.row_of(1024)
        queue = [queue_entry(0, 0, 0, mapping),
                 queue_entry(1, 1, 1024, mapping)]
        index = channel.scheduler.select(queue, channel.banks, now=10)
        assert index == 1

    def test_frfcfs_starvation_cap_promotes_oldest(self):
        scheduler = FRFCFSScheduler(starvation_limit=100)
        channel, mapping = make_channel(scheduler="frfcfs")
        channel.banks[0].open_row = mapping.row_of(1024)
        queue = [queue_entry(0, 0, 0, mapping),
                 queue_entry(150, 1, 1024, mapping)]
        # The row-miss request has waited 200 cycles at now=200: it wins
        # despite the row hit sitting behind it.
        index = scheduler.select(queue, channel.banks, now=200)
        assert index == 0

    def test_busy_banks_are_skipped(self):
        channel, mapping = make_channel(scheduler="fcfs")
        channel.banks[0].busy_until = 100
        queue = [queue_entry(0, 0, 0, mapping),
                 queue_entry(1, 1, 512, mapping)]
        index = channel.scheduler.select(queue, channel.banks, now=10)
        assert index == 1

    def test_no_ready_bank_returns_none(self):
        channel, mapping = make_channel(scheduler="frfcfs")
        for bank in channel.banks:
            bank.busy_until = 100
        queue = [queue_entry(0, 0, 0, mapping)]
        assert channel.scheduler.select(queue, channel.banks, 10) is None

    def test_fcfs_total_order_differs_from_frfcfs(self):
        # FR-FCFS reorders a row hit ahead of an older row conflict; FCFS
        # must not.
        def run(scheduler_name):
            channel, _ = make_channel(scheduler=scheduler_name)
            first = read_request(1024)     # bank 0, row 1
            second = read_request(0)       # bank 0, row 0
            third = read_request(1152)     # bank 0, row 1 (hit after first)
            channel.enqueue(first, 0)
            channel.enqueue(second, 0)
            channel.enqueue(third, 0)
            completed = run_until_complete(channel)
            return [request.address for _, request in completed]

        assert run("fcfs") == [1024, 0, 1152]
        assert run("frfcfs") == [1024, 1152, 0]


# ----------------------------------------------------------------------
# Blocked-cycle skip vs the per-cycle scan
# ----------------------------------------------------------------------
timings = st.builds(
    DRAMTiming,
    t_rcd=st.integers(1, 12),
    t_rp=st.integers(1, 12),
    t_cas=st.integers(1, 12),
    burst_cycles=st.integers(1, 6),
    service_pad=st.integers(0, 20),
    queue_size=st.one_of(st.integers(1, 4), st.integers(16, 48)),
    num_banks=st.integers(1, 8),
    scheduler=st.sampled_from(["fcfs", "frfcfs"]),
    starvation_limit=st.one_of(st.just(0), st.integers(1, 40)),
)

#: One arrival: (cycles after the previous arrival, address slot, is a
#: write, enqueued after rather than before the channel's cycle).
arrivals = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 63), st.booleans(),
              st.booleans()),
    min_size=1, max_size=40,
)


def drive_channel(timing, schedule, reference_memory):
    """Feed ``schedule`` into a fresh channel cycle by cycle.

    Arrivals that find the queue full wait, in order, for a free slot.
    Returns the channel, its requests, and ``(cycle, request index)`` per
    drained read.
    """
    mapping = AddressMapping(num_partitions=1, partition_chunk=256,
                             row_bytes=512, num_banks=timing.num_banks)
    channel = DramChannel(0, timing, mapping, LatencyTracker(),
                          reference_memory=reference_memory)
    requests, due = [], []
    arrival = 0
    for gap, slot, is_write, late in schedule:
        arrival += gap
        requests.append(MemoryRequest(address=slot * 128, size=128,
                                      is_write=is_write,
                                      space=MemSpace.GLOBAL, sm_id=0))
        due.append((arrival, late))
    index = {id(request): n for n, request in enumerate(requests)}
    pending = 0
    completed = []

    def enqueue_ready(now, late):
        nonlocal pending
        while (pending < len(requests) and due[pending][0] <= now
               and due[pending][1] == late and channel.can_accept()):
            channel.enqueue(requests[pending], now)
            pending += 1

    now = 0
    while pending < len(requests) or channel.in_flight():
        assert now < 50_000, "channel did not drain"
        enqueue_ready(now, late=False)
        channel.cycle(now)
        enqueue_ready(now, late=True)
        while (done := channel.pop_completed_read(now)) is not None:
            completed.append((now, index[id(done)]))
        now += 1
    return channel, requests, completed


class TestBlockedCycleSkip:
    @given(timing=timings, schedule=arrivals)
    @settings(max_examples=150, deadline=None)
    def test_skip_matches_per_cycle_scan(self, timing, schedule):
        fast, fast_requests, fast_done = drive_channel(
            timing, schedule, reference_memory=False)
        ref, ref_requests, ref_done = drive_channel(
            timing, schedule, reference_memory=True)
        assert fast_done == ref_done
        for mine, theirs in zip(fast_requests, ref_requests):
            assert mine.timestamps == theirs.timestamps
            assert mine.dram_row_hit == theirs.dram_row_hit
        # Same counters, values and key order.
        assert (list(fast.stats.as_dict().items())
                == list(ref.stats.as_dict().items()))

    def test_blocked_cycles_skip_the_scan(self):
        # One bank, two conflicting rows: while the first access holds
        # the bank the second request is blocked.  The scan runs once to
        # find that out, then not again until the bank frees up.
        calls = {"fast": 0, "reference": 0}
        for name, reference in (("fast", False), ("reference", True)):
            channel, _ = make_channel(num_banks=1, queue_size=4,
                                      reference_memory=reference)
            select = channel.scheduler.select

            def counting(queue, banks, now, select=select, name=name):
                calls[name] += 1
                return select(queue, banks, now)

            channel.scheduler.select = counting
            channel.enqueue(read_request(0), 0)
            channel.enqueue(read_request(512), 0)
            run_until_complete(channel)
            assert channel.stats["all_banks_busy_cycles"] > 2
        assert calls["fast"] == 3
        assert calls["reference"] > calls["fast"] + 2
