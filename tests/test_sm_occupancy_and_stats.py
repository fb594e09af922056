"""SM-level behaviour: occupancy limits, scheduler assignment, statistics,
exposure bookkeeping, and memory-request metadata."""

import pytest

from repro.core.stages import EVENT_ORDER, Event
from repro.core.tracker import LatencyTracker
from repro.gpu import GPU
from repro.isa import KernelBuilder, MemSpace
from repro.memory.request import MemoryRequest
from repro.simt.core import KernelLaunch
from repro.utils.errors import SimulationError
from tests.conftest import make_fast_config


def trivial_program(shared_bytes=0):
    builder = KernelBuilder("trivial")
    if shared_bytes:
        builder.shared_alloc(shared_bytes)
    builder.nop()
    return builder.build()


def make_launch(program=None, grid_dim=4, block_dim=64, **params):
    return KernelLaunch(program=program or trivial_program(),
                        grid_dim=grid_dim, block_dim=block_dim, params=params)


class TestKernelLaunchValidation:
    def test_geometry_must_be_positive(self):
        with pytest.raises(SimulationError):
            make_launch(grid_dim=0)
        with pytest.raises(SimulationError):
            make_launch(block_dim=0)

    def test_missing_params_detected(self):
        builder = KernelBuilder("needs_n")
        builder.mov(builder.reg(), builder.param("n"))
        with pytest.raises(SimulationError):
            make_launch(program=builder.build())

    def test_total_threads(self):
        assert make_launch(grid_dim=3, block_dim=64).total_threads == 192


class TestOccupancyLimits:
    def test_cta_limit(self, fast_gpu):
        sm = fast_gpu.sms[0]
        launch = make_launch(block_dim=32)
        limit = fast_gpu.config.core.max_ctas
        for cta_id in range(limit):
            assert sm.can_accept_cta(launch)
            sm.launch_cta(cta_id, launch, now=0)
        assert not sm.can_accept_cta(launch)
        with pytest.raises(SimulationError):
            sm.launch_cta(99, launch, now=0)

    def test_warp_limit(self, fast_gpu):
        sm = fast_gpu.sms[0]
        # Each CTA of 1024 threads is 32 warps; max_warps is 48, so only
        # one such CTA fits even though the CTA limit is 8.
        launch = make_launch(block_dim=1024)
        sm.launch_cta(0, launch, now=0)
        assert not sm.can_accept_cta(launch)

    def test_shared_memory_limit(self, fast_gpu):
        sm = fast_gpu.sms[0]
        shared_bytes = fast_gpu.config.core.shared_mem_bytes // 2 + 1
        launch = make_launch(program=trivial_program(shared_bytes),
                             block_dim=32)
        sm.launch_cta(0, launch, now=0)
        assert sm.shared_bytes_in_use() == shared_bytes
        assert not sm.can_accept_cta(launch)

    def test_warps_per_cta_rounds_up(self, fast_gpu):
        sm = fast_gpu.sms[0]
        assert sm.warps_per_cta(make_launch(block_dim=33)) == 2
        assert sm.warps_per_cta(make_launch(block_dim=32)) == 1

    def test_partial_warp_gets_partial_valid_mask(self, fast_gpu):
        sm = fast_gpu.sms[0]
        sm.launch_cta(0, make_launch(block_dim=40), now=0)
        warps = sm.resident_warps()
        assert len(warps) == 2
        assert int(warps[0].valid_mask.sum()) == 32
        assert int(warps[1].valid_mask.sum()) == 8

    def test_retirement_frees_resources(self, fast_gpu):
        builder = KernelBuilder("nothing")
        builder.nop()
        fast_gpu.launch(builder.build(), grid_dim=6, block_dim=64)
        for sm in fast_gpu.sms:
            assert sm.resident_warps() == []
            assert sm.shared_bytes_in_use() == 0
        retired = sum(len(sm.retired_ctas) for sm in fast_gpu.sms)
        assert retired == 6


class TestSchedulerAssignment:
    def test_warps_partitioned_across_schedulers(self, fast_gpu):
        sm = fast_gpu.sms[0]
        sm.launch_cta(0, make_launch(block_dim=256), now=0)
        all_warps = {warp.warp_id for warp in sm.resident_warps()}
        per_scheduler = [
            {warp.warp_id for warp in sm._scheduler_warps(index)}
            for index in range(fast_gpu.config.core.num_schedulers)
        ]
        assert set().union(*per_scheduler) == all_warps
        for first in range(len(per_scheduler)):
            for second in range(first + 1, len(per_scheduler)):
                assert not (per_scheduler[first] & per_scheduler[second])


class TestIssueStatsAndExposure:
    def test_issue_cycles_reported_to_tracker(self, fast_gpu):
        builder = KernelBuilder("counted")
        value = builder.reg()
        builder.mov(value, 1)
        builder.iadd(value, value, 2)
        result = fast_gpu.launch(builder.build(), grid_dim=1, block_dim=32)
        tracker = fast_gpu.tracker
        busy = tracker.busy_cycles_in(0, result.start_cycle,
                                      result.end_cycle + 1)
        assert busy >= 3                       # mov, iadd, exit at least
        issued = fast_gpu.sms[0].stats["instructions_issued"]
        assert issued >= 3
        assert fast_gpu.sms[0].stats["active_cycles"] <= result.cycles

    def test_branch_and_memory_stats_counted(self, fast_gpu):
        builder = KernelBuilder("mixed")
        value, address = builder.reg(), builder.reg()
        flag = builder.pred()
        out = builder.param("out")
        builder.setp(flag, "lt", builder.tid, 16)
        with builder.if_(flag):
            builder.mov(value, 7)
        builder.imad(address, builder.gtid, 4, out)
        builder.st_global(address, value)
        out_dev = fast_gpu.allocate(4 * 32)
        fast_gpu.launch(builder.build(), grid_dim=1, block_dim=32,
                        params={"out": out_dev})
        stats = fast_gpu.sms[0].stats
        assert stats["branches"] >= 1
        assert stats["memory_instructions"] >= 1


class TestMemoryRequestMetadata:
    def test_defaults_and_identity(self):
        first = MemoryRequest(address=0x100, size=128, is_write=False,
                              space=MemSpace.GLOBAL, sm_id=0)
        second = MemoryRequest(address=0x100, size=128, is_write=False,
                               space=MemSpace.GLOBAL, sm_id=0)
        assert first.request_id != second.request_id
        assert first != second                   # identity equality
        assert first.is_read and not first.is_write
        assert first.line_address(128) == 0x100
        assert MemoryRequest(address=0x1a4, size=4, is_write=True,
                             space=MemSpace.LOCAL,
                             sm_id=1).line_address(128) == 0x180

    def test_repr_mentions_kind_and_address(self):
        request = MemoryRequest(address=0xbeef, size=128, is_write=True,
                                space=MemSpace.GLOBAL, sm_id=3)
        text = repr(request)
        assert "W" in text and "beef" in text

    def test_timestamps_start_empty(self):
        request = MemoryRequest(address=0, size=128, is_write=False,
                                space=MemSpace.GLOBAL, sm_id=0)
        assert request.timestamps == {}
        assert request.times == [-1] * len(EVENT_ORDER)
        LatencyTracker().record_event(request, Event.ISSUE, 5)
        assert request.timestamps == {Event.ISSUE: 5}
        assert request.times[Event.ISSUE.column] == 5


class TestFastForward:
    def test_single_thread_kernel_skips_idle_cycles(self):
        # A strictly dependent pointer-ish chain on one thread leaves the
        # GPU idle most cycles; the run must finish in far fewer *wall*
        # steps than simulated cycles would suggest, which shows up as the
        # simulated cycle count being much larger than the issue count.
        gpu = GPU(make_fast_config())
        builder = KernelBuilder("dependent_chain")
        value, address = builder.reg(), builder.reg()
        out = builder.param("out")
        builder.mov(address, out)
        for _ in range(20):
            builder.ld_global(value, address)
            builder.iadd(address, value, 0)
        builder.st_global(out, value)
        out_dev = gpu.allocate(256)
        gpu.global_memory.write_word(out_dev, out_dev)   # self-loop pointer
        result = gpu.launch(builder.build(), grid_dim=1, block_dim=1,
                            params={"out": out_dev})
        assert result.cycles > 20 * 10
        assert result.instructions < 100
        assert gpu.sms[0].stats["active_cycles"] < result.cycles / 3
