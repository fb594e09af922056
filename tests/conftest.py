"""Shared fixtures for the test suite.

Unit tests use small, fast GPU configurations so the whole suite stays
quick; the integration tests that exercise the paper's analyses use the
calibrated presets but with reduced problem sizes.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import settings

from repro.core.tracker import LatencyTracker
from repro.gpu import GPU, fermi_gf100, get_config
from repro.gpu.config import GPUConfig
from repro.memory.address import AddressMapping
from repro.memory.cache import CacheGeometry
from repro.memory.dram import DRAMTiming
from repro.memory.interconnect import InterconnectConfig
from repro.memory.l2cache import L2SliceConfig
from repro.memory.partition import PartitionConfig
from repro.simt.coreconfig import CoreConfig, L1Config

#: Every tier-1 run draws the same hypothesis examples: each property
#: test is seeded from its own source, tests without their own
#: ``max_examples`` get a fixed budget of 100, and nothing is replayed
#: from (or written to) an example database.
settings.register_profile("repro", derandomize=True, max_examples=100,
                          database=None)
settings.load_profile("repro")


def make_fast_config(name: str = "fast", **overrides) -> GPUConfig:
    """A small GPU configuration with short latencies for unit tests."""
    config = GPUConfig(
        name=name,
        description="small fast configuration for unit tests",
        num_sms=2,
        core=CoreConfig(
            num_schedulers=2,
            warp_scheduler="gto",
            alu_latency=4,
            sfu_latency=8,
            shared_latency=6,
            sm_base_latency=2,
            writeback_latency=1,
            l1=L1Config(
                enabled=True,
                cache_global=True,
                cache_local=True,
                geometry=CacheGeometry(8 * 1024, 128, 4, name="fast.l1"),
                hit_latency=4,
                mshr_entries=16,
                mshr_max_merge=4,
                miss_queue_size=8,
            ),
        ),
        interconnect=InterconnectConfig(latency=4, accept_per_cycle=1,
                                        output_queue_size=4, credit_limit=8),
        mapping=AddressMapping(num_partitions=2, partition_chunk=256,
                               row_bytes=1024, num_banks=4),
        partition=PartitionConfig(
            rop_latency=4,
            rop_queue_size=8,
            l2_enabled=True,
            l2=L2SliceConfig(
                geometry=CacheGeometry(16 * 1024, 128, 8, name="fast.l2"),
                hit_latency=8,
                mshr_entries=16,
                mshr_max_merge=4,
                input_queue_size=8,
            ),
            dram=DRAMTiming(t_rcd=6, t_rp=6, t_cas=6, burst_cycles=2,
                            service_pad=10, queue_size=16, num_banks=4,
                            scheduler="frfcfs"),
            return_queue_size=4,
        ),
        global_memory_bytes=8 * 1024 * 1024,
    )
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


@pytest.fixture
def fast_config() -> GPUConfig:
    """Small, low-latency configuration for unit tests."""
    return make_fast_config()


@pytest.fixture
def fast_gpu(fast_config) -> GPU:
    """A GPU built from the fast unit-test configuration."""
    return GPU(fast_config)


@pytest.fixture
def gf100_gpu() -> GPU:
    """A GPU built from the calibrated Fermi GF100 preset."""
    return GPU(fermi_gf100())


@pytest.fixture
def tracker() -> LatencyTracker:
    """A fresh, enabled latency tracker."""
    return LatencyTracker()


@pytest.fixture(params=["gt200", "gf106", "gk104", "gm107"])
def generation_config(request) -> GPUConfig:
    """Each of the four Table I generation presets in turn."""
    return get_config(request.param)
