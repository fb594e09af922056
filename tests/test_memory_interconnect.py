"""Unit tests for the crossbar interconnect."""

import pytest

from repro.memory.interconnect import Interconnect, InterconnectConfig
from repro.utils.errors import ConfigurationError


def make_icnt(latency=4, accept=1, out_queue=2, credits=4, sources=2, dests=2):
    return Interconnect(
        num_sources=sources,
        num_destinations=dests,
        config=InterconnectConfig(latency=latency, accept_per_cycle=accept,
                                  output_queue_size=out_queue,
                                  credit_limit=credits),
        name="test",
    )


class TestConfigValidation:
    def test_rejects_bad_latency(self):
        with pytest.raises(ConfigurationError):
            InterconnectConfig(latency=0)

    def test_rejects_credit_below_queue(self):
        with pytest.raises(ConfigurationError):
            InterconnectConfig(output_queue_size=8, credit_limit=4)

    def test_rejects_empty_network(self):
        with pytest.raises(ConfigurationError):
            Interconnect(0, 1, InterconnectConfig())


class TestDelivery:
    def test_packet_arrives_after_latency(self):
        icnt = make_icnt(latency=5)
        icnt.inject(0, 1, "pkt", now=10)
        for cycle in range(10, 15):
            icnt.cycle(cycle)
            assert icnt.peek(1) is None
        icnt.cycle(15)
        assert icnt.pop(1) == "pkt"

    def test_fifo_order_per_destination(self):
        icnt = make_icnt(latency=1, accept=2, out_queue=4, credits=8)
        icnt.inject(0, 0, "first", now=0)
        icnt.inject(1, 0, "second", now=0)
        icnt.cycle(1)
        assert icnt.pop(0) == "first"
        assert icnt.pop(0) == "second"

    def test_accept_rate_limits_delivery(self):
        icnt = make_icnt(latency=1, accept=1, out_queue=4, credits=8)
        for index in range(3):
            icnt.inject(0, 0, index, now=0)
        icnt.cycle(1)
        assert len(icnt._outputs[0]) == 1
        icnt.cycle(2)
        assert len(icnt._outputs[0]) == 2

    def test_output_queue_backpressure(self):
        icnt = make_icnt(latency=1, accept=2, out_queue=1, credits=4)
        icnt.inject(0, 0, "a", now=0)
        icnt.inject(0, 0, "b", now=0)
        icnt.cycle(1)
        assert len(icnt._outputs[0]) == 1      # second packet blocked
        assert icnt.stats["output_blocked_cycles"] >= 1
        icnt.pop(0)
        icnt.cycle(2)
        assert icnt.pop(0) == "b"

    def test_invalid_ports_rejected(self):
        icnt = make_icnt()
        with pytest.raises(ConfigurationError):
            icnt.inject(5, 0, "x", now=0)
        with pytest.raises(ConfigurationError):
            icnt.inject(0, 5, "x", now=0)


class TestCredits:
    def test_credit_limit_blocks_injection(self):
        icnt = make_icnt(latency=10, credits=2, out_queue=2)
        icnt.inject(0, 0, "a", now=0)
        icnt.inject(0, 0, "b", now=0)
        assert not icnt.can_inject(0)
        assert icnt.can_inject(1)
        with pytest.raises(RuntimeError):
            icnt.inject(0, 0, "c", now=0)

    def test_credits_released_on_pop(self):
        icnt = make_icnt(latency=1, credits=2, out_queue=2)
        icnt.inject(0, 0, "a", now=0)
        icnt.inject(0, 0, "b", now=0)
        icnt.cycle(1)
        icnt.pop(0)
        icnt.cycle(2)
        assert icnt.can_inject(0)

    def test_pending_counts(self):
        icnt = make_icnt(latency=3)
        icnt.inject(0, 1, "a", now=0)
        assert icnt.pending(1) == 1
        assert icnt.total_pending() == 1


class TestNextVisit:
    """The visit half of ``horizons``: the next cycle the network needs."""

    def test_idle_network_has_no_event(self):
        assert make_icnt().horizons(0, [])[0] == float("inf")

    def test_in_flight_packet_reports_arrival(self):
        icnt = make_icnt(latency=7)
        icnt.inject(0, 1, "a", now=2)
        assert icnt.horizons(3, [])[0] == 9

    def test_waiting_output_reports_next_cycle(self):
        icnt = make_icnt(latency=1)
        icnt.inject(0, 1, "a", now=0)
        icnt.cycle(1)
        assert icnt.horizons(5, [])[0] == 6
