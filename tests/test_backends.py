"""Tests for the simulation-core backend registry and core selection.

Covers the :mod:`repro.simt.backend` front door (registry contents,
lookup errors, exactness queries, third-party registration), the two
ways to choose a core — ``GPUConfig.core_backend`` and the ``core=``
override on :class:`Session`, :class:`ParallelExecutor` and the CLI —
and the estimator's payload labelling: the API-surface half of the
golden-equivalence guarantees pinned in ``test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments import Experiment, Session
from repro.gpu import GPU
from repro.simt.backend import (
    CORE_BACKENDS,
    CoreBackend,
    available_core_backends,
    core_backend_is_exact,
    get_core_backend,
    register_core_backend,
)
from repro.simt.core import FastCore, KernelLaunch
from repro.simt.ldst import LoadStoreUnit
from repro.utils.errors import ConfigurationError
from repro.workloads import (
    create_workload,
    register_workload,
    unregister_workload,
)
from repro.workloads.vecadd import VecAddWorkload
from tests.conftest import make_fast_config


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_core_backends() == [
            "estimator", "fast", "reference", "vector",
        ]

    def test_vector_is_an_alias_of_fast(self):
        backend = get_core_backend("vector")
        assert backend.exact and backend.factory is FastCore
        gpu = GPU(make_fast_config(core_backend="vector"))
        assert all(type(sm) is FastCore for sm in gpu.sms)

    def test_launch_reopens_the_fast_gate(self):
        gpu = GPU(make_fast_config())
        workload = create_workload("vecadd", n=64)
        spec = workload.prepare(gpu)
        sm = gpu.sms[0]
        sm._sm_wake = float("inf")
        sm.launch_cta(0, KernelLaunch(workload.program, spec.grid_dim,
                                      spec.block_dim, spec.params), now=0)
        assert sm._sm_wake == 0
        assert sm.cycle(0)

    def test_exactness_flags(self):
        assert get_core_backend("reference").exact
        assert get_core_backend("fast").exact
        assert get_core_backend("vector").exact
        assert not get_core_backend("estimator").exact

    def test_only_reference_uses_reference_memory(self):
        for name in available_core_backends():
            backend = get_core_backend(name)
            assert backend.reference_memory == (name == "reference")

    def test_backends_have_descriptions(self):
        for name in available_core_backends():
            assert get_core_backend(name).description

    @pytest.mark.parametrize("core", available_core_backends())
    def test_every_core_builds_the_one_ldst_unit(self, core):
        gpu = GPU(make_fast_config(core_backend=core))
        assert all(type(sm.ldst) is LoadStoreUnit for sm in gpu.sms)

    def test_unknown_backend_raises_naming_available(self):
        with pytest.raises(ConfigurationError, match="vector"):
            get_core_backend("no-such-core")

    def test_unknown_backend_is_not_exact(self):
        # Conservative: an unknown name must never join the byte-identity
        # store-key class.
        assert not core_backend_is_exact("no-such-core")

    def test_exactness_by_name(self):
        assert core_backend_is_exact("fast")
        assert core_backend_is_exact("vector")
        assert not core_backend_is_exact("estimator")

    def test_third_party_registration_dispatches(self):
        """A registered backend is constructible through GPUConfig.

        Built from the reference factory but running the fast memory
        system, it stays out of the gated drive loop, so the clock never
        jumps: results match the ``reference`` core byte for byte.
        """
        reference = get_core_backend("reference")
        backend = CoreBackend(
            name="test-custom",
            factory=reference.factory,
            exact=False,
            description="registry test double",
        )
        register_core_backend(backend)
        try:
            assert "test-custom" in available_core_backends()
            assert not core_backend_is_exact("test-custom")
            results = {}
            for core in ("test-custom", "reference"):
                gpu = GPU(make_fast_config(core_backend=core))
                workload = create_workload("bfs", num_nodes=128,
                                           avg_degree=5, block_dim=64,
                                           seed=5)
                results[core] = workload.run(gpu)
                assert workload.verify(gpu)
            assert ([(r.cycles, r.stats) for r in results["test-custom"]]
                    == [(r.cycles, r.stats) for r in results["reference"]])
        finally:
            CORE_BACKENDS.unregister("test-custom")

    def test_duplicate_registration_rejected(self):
        from repro.utils.errors import RegistryError

        with pytest.raises(RegistryError):
            register_core_backend(get_core_backend("fast"))


class TestGPUConfigShim:
    def test_empty_core_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fast_config(core_backend="")

    def test_unknown_backend_fails_at_gpu_construction(self):
        config = make_fast_config(core_backend="no-such-core")
        with pytest.raises(ConfigurationError):
            GPU(config)


class TestSessionShim:
    def test_old_spec_dicts_round_trip(self):
        """Specs predate backends and never carried core fields; their
        dict form (and hash) is untouched by the backend redesign."""
        spec = Experiment.dynamic("gf100", "vecadd", n=256, block_dim=64)
        data = spec.to_dict()
        assert "core" not in data
        rebuilt = Experiment.from_dict(data)
        assert rebuilt.spec_hash() == spec.spec_hash()
        assert rebuilt.to_dict() == data


SMALL_SPEC = Experiment.dynamic("gf100", "vecadd", n=64, block_dim=64)


class ReferenceOnlyVecAdd(VecAddWorkload):
    """vecadd that verifies only when simulated on the reference core."""

    name = "reference_only_test"

    def verify(self, gpu) -> bool:
        return (gpu.core_backend.name == "reference"
                and super().verify(gpu))


class TestCoreSelection:
    """Each spelling that selects a core reaches the reference engine."""

    def test_config_core_backend(self):
        gpu = GPU(make_fast_config(core_backend="reference"))
        assert gpu.core_backend.name == "reference"
        assert gpu.memory_system.reference_memory
        assert {sm.backend_name for sm in gpu.sms} == {"reference"}

    def test_session_core(self):
        record = Session(cache=False, core="reference").run(SMALL_SPEC)
        assert record.gpu.core_backend.name == "reference"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork to see runtime registration")
    def test_parallel_executor_core(self):
        from repro.experiments.parallel import ParallelExecutor

        register_workload(ReferenceOnlyVecAdd)
        try:
            spec = Experiment.dynamic("gf100", "reference_only_test", n=64,
                                      block_dim=64)
            with ParallelExecutor(jobs=1, core="reference") as executor:
                record = executor.run([spec])[0]
        finally:
            unregister_workload(ReferenceOnlyVecAdd.name)
        assert record.payload["verified"]

    def test_cli_core_flag(self, monkeypatch):
        from repro.cli import main

        built = []
        init = GPU.__init__

        def spy(gpu, *args, **kwargs):
            init(gpu, *args, **kwargs)
            built.append(gpu.core_backend.name)

        monkeypatch.setattr(GPU, "__init__", spy)
        assert main(["dynamic", "--config", "gf100", "--workload", "vecadd",
                     "--param", "n=64", "--buckets", "4",
                     "--core", "reference"]) == 0
        assert built and set(built) == {"reference"}


class TestEstimatorLabelling:
    def test_estimator_payload_labelled(self):
        spec = Experiment.dynamic("gf100", "vecadd", n=256, block_dim=64)
        record = Session(cache=False, core="estimator").run(spec)
        assert record.payload["core"] == "estimator"
        assert record.payload["estimated_cycles"] is True

    @pytest.mark.parametrize("core", ["fast", "reference"])
    def test_exact_payloads_unlabelled(self, core):
        """Exact backends add no payload keys: byte-identity extends to
        records produced before backends existed."""
        spec = Experiment.dynamic("gf100", "vecadd", n=256, block_dim=64)
        record = Session(cache=False, core=core).run(spec)
        assert "core" not in record.payload
        assert "estimated_cycles" not in record.payload


class TestEstimatorQuantum:
    """The estimator's LD/ST time quantum is derived from the config."""

    def test_default_quantum_is_adaptive(self):
        from repro.simt.vector import adaptive_time_quantum

        gpu = GPU(make_fast_config(core_backend="estimator"))
        expected = adaptive_time_quantum(gpu.memory_system)
        assert all(sm.ldst.time_quantum == expected for sm in gpu.sms)

    def test_adaptive_quantum_scales_with_latencies(self):
        """Slower memory quantizes coarser — the quantum tracks the
        fastest service path, not a fixed cycle count."""
        from repro.simt.vector import adaptive_time_quantum

        base = GPU(make_fast_config(core_backend="estimator"))
        slowed = GPU(make_fast_config(core_backend="estimator").derive({
            "partition.l2.hit_latency": 197,
            "partition.dram.service_pad": 548,
        }))
        fast_quantum = adaptive_time_quantum(base.memory_system)
        slow_quantum = adaptive_time_quantum(slowed.memory_system)
        assert slow_quantum > fast_quantum
        assert slow_quantum == 8  # the calibrated presets' long-tested value
