"""Tests for the pluggable simulation-backend registry and its engines.

Covers the registry contract (register / look up / list), the capability
model that lets a limited engine decline runs it cannot simulate, the
``backend="auto"`` selection API built on :func:`requirements` /
:func:`supports`, cache-key stability across the backend field's
introduction, and -- most importantly -- cross-backend equivalence: the
vectorized engine must be *bit-identical* to the reference simulator on
every capability, fault schedules, timeout gating and adaptive routing
included.
"""

import contextlib
import dataclasses
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.noc.backends import (
    ALL_CAPABILITIES,
    CAP_ADAPTIVE_ROUTING,
    CAP_FAULTS,
    CAP_GATING,
    CAP_SAMPLING,
    CAP_TRACING,
    BackendCapabilityError,
    ReferenceBackend,
    SimBackend,
    VectorizedBackend,
    check_capabilities,
    get_backend,
    list_backends,
    register_backend,
    required_capabilities,
    requirements,
    resolve_backend,
    supports,
)
from repro.noc.power_gating import TimeoutGatingPolicy
from repro.noc.sim import simulate, run_simulation, zero_load_cache, zero_load_latency
from repro.noc.spec import (
    FaultEvent,
    FaultSchedule,
    SimulationSpec,
    TimeoutGating,
    TrafficSpec,
    stable_key,
)

CFG = NoCConfig()


def make_spec(level=4, rate=0.1, pattern="uniform", seed=0, routing="cdor",
              warmup=200, measure=600, width=4, **kwargs):
    cfg = dataclasses.replace(CFG, mesh_width=width, mesh_height=width)
    topo = SprintTopology.for_level(width, width, level)
    traffic = TrafficSpec(tuple(topo.active_nodes), rate,
                          cfg.packet_length_flits, pattern=pattern, seed=seed)
    return SimulationSpec(topo, traffic, cfg, routing=routing,
                          warmup_cycles=warmup, measure_cycles=measure, **kwargs)


@contextlib.contextmanager
def scratch_backend(name="limited", capabilities=frozenset({CAP_TRACING,
                                                            CAP_SAMPLING}),
                    speed_rank=50):
    """Register a throwaway backend (delegates to the reference engine)."""
    from repro.noc.backends.base import _REGISTRY

    class Scratch:
        def __init__(self):
            self.name = name
            self.capabilities = capabilities
            self.speed_rank = speed_rank

        def run(self, spec, *, telemetry=None):
            check_capabilities(self, spec, telemetry)
            return get_backend("reference").run(spec, telemetry=telemetry)

    backend = register_backend(Scratch())
    try:
        yield backend
    finally:
        _REGISTRY.pop(name, None)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = list_backends()
        assert "reference" in names and "vectorized" in names
        assert names == tuple(sorted(names))

    def test_lookup_returns_declared_engines(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)

    def test_engines_satisfy_the_protocol(self):
        for name in list_backends():
            assert isinstance(get_backend(name), SimBackend)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="vectorized"):
            get_backend("gpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(ReferenceBackend())

    def test_replace_swaps_and_restores(self):
        original = get_backend("vectorized")
        try:
            swapped = register_backend(VectorizedBackend(), replace=True)
            assert get_backend("vectorized") is swapped
            assert swapped is not original
        finally:
            register_backend(original, replace=True)

    def test_malformed_backends_rejected(self):
        class NoName:
            capabilities = frozenset()
            def run(self, spec, **kw): ...

        class NoRun:
            name = "norun"
            capabilities = frozenset()

        class BadCaps:
            name = "badcaps"
            capabilities = ["faults"]
            def run(self, spec, **kw): ...

        with pytest.raises(ValueError, match="name"):
            register_backend(NoName())
        with pytest.raises(ValueError, match="run"):
            register_backend(NoRun())
        with pytest.raises(ValueError, match="capabilities"):
            register_backend(BadCaps())

    def test_declared_capability_sets(self):
        # both built-in engines now cover the full feature set; capability
        # checks exist for third-party backends that do not
        assert get_backend("reference").capabilities == ALL_CAPABILITIES
        assert get_backend("vectorized").capabilities == ALL_CAPABILITIES


class TestCapabilities:
    def test_plain_spec_needs_nothing(self):
        assert required_capabilities(make_spec()) == frozenset()

    def test_faulty_spec_needs_faults(self):
        spec = make_spec(level=16, faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        assert CAP_FAULTS in required_capabilities(spec)

    def test_adaptive_routing_flagged(self):
        spec = make_spec(level=16, routing="west_first")
        assert CAP_ADAPTIVE_ROUTING in required_capabilities(spec)

    def test_gating_policy_flagged(self):
        need = required_capabilities(make_spec(gating=TimeoutGating(16)))
        assert CAP_GATING in need

    def test_telemetry_needs_tracing_and_sampling(self):
        from repro.telemetry import Telemetry

        tracing = required_capabilities(make_spec(), telemetry=Telemetry())
        assert CAP_TRACING in tracing and CAP_SAMPLING not in tracing
        sampling = required_capabilities(
            make_spec(), telemetry=Telemetry(sample_interval=50))
        assert CAP_SAMPLING in sampling

    def test_vectorized_accepts_full_capability_runs(self):
        engine = get_backend("vectorized")
        faulted = make_spec(level=16, gating=TimeoutGating(16),
                            faults=FaultSchedule((FaultEvent(cycle=100, node=5),)))
        check_capabilities(engine, faulted)
        check_capabilities(engine, make_spec(level=16, routing="negative_first"))

    def test_limited_backend_declines_with_structured_payload(self):
        spec = make_spec(level=16, gating=TimeoutGating(16),
                         faults=FaultSchedule((FaultEvent(cycle=100, node=5),)))
        with scratch_backend() as backend:
            with pytest.raises(BackendCapabilityError) as excinfo:
                check_capabilities(backend, spec)
        err = excinfo.value
        assert err.backend == backend.name
        assert err.missing == frozenset({CAP_FAULTS, CAP_GATING})
        # both capable engines are offered as alternatives, plus the hint
        assert set(err.alternatives) >= {"reference", "vectorized"}
        assert "backend='auto'" in str(err)

    def test_supports_uses_declared_capabilities(self):
        spec = make_spec(level=16, routing="west_first")
        assert supports(get_backend("vectorized"), spec)
        assert supports(get_backend("reference"), spec)
        with scratch_backend() as backend:
            assert not supports(backend, spec)
            assert supports(backend, make_spec())

    def test_requirements_public_api(self):
        spec = make_spec(level=16, gating=TimeoutGating(16),
                         faults=FaultSchedule((FaultEvent(cycle=100, node=5),)))
        need = requirements(spec)
        assert need == frozenset({CAP_FAULTS, CAP_GATING})
        adaptive = requirements(make_spec(level=16, routing="west_first"))
        assert adaptive == frozenset({CAP_ADAPTIVE_ROUTING})
        assert requirements(make_spec()) == frozenset()

    def test_vectorized_accepts_sampling(self):
        from repro.telemetry import Telemetry

        engine = get_backend("vectorized")
        check_capabilities(engine, make_spec(),
                           telemetry=Telemetry(sample_interval=25))

    def test_sampling_refusal_keeps_its_hint(self):
        """A backend without the capability still gets the guidance."""
        from repro.telemetry import Telemetry

        class NoSampling:
            name = "nosampling"
            capabilities = frozenset({CAP_TRACING})
            def run(self, spec, **kw): ...

        with pytest.raises(BackendCapabilityError, match="sample_interval"):
            check_capabilities(NoSampling(), make_spec(),
                               telemetry=Telemetry(sample_interval=25))

    def test_error_carries_structured_fields(self):
        err = BackendCapabilityError("vectorized", frozenset({CAP_FAULTS}))
        assert err.backend == "vectorized"
        assert err.missing == frozenset({CAP_FAULTS})
        assert isinstance(err, ValueError)

    def test_reference_accepts_everything(self):
        engine = get_backend("reference")
        spec = make_spec(level=16, gating=TimeoutGating(16),
                         faults=FaultSchedule((FaultEvent(cycle=100, node=5),)))
        check_capabilities(engine, spec)


class TestCacheKeys:
    """Adding the backend field must not invalidate pre-existing caches."""

    def test_default_backend_absent_from_canonical_form(self):
        from repro.noc.spec import _canonical

        payload = _canonical(make_spec())
        assert "backend" not in payload
        assert "backend" in _canonical(make_spec(backend="vectorized"))

    def test_default_and_explicit_reference_share_a_key(self):
        assert make_spec().cache_key() == make_spec(backend="reference").cache_key()

    def test_non_default_backend_keys_separately(self):
        assert make_spec().cache_key() != make_spec(backend="vectorized").cache_key()

    def test_with_backend_round_trip(self):
        spec = make_spec()
        fast = spec.with_backend("vectorized")
        assert fast.backend == "vectorized"
        assert fast.with_backend("reference").cache_key() == spec.cache_key()

    def test_empty_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            make_spec(backend="")

    def test_faults_none_is_the_empty_schedule(self):
        spec, default = make_spec(faults=None), make_spec()
        assert spec == default and spec.faults == FaultSchedule()
        assert spec.cache_key() == default.cache_key()
        assert spec.to_wire() == default.to_wire()

    def test_auto_key_builds_no_spec(self, monkeypatch):
        """An auto spec keys as its resolved engine without rebuilding
        itself (a rebuild re-runs the O(level^2) endpoint check)."""
        spec = make_spec(level=16, backend="auto")
        expected = make_spec(level=16, backend="vectorized").cache_key()
        built = []
        post_init = SimulationSpec.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(SimulationSpec, "__post_init__", counting)
        assert spec.cache_key() == expected
        assert built == []

    def test_zero_load_memo_keys_by_backend(self):
        topo = SprintTopology.for_level(4, 4, 4)
        ref = zero_load_latency(topo, CFG, "cdor")
        fast = zero_load_latency(topo, CFG, "cdor", backend="vectorized")
        assert ref == fast  # same analytic model today
        cache = zero_load_cache()
        # the default engine keeps the historical (backend-free) key shape
        assert cache.get(stable_key(("zero_load_latency", topo, CFG, "cdor"))) == ref
        assert cache.get(stable_key(
            ("zero_load_latency", "vectorized", topo, CFG, "cdor"))) == fast


class TestAutoBackend:
    """``backend="auto"`` resolves through the public requirements/supports
    API to the fastest capable engine, without perturbing cache keys."""

    def test_auto_resolves_to_fastest_capable(self):
        assert make_spec(backend="auto").resolved_backend() == "vectorized"
        assert resolve_backend(make_spec()).name == "vectorized"

    def test_auto_covers_the_full_capability_grid(self):
        faulted = make_spec(level=16, backend="auto", faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        adaptive = make_spec(level=16, backend="auto", routing="west_first")
        assert faulted.resolved_backend() == "vectorized"
        assert adaptive.resolved_backend() == "vectorized"

    def test_auto_prefers_higher_speed_rank(self):
        with scratch_backend(name="turbo", capabilities=ALL_CAPABILITIES,
                             speed_rank=99):
            assert make_spec(backend="auto").resolved_backend() == "turbo"

    def test_auto_skips_backends_missing_a_capability(self):
        spec = make_spec(level=16, backend="auto", faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        with scratch_backend(name="turbo", speed_rank=99):  # no faults token
            assert spec.resolved_backend() == "vectorized"

    def test_auto_resolution_failure_is_structured(self):
        from repro.noc.backends.base import _REGISTRY

        saved = dict(_REGISTRY)
        try:
            _REGISTRY.clear()
            with scratch_backend():  # tracing/sampling only
                spec = make_spec(level=16, backend="auto", faults=FaultSchedule(
                    (FaultEvent(cycle=100, node=5),)))
                with pytest.raises(BackendCapabilityError, match="auto"):
                    spec.resolved_backend()
        finally:
            _REGISTRY.clear()
            _REGISTRY.update(saved)

    def test_resolution_derives_requirements_once(self, monkeypatch):
        from repro.noc.backends import base

        calls = []
        required = base.required_capabilities

        def counting(spec, telemetry=None):
            calls.append(spec)
            return required(spec, telemetry)

        monkeypatch.setattr(base, "required_capabilities", counting)
        assert len(list_backends()) >= 2
        assert resolve_backend(make_spec()).name == "vectorized"
        assert len(calls) == 1

    def test_auto_cache_key_is_the_resolved_engines(self):
        auto = make_spec(backend="auto")
        assert auto.cache_key() == make_spec(
            backend=auto.resolved_backend()).cache_key()

    def test_auto_never_changes_explicit_backend_keys(self):
        explicit = make_spec(backend="vectorized")
        default = make_spec()
        keys = (explicit.cache_key(), default.cache_key())
        with scratch_backend(name="turbo", capabilities=ALL_CAPABILITIES,
                             speed_rank=999):
            assert (explicit.cache_key(), default.cache_key()) == keys

    def test_simulate_accepts_auto(self):
        spec = make_spec(level=8, rate=0.2, seed=5)
        auto = simulate(spec, backend="auto")
        fast = simulate(spec, backend="vectorized")
        assert_identical(auto, fast, "auto override")
        via_field = run_simulation(spec.with_backend("auto"))
        assert_identical(via_field, fast, "auto spec field")


class TestResultCompat:
    def test_pickled_results_keep_their_import_path(self):
        import repro.noc.result
        import repro.noc.sim

        assert repro.noc.sim.SimulationResult is repro.noc.result.SimulationResult


def assert_identical(a, b, label):
    """Every field of two SimulationResults must match exactly."""
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    assert set(da) == set(db)
    for name in da:
        assert da[name] == db[name], f"{label}: field {name!r} diverges"


def spy_on_kernel(monkeypatch):
    """Record what every ``native.execute`` call returns (None when it
    declines the run and the reference engine takes it)."""
    from repro.noc.backends import native

    returned = []
    execute = native.execute

    def spy(*args, **kwargs):
        returned.append(execute(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(native, "execute", spy)
    return returned


class StepCountingPolicy(TimeoutGatingPolicy):
    """Timeout gating with its own ``step``: arbitrary per-cycle Python,
    which is not spec data."""

    def __post_init__(self):
        super().__post_init__()
        self.steps = 0

    def step(self, network):
        self.steps += 1
        super().step(network)


EQUIV_CASES = [
    # (level, rate, pattern, routing)
    (16, 0.05, "uniform", "xy"),
    (16, 0.30, "transpose", "xy"),
    (16, 0.15, "bit_complement", "cdor"),
    (8, 0.20, "uniform", "cdor"),
    (4, 0.10, "tornado", "cdor"),
    (4, 0.45, "hotspot", "cdor"),
    (2, 0.25, "neighbor", "cdor"),
    (1, 0.20, "uniform", "cdor"),
    # adaptive turn models (full mesh only)
    (16, 0.30, "transpose", "west_first"),
    (16, 0.40, "uniform", "negative_first"),
]


class TestCrossBackendEquivalence:
    """The acceptance bar: bit-for-bit agreement on the shared feature set."""

    @pytest.mark.parametrize("level,rate,pattern,routing", EQUIV_CASES)
    def test_results_bit_identical(self, level, rate, pattern, routing):
        spec = make_spec(level=level, rate=rate, pattern=pattern,
                         routing=routing, seed=level)
        ref = simulate(spec, backend="reference")
        fast = simulate(spec, backend="vectorized")
        assert_identical(ref, fast, f"L{level} r{rate} {pattern}/{routing}")

    def test_saturated_run_agrees(self):
        spec = make_spec(level=16, rate=1.8, routing="xy",
                         warmup=200, measure=400, drain_cycles=500)
        ref = simulate(spec, backend="reference")
        fast = simulate(spec, backend="vectorized")
        assert ref.saturated and fast.saturated
        assert_identical(ref, fast, "saturated")

    @pytest.mark.parametrize("width,rate,pattern,routing,idle_timeout", [
        (8, 0.4, "tornado", "cdor", None),
        (8, 0.3, "hotspot", "cdor", None),
        (8, 0.45, "uniform", "west_first", None),
        (4, 0.3, "hotspot", "xy", 8),
    ])
    def test_saturated_meshes_agree(self, width, rate, pattern, routing,
                                    idle_timeout):
        """Contention is where the kernel's allocation masks skip work:
        saturated full meshes, activity counters and gating stats included."""
        spec = make_spec(level=width * width, rate=rate, pattern=pattern,
                         routing=routing, seed=1, width=width, warmup=100,
                         measure=300, drain_cycles=600)
        policies = [TimeoutGatingPolicy(idle_timeout=idle_timeout)
                    if idle_timeout is not None else None for _ in range(2)]
        ref = simulate(spec, gating_policy=policies[0], backend="reference")
        fast = simulate(spec, gating_policy=policies[1], backend="vectorized")
        assert ref.saturated
        assert_identical(ref, fast, f"{width}x{width} {pattern}/{routing}")
        if idle_timeout is not None:
            assert policies[0].stats.gate_events > 0
            assert policies[0].stats == policies[1].stats

    @pytest.mark.parametrize("route", [
        "native-disabled", "vcs-above-max", "repeated-endpoint",
        "policy-subclass",
    ])
    def test_reference_fallback_agrees(self, route, monkeypatch):
        """Every run the kernel does not cover declines it and runs on the
        reference engine, with the same bits.  A policy subclass is not
        such a run any more: the ``gating_policy=`` adapter refuses it
        before any engine starts."""
        spec = make_spec(level=8, rate=0.2, seed=3)
        returned = spy_on_kernel(monkeypatch)
        if route == "policy-subclass":
            policy = StepCountingPolicy(idle_timeout=16)
            for backend in ("vectorized", "reference"):
                with pytest.raises(TypeError, match="SimulationSpec.gating"):
                    simulate(spec, gating_policy=policy, backend=backend)
            assert returned == [] and policy.steps == 0
            return
        if route == "native-disabled":
            monkeypatch.setenv("REPRO_NOC_NATIVE", "0")
        elif route == "vcs-above-max":
            spec = dataclasses.replace(spec, config=NoCConfig(vcs_per_port=13))
        elif route == "repeated-endpoint":
            spec = dataclasses.replace(spec, traffic=dataclasses.replace(
                spec.traffic, endpoints=(0, 1, 1, 4)))
        fast = simulate(spec, backend="vectorized")
        assert returned == [None]
        monkeypatch.delenv("REPRO_NOC_NATIVE", raising=False)
        ref = simulate(spec, backend="reference")
        assert_identical(ref, fast, route)

    def test_spec_backend_field_selects_engine(self):
        spec = make_spec(level=4, rate=0.1, seed=7)
        via_field = run_simulation(spec.with_backend("vectorized"))
        via_override = run_simulation(spec, backend="vectorized")
        assert_identical(via_field, via_override, "selection")


FAULT_CASES = [
    # (label, level, rate, routing, events)
    ("permanent router", 16, 0.12, "cdor",
     (FaultEvent(cycle=300, node=5),)),
    ("transient router", 16, 0.15, "xy",
     (FaultEvent(cycle=300, node=5, duration=400),)),
    ("two faults", 16, 0.20, "cdor",
     (FaultEvent(cycle=250, node=5),
      FaultEvent(cycle=500, node=10, duration=400))),
    ("link fault", 16, 0.10, "cdor",
     (FaultEvent(cycle=400, kind="link", link=(5, 6)),)),
    ("degraded region", 9, 0.15, "cdor",
     (FaultEvent(cycle=350, node=5),)),
]


class TestFullCapabilityEquivalence:
    """The tentpole bar: the fast path must match the reference bit for bit
    on faulted, gated and adaptively-routed runs -- counters, latency
    distribution and gating statistics included."""

    @pytest.mark.parametrize("label,level,rate,routing,events",
                             FAULT_CASES, ids=[c[0] for c in FAULT_CASES])
    def test_faulted_runs_bit_identical(self, label, level, rate, routing,
                                        events):
        spec = make_spec(level=level, rate=rate, routing=routing, seed=level,
                         faults=FaultSchedule(events))
        ref = simulate(spec, backend="reference")
        fast = simulate(spec, backend="vectorized")
        assert ref.reconfigurations >= 1  # the schedule actually fired
        assert_identical(ref, fast, label)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_faulted_runs_deterministic_across_seeds(self, seed):
        """Seed-swept fault schedules: every seed reproduces exactly on
        re-run and agrees across engines."""
        spec = make_spec(level=16, rate=0.15, warmup=200, measure=400,
                         faults=FaultSchedule(
                             (FaultEvent(cycle=300, node=5, duration=300),))
                         ).with_seed(seed)
        first = simulate(spec, backend="vectorized")
        again = simulate(spec, backend="vectorized")
        assert_identical(first, again, f"rerun seed={seed}")
        assert_identical(simulate(spec, backend="reference"), first,
                         f"cross-engine seed={seed}")

    @staticmethod
    def _gated_pair(spec):
        ref_policy = TimeoutGatingPolicy(idle_timeout=16)
        fast_policy = TimeoutGatingPolicy(idle_timeout=16)
        ref = simulate(spec, gating_policy=ref_policy, backend="reference")
        fast = simulate(spec, gating_policy=fast_policy, backend="vectorized")
        return ref, fast, ref_policy.stats, fast_policy.stats

    @pytest.mark.parametrize("level,rate", [(16, 0.05), (16, 0.30), (9, 0.08)])
    def test_gated_runs_bit_identical(self, level, rate, monkeypatch):
        returned = spy_on_kernel(monkeypatch)
        spec = make_spec(level=level, rate=rate, seed=level)
        ref, fast, ref_stats, fast_stats = self._gated_pair(spec)
        assert ref_stats.gate_events > 0  # the policy actually gated
        assert_identical(ref, fast, f"gated L{level} r{rate}")
        assert dataclasses.asdict(ref_stats) == dataclasses.asdict(fast_stats)
        self._assert_on_kernel(returned)

    @staticmethod
    def _assert_on_kernel(returned):
        from repro.noc.backends import native

        if native.available():
            assert len(returned) == 1 and returned[0] is not None

    def test_gated_faulted_run_bit_identical(self, monkeypatch):
        returned = spy_on_kernel(monkeypatch)
        spec = make_spec(level=16, rate=0.05, seed=3, faults=FaultSchedule(
            (FaultEvent(cycle=300, node=5, duration=300),)))
        ref, fast, ref_stats, fast_stats = self._gated_pair(spec)
        assert ref.reconfigurations == 2
        assert_identical(ref, fast, "gated+faulted")
        assert dataclasses.asdict(ref_stats) == dataclasses.asdict(fast_stats)
        self._assert_on_kernel(returned)

    def test_faulted_counters_surface_drops(self):
        spec = make_spec(level=16, rate=0.25, seed=5, faults=FaultSchedule(
            (FaultEvent(cycle=400, node=5),)))
        ref = simulate(spec, backend="reference")
        fast = simulate(spec, backend="vectorized")
        assert fast.packets_dropped == ref.packets_dropped > 0
        assert fast.min_region_level == ref.min_region_level < 16


def needs_kernel():
    from repro.noc.backends import native

    if not native.available():
        pytest.skip("the C kernel is not available")
    return native


class TestNativeKernel:
    """The compiled library itself: its cache name, its self-check, and
    the call signature the frozen benchmark reads from outside."""

    def test_library_cache_name_keys_source_and_flags(self):
        from repro.noc.backends import native

        source, flags = native._KERNEL_SOURCE, native._CFLAGS
        path = native._library_path(source, flags)
        assert path == native._library_path(source, tuple(flags))
        assert path != native._library_path(source, flags[:-1])
        assert path != native._library_path(source, ("-O3", *flags[1:]))
        assert path != native._library_path(source + "\n", flags)

    @pytest.mark.parametrize("line,mutant,message", [
        # a tail that leaves no longer frees its out-VC in the mask
        ("freeo[i] |= BIT(os);", "", "allocation masks or caches disagree"),
        # a body flit exposed at a VC's front may bid in its write cycle
        ("sa_ready[g] = fifo[g * depth + rh[g]].arr + 1;",
         "sa_ready[g] = fifo[g * depth + rh[g]].arr;",
         "allocation masks or caches disagree"),
        # one credit too many on every link
        ("credits[i * slots + port * vcs + v] = depth;",
         "credits[i * slots + port * vcs + v] = depth + 1;",
         "credits are not conserved"),
    ])
    def test_self_check_raises_on_a_broken_kernel(self, line, mutant,
                                                  message, monkeypatch,
                                                  tmp_path):
        native = needs_kernel()
        assert native._KERNEL_SOURCE.count(line) == 1
        monkeypatch.setattr(native, "_KERNEL_SOURCE",
                            native._KERNEL_SOURCE.replace(line, mutant))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_failed", False)
        # saturated, so the run ends at its deadline with full buffers
        spec = make_spec(level=16, rate=1.8, routing="xy", warmup=200,
                         measure=400, drain_cycles=500)
        with pytest.raises(RuntimeError, match=f"self-check failed: .*{message}"):
            native.execute(spec)

    def test_kernel_takes_every_array_but_out_by_address(self, monkeypatch):
        """Only ``out`` crosses the call as an ndarray (the frozen
        benchmark reads it); every other array goes as a bare address,
        with no per-call conversion."""
        import numpy as np

        native = needs_kernel()
        lib = native._lib
        arrays = []

        class Spy:
            def __getattr__(self, name):
                return getattr(lib, name)

            def run_kernel(self, *args):
                arrays.append([i for i, arg in enumerate(args)
                               if isinstance(arg, np.ndarray)])
                return lib.run_kernel(*args)

        monkeypatch.setattr(native, "_lib", Spy())
        spec = make_spec(level=16, rate=0.3, seed=2, warmup=100, measure=300,
                         drain_cycles=500, gating=TimeoutGating(8),
                         faults=FaultSchedule((FaultEvent(cycle=150, node=5),)))
        from repro.telemetry import Telemetry

        result = native.execute(spec, telemetry=Telemetry(sample_interval=50))
        assert result.reconfigurations == 1
        assert arrays == [[24], [24]]

    @pytest.mark.parametrize("faulted", [False, True])
    def test_frozen_benchmark_reads_the_kernel_call(self, faulted,
                                                    monkeypatch):
        """perfbench/layers.py wraps ``run_kernel`` and reads its
        arguments by position (router count, start cycle, ``out``)."""
        needs_kernel()
        root = pathlib.Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        import layers

        events = (FaultEvent(cycle=200, node=5, duration=100),) if faulted else ()
        spec = make_spec(level=16, rate=0.2, seed=3, warmup=100, measure=300,
                         drain_cycles=500, faults=FaultSchedule(events))
        with layers.LayerTrace() as trace:
            result = simulate(spec, backend="vectorized")
        counts = trace.counts
        assert counts["kernel_calls"] == 1 + result.reconfigurations
        assert counts["kernel_cycles"] == result.cycles_run == 421
        if faulted:
            assert result.reconfigurations == 2
            assert counts["kernel_router_cycles"] == 5836
        else:
            assert counts["kernel_router_cycles"] == result.cycles_run * 16


class TestSamplingParity:
    """Sampled telemetry runs must produce identical sample streams and
    metrics on every backend -- the fast path earns its ``sampling``
    capability by emitting byte-for-byte what the reference emits."""

    @staticmethod
    def _run(spec, backend, interval=100):
        from repro.telemetry import Telemetry

        tel = Telemetry(sample_interval=interval)
        result = simulate(spec, backend=backend, telemetry=tel)
        events = tel.tracer.drain()
        samples = [e["data"] for e in events if e["ev"] == "sample"]
        spans = sorted(e["name"] for e in events if e["ev"] == "begin")
        return result, samples, spans, tel.metrics.snapshot()

    SAMPLED_CASES = [
        dict(level=16, rate=0.30, pattern="transpose", routing="xy", seed=2),
        dict(level=4, rate=0.15, seed=3),
        dict(level=4, rate=0.001, seed=9),  # mostly idle: back-filled rows
        dict(level=1, rate=0.20, seed=7),
        # the tentpole capabilities must sample identically too
        dict(level=16, rate=0.25, seed=4, routing="west_first"),
        dict(level=16, rate=0.12, seed=5,
             faults=FaultSchedule((FaultEvent(cycle=300, node=5),))),
    ]

    @pytest.mark.parametrize("case", SAMPLED_CASES)
    def test_python_kernel_matches_reference(self, case, monkeypatch):
        """With the C kernel disabled, a sampled vectorized run declines it
        and runs on the pure-Python reference engine, emitting the same
        samples, spans and metrics."""
        monkeypatch.setenv("REPRO_NOC_NATIVE", "0")
        returned = spy_on_kernel(monkeypatch)
        spec = make_spec(**case)
        fast, samples, spans, metrics = self._run(spec, "vectorized")
        assert returned == [None]
        ref, ref_samples, ref_spans, ref_metrics = self._run(spec, "reference")
        assert_identical(ref, fast, f"sampled {case}")
        assert ref_samples == samples
        assert ref_spans == spans
        assert ref_metrics == metrics

    @pytest.mark.parametrize("case", SAMPLED_CASES)
    def test_native_kernel_matches_reference(self, case, monkeypatch):
        from repro.noc.backends import native

        monkeypatch.delenv("REPRO_NOC_NATIVE", raising=False)
        if not native.available():
            pytest.skip("no C compiler / native kernel disabled")
        spec = make_spec(**case)
        ref, ref_samples, ref_spans, ref_metrics = self._run(spec, "reference")
        fast, samples, spans, metrics = self._run(spec, "vectorized")
        assert_identical(ref, fast, f"native sampled {case}")
        assert ref_samples == samples
        assert ref_spans == spans
        assert ref_metrics == metrics

    @pytest.mark.parametrize("events", [
        (FaultEvent(cycle=300, node=5, duration=300),),
        (FaultEvent(cycle=300, node=5), FaultEvent(cycle=500, node=9)),
        # boundary landing in the drain window, after the measure flip
        (FaultEvent(cycle=300, node=5, duration=450),),
    ], ids=["transient", "two-permanent", "recovery-in-drain"])
    def test_faulted_span_stream_ordered_identically(self, events):
        """Reconfigure spans must interleave with the phase transitions in
        the reference's exact order (boundary processing precedes the
        phase check at the same cycle), with identical payloads."""
        from repro.telemetry import Telemetry

        spec = make_spec(level=16, rate=0.12, seed=6,
                         faults=FaultSchedule(events))
        streams = {}
        for backend in ("reference", "vectorized"):
            tel = Telemetry(sample_interval=100)
            simulate(spec, backend=backend, telemetry=tel)
            streams[backend] = [
                (e["name"],
                 {k: v for k, v in e.items() if k not in ("id", "parent", "ts")})
                for e in tel.tracer.drain() if e["ev"] == "begin"
            ]
        assert streams["reference"] == streams["vectorized"]
        assert [n for n, _ in streams["reference"]].count("reconfigure") \
            == len(FaultSchedule(events).boundaries())

    def test_saturated_sampled_run_agrees(self):
        spec = make_spec(level=16, rate=1.8, routing="xy",
                         warmup=200, measure=400, drain_cycles=500)
        ref, ref_samples, _, _ = self._run(spec, "reference")
        fast, samples, _, _ = self._run(spec, "vectorized")
        assert ref.saturated and fast.saturated
        assert ref_samples == samples

    def test_gated_sampled_run_agrees(self):
        from repro.telemetry import Telemetry

        spec = make_spec(level=16, rate=0.05, seed=3)
        streams = {}
        for backend in ("reference", "vectorized"):
            tel = Telemetry(sample_interval=100)
            result = simulate(spec, gating_policy=TimeoutGatingPolicy(
                idle_timeout=16), telemetry=tel, backend=backend)
            events = tel.tracer.drain()
            streams[backend] = (
                dataclasses.asdict(result),
                [e["data"] for e in events if e["ev"] == "sample"],
                tel.metrics.snapshot(),
            )
        assert streams["reference"] == streams["vectorized"]
        # gated routers are visible in the sample payloads
        assert any(stats["gated"]
                   for _, samples, _ in [streams["reference"]]
                   for data in samples for stats in data["routers"].values())

    def test_sample_payload_shape(self):
        _, samples, _, _ = self._run(make_spec(level=4, rate=0.15), "vectorized")
        assert samples
        for data in samples:
            assert data["cycle"] % 100 == 0
            assert set(data) == {"cycle", "in_flight", "buffered", "routers"}
            assert len(data["routers"]) == 4
            for stats in data["routers"].values():
                assert set(stats) == {"inj", "ej", "occ", "gated"}
                assert stats["gated"] == 0


class TestInvariants:
    """Physical invariants that must hold on every backend."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_deadlock_free_below_saturation(self, backend):
        res = simulate(make_spec(level=16, rate=0.1, routing="cdor"),
                       backend=backend)
        assert not res.saturated
        assert res.packets_ejected == res.packets_measured

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_latency_monotone_in_load(self, backend):
        lat = [simulate(make_spec(level=16, rate=r, routing="xy"),
                        backend=backend).avg_latency
               for r in (0.05, 0.3, 0.6)]
        assert lat[0] < lat[1] < lat[2]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_region_latency_convex_in_level(self, backend):
        """Smaller sprint regions have shorter paths: zero-load-ish latency
        must not increase as the region shrinks (paper Fig. 9 shape)."""
        lat = {level: simulate(make_spec(level=level, rate=0.05), backend=backend
                               ).avg_latency
               for level in (2, 4, 8, 16)}
        assert lat[2] <= lat[4] <= lat[8] <= lat[16]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_activity_covers_exactly_the_region(self, backend):
        res = simulate(make_spec(level=4, rate=0.1), backend=backend)
        assert res.powered_router_count == 4


class TestDriverPlumbing:
    def test_live_generator_pins_reference(self):
        from repro.noc.traffic import TrafficGenerator

        topo = SprintTopology.for_level(4, 4, 4)
        traffic = TrafficGenerator(list(topo.active_nodes), 0.1,
                                   CFG.packet_length_flits)
        with pytest.raises(ValueError, match="reference"):
            run_simulation(topo, traffic, CFG, backend="vectorized")

    def test_cli_sweep_accepts_backend(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--levels", "4", "--rates", "0.1",
                     "--warmup", "100", "--measure", "300", "--drain", "400",
                     "--backend", "vectorized"]) == 0
        assert "grid sweep" in capsys.readouterr().out

    def test_cli_sweep_accepts_auto_backend(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--levels", "16", "--rates", "0.1",
                     "--warmup", "100", "--measure", "300", "--drain", "600",
                     "--backend", "auto", "--fault", "5@200"]) == 0
        out = capsys.readouterr().out
        assert "grid sweep" in out and "min lvl" in out

    def test_cli_rejects_backend_capability_mismatch(self, capsys):
        """Eager grid validation reports *every* incompatible point."""
        from repro.cli import main

        with scratch_backend() as backend:  # no faults capability
            code = main(["sweep", "--levels", "16", "--rates", "0.1", "0.2",
                         "--patterns", "uniform", "transpose",
                         "--backend", backend.name, "--fault", "5@100"])
        out = capsys.readouterr().out
        assert code == 2
        # one line per bad point (4) plus the closing summary line
        assert out.count("invalid sweep grid") == 5
        assert "4 of 4 points" in out
        assert "does not support: faults" in out

    def test_cli_backends_matrix(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "vectorized" in out
        for token in sorted(ALL_CAPABILITIES):
            assert token in out
        assert "auto" in out

    def test_system_backend_parameter(self):
        from repro.core.system import NoCSprintingSystem

        fast = NoCSprintingSystem(backend="vectorized")
        ref = NoCSprintingSystem()
        spec = fast.simulation_spec("dedup", "noc_sprinting",
                                    warmup_cycles=100, measure_cycles=300)
        assert spec.backend == "vectorized"
        a = fast.evaluate("dedup", "noc_sprinting", simulate_network=True,
                          warmup_cycles=200, measure_cycles=600).network
        b = ref.evaluate("dedup", "noc_sprinting", simulate_network=True,
                         warmup_cycles=200, measure_cycles=600).network
        assert a.avg_latency == b.avg_latency
        assert a.total_power_w == b.total_power_w


# ----------------------------------------------------------------------
# generative differential testing: reference vs fast path
# ----------------------------------------------------------------------
# endpoint counts each pattern accepts on meshes up to 3x3; uniform and
# hotspot take counts where k - 1 is not a power of two, so the kernel's
# randrange port runs its rejection loop
_PATTERN_LEVELS = {
    "uniform": (1, 2, 3, 4, 6, 7, 9),
    "hotspot": (2, 3, 4, 6, 7, 9),
    "neighbor": (2, 5, 8),
    "bit_complement": (3, 4, 7),
    "tornado": (2, 5, 6, 9),
    "transpose": (4, 9),
    "shuffle": (2, 4, 8),
}
_PACKET = CFG.packet_length_flits

# every pattern, hotspot at both ends of its fraction range and between
_VARIANTS = [(pattern, None) for pattern in sorted(_PATTERN_LEVELS)
             if pattern != "hotspot"]
_VARIANTS += [("hotspot", fraction) for fraction in (0.0, 1.0, 0.5)]


@st.composite
def differential_cases(draw, pattern, hotspot_fraction):
    """A small ``pattern`` spec, timeout-gated or not, plus an optional
    sampling interval."""
    level = draw(st.sampled_from(_PATTERN_LEVELS[pattern]))
    side = 2 if level <= 4 and draw(st.booleans()) else 3
    topo = SprintTopology.for_level(side, side, level)
    nodes = topo.active_nodes
    rate = draw(st.one_of(
        st.floats(0.02, 0.6),
        st.sampled_from((float(_PACKET), 1.5 * _PACKET)),  # a packet every cycle
        st.just(0.0),
    ))
    hotspot = {}
    if pattern == "hotspot":
        hotspot = dict(hotspot_fraction=hotspot_fraction,
                       hotspot_endpoint=draw(st.sampled_from(nodes)))
    traffic = TrafficSpec(tuple(nodes), rate, _PACKET, pattern=pattern,
                          seed=draw(st.integers(0, 2**31 - 1)), **hotspot)
    routing = "cdor"
    if level == side * side:
        routing = draw(st.sampled_from(("cdor", "xy", "west_first",
                                        "negative_first")))
    warmup = draw(st.integers(0, 30))
    measure = draw(st.integers(1, 50))
    faults = None
    victims = [n for n in nodes if n != topo.master]
    # faults reconfigure deterministically, so adaptive routing sits out
    if victims and routing in ("cdor", "xy") and draw(st.booleans()):
        faults = FaultSchedule((FaultEvent(
            cycle=draw(st.integers(1, warmup + measure)),
            node=draw(st.sampled_from(victims)),
            duration=draw(st.one_of(st.none(), st.integers(1, 60))),
        ),))
    spec = SimulationSpec(
        topo, traffic, CFG, routing=routing, warmup_cycles=warmup,
        measure_cycles=measure, drain_cycles=draw(st.integers(0, 120)),
        faults=faults,
    )
    interval = draw(st.sampled_from((7, None, 1, 20)))
    gating = draw(st.one_of(st.none(), st.builds(
        TimeoutGating, st.integers(1, 40), st.frozensets(st.sampled_from(nodes)))))
    return dataclasses.replace(spec, gating=gating), interval


def _observed(spec, backend, interval):
    """A run's whole result (``result.gating`` included), plus its
    begin-span stream, samples and metrics when ``interval`` turns
    sampled telemetry on."""
    from repro.telemetry import Telemetry

    tel = Telemetry(sample_interval=interval) if interval is not None else None
    result = simulate(spec, backend=backend, telemetry=tel)
    if tel is None:
        return dataclasses.asdict(result), None
    events = tel.tracer.drain()
    spans = [
        (e["name"],
         {k: v for k, v in e.items() if k not in ("id", "parent", "ts")})
        for e in events if e["ev"] == "begin"
    ]
    samples = [e["data"] for e in events if e["ev"] == "sample"]
    return dataclasses.asdict(result), (spans, samples, tel.metrics.snapshot())


class TestGenerativeDifferential:
    """Reference and fast path agree on every generated small spec: all
    seven patterns, rejection-sampled destinations, idle and overloaded
    rates, hotspot corner cases, mid-window fault boundaries, timeout
    gating (statistics included) and sampled telemetry (per-router
    injections and gating flags compared interval by interval)."""

    @pytest.mark.parametrize("pattern,hotspot_fraction", _VARIANTS)
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fast_path_matches_reference(self, pattern, hotspot_fraction,
                                         data):
        spec, interval = data.draw(differential_cases(pattern, hotspot_fraction))
        assert (_observed(spec, "reference", interval)
                == _observed(spec, "vectorized", interval))

    def test_fault_boundary_mid_window_carries_the_traffic_stream(self):
        """Two boundaries inside the measure window: the traffic stream
        runs on across three kernel segments, and survivors re-enter with
        their original creation cycles."""
        spec = make_spec(level=9, rate=0.35, seed=11, warmup=30, measure=90,
                         drain_cycles=200, faults=FaultSchedule(
                             (FaultEvent(cycle=60, node=4, duration=30),)))
        reference = _observed(spec, "reference", 10)
        assert reference[0]["reconfigurations"] == 2
        assert reference[0]["packets_retransmitted"] > 0
        assert reference == _observed(spec, "vectorized", 10)


# ----------------------------------------------------------------------
# the canonical form against a plain recursive canonicalizer: the
# cache-key and wire-body rules as first written, kept here verbatim so
# a faster canonicalization can be checked against them
# ----------------------------------------------------------------------
def _reference_field_default(f: dataclasses.Field):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return dataclasses.MISSING


def _reference_canonical(obj):
    """A JSON-serializable canonical form of nested dataclasses/values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        payload = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            # Fields marked `omit_when_default` vanish from the canonical
            # form while they hold their default value, so adding such a
            # field to a spec class never invalidates existing cache keys.
            if f.metadata.get("omit_when_default") and value == _reference_field_default(f):
                continue
            payload[f.name] = _reference_canonical(value)
        payload["__class__"] = type(obj).__name__
        return payload
    if isinstance(obj, dict):
        return {str(k): _reference_canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_reference_canonical(item) for item in obj]
    if isinstance(obj, frozenset):
        return sorted(_reference_canonical(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a cache key")


def _reference_stable_key(obj) -> str:
    import hashlib
    import json

    blob = json.dumps(_reference_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reference_cache_key(spec) -> str:
    if spec.backend == "auto":
        spec = dataclasses.replace(spec, backend=spec.resolved_backend())
    return _reference_stable_key(("simulate", spec))


class TestCanonicalForm:
    """``cache_key()`` and the wire body equal what the plain recursive
    canonicalizer above makes of the same spec, on every drawn spec."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_recursive_canonicalizer(self, data):
        from repro.noc.spec import spec_to_wire

        variant = data.draw(st.sampled_from(_VARIANTS))
        spec, _ = data.draw(differential_cases(*variant))
        spec = spec.with_backend(
            data.draw(st.sampled_from(("auto", "reference", "vectorized"))))
        assert spec.cache_key() == _reference_cache_key(spec)
        assert spec_to_wire(spec)["spec"] == _reference_canonical(spec)

    def test_key_of_values_outside_specs(self):
        topo = SprintTopology.for_level(4, 4, 4)
        for value in (("zero_load_latency", topo, CFG, "cdor"),
                      {"b": (1, 2.5), 3: [None, True, frozenset({2, 1})]},
                      ("simulate", make_spec(gating=TimeoutGating(4)))):
            assert stable_key(value) == _reference_stable_key(value)
        with pytest.raises(TypeError, match="cannot canonicalize set"):
            stable_key({1, 2})
