"""CMP workload substrate (gem5 + PARSEC 2.1 substitute): per-benchmark
scaling profiles, the execution-time model, and workload->NoC traffic."""

from repro.util.lazy import lazy_exports

#: public name -> the module it is imported from on first access
_EXPORTS = {
    "LEVEL_TOLERANCE": ".perf_model",
    "SPRINT_LEVELS": ".perf_model",
    "BenchmarkProfile": ".perf_model",
    "SprintDecision": ".perf_model",
    "profile_workload": ".perf_model",
    "LlcAccessStream": ".llc",
    "LlcArchitecture": ".llc",
    "home_bank": ".llc",
    "OnlineParallelismMonitor": ".monitor",
    "monitor_agrees_with_profile": ".monitor",
    "noisy_profile_measure": ".monitor",
    "traffic_for_workload": ".traffic_model",
    "traffic_spec_for_workload": ".traffic_model",
    "FLAT_BENCHMARKS": ".workloads",
    "PARSEC_PROFILES": ".workloads",
    "PEAKING_BENCHMARKS": ".workloads",
    "SCALABLE_BENCHMARKS": ".workloads",
    "SINGLE_CORE_BURST_S": ".workloads",
    "all_profiles": ".workloads",
    "get_profile": ".workloads",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "LEVEL_TOLERANCE",
    "SPRINT_LEVELS",
    "BenchmarkProfile",
    "SprintDecision",
    "profile_workload",
    "traffic_for_workload",
    "traffic_spec_for_workload",
    "FLAT_BENCHMARKS",
    "PARSEC_PROFILES",
    "PEAKING_BENCHMARKS",
    "SCALABLE_BENCHMARKS",
    "SINGLE_CORE_BURST_S",
    "all_profiles",
    "get_profile",
    "LlcAccessStream",
    "LlcArchitecture",
    "home_bank",
    "OnlineParallelismMonitor",
    "monitor_agrees_with_profile",
    "noisy_profile_measure",
]
