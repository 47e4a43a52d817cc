"""Thermal models: RC grid (HotSpot substitute), phase-change-material
sprint budget, and sprint-duration analysis."""

from repro.util.lazy import lazy_exports

#: public name -> the module it is imported from on first access
_EXPORTS = {
    "power_density_summary": ".floorplan",
    "sprint_tile_powers": ".floorplan",
    "uniform_tile_powers": ".floorplan",
    "AMBIENT_K": ".grid",
    "DEFAULT_THERMAL_PARAMS": ".grid",
    "ThermalGrid": ".grid",
    "ThermalParams": ".grid",
    "DEFAULT_PCM": ".pcm",
    "PCMParams": ".pcm",
    "SprintPhases": ".pcm",
    "sprint_duration": ".pcm",
    "sprint_phases": ".pcm",
    "temperature_timeline": ".pcm",
    "SprintDurationResult": ".sprint_duration",
    "duration_gain": ".sprint_duration",
    "useful_sprint_duration": ".sprint_duration",
    "SprintTransient": ".transient_sprint",
    "SprintTransientResult": ".transient_sprint",
    "TransientSample": ".transient_sprint",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "power_density_summary",
    "sprint_tile_powers",
    "uniform_tile_powers",
    "AMBIENT_K",
    "DEFAULT_THERMAL_PARAMS",
    "ThermalGrid",
    "ThermalParams",
    "PCMParams",
    "DEFAULT_PCM",
    "SprintPhases",
    "sprint_duration",
    "sprint_phases",
    "temperature_timeline",
    "SprintDurationResult",
    "duration_gain",
    "useful_sprint_duration",
    "SprintTransient",
    "SprintTransientResult",
    "TransientSample",
]
