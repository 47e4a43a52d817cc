"""Power models: DSENT-substitute router/link energy and McPAT-substitute
chip power, plus the bridge that converts simulator activity into power."""

from repro.util.lazy import lazy_exports

#: public name -> the module it is imported from on first access
_EXPORTS = {
    "NetworkPowerReport": ".activity",
    "network_power": ".activity",
    "EnergyReport": ".energy",
    "burst_energy": ".energy",
    "energy_comparison": ".energy",
    "DIM_POINTS": ".dvfs",
    "NOMINAL_POINT": ".dvfs",
    "DvfsConfiguration": ".dvfs",
    "DvfsPlanner": ".dvfs",
    "OperatingPoint": ".dvfs",
    "ChipPowerModel": ".chip_power",
    "ChipPowerParams": ".chip_power",
    "ChipPowerReport": ".chip_power",
    "DEFAULT_PARAMS": ".chip_power",
    "TILE_PITCH_MM": ".link_power",
    "LinkPowerModel": ".link_power",
    "link_lengths_mm": ".link_power",
    "PowerBreakdown": ".router_power",
    "RouterPowerModel": ".router_power",
    "FIG2_OPERATING_POINTS": ".technology",
    "TECH_45NM": ".technology",
    "TechNode": ".technology",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "NetworkPowerReport",
    "network_power",
    "ChipPowerModel",
    "ChipPowerParams",
    "ChipPowerReport",
    "DEFAULT_PARAMS",
    "TILE_PITCH_MM",
    "LinkPowerModel",
    "link_lengths_mm",
    "PowerBreakdown",
    "RouterPowerModel",
    "TechNode",
    "TECH_45NM",
    "FIG2_OPERATING_POINTS",
    "DIM_POINTS",
    "NOMINAL_POINT",
    "DvfsConfiguration",
    "DvfsPlanner",
    "OperatingPoint",
    "EnergyReport",
    "burst_energy",
    "energy_comparison",
]
