"""Transient sprint simulation: the spatial grid coupled to the PCM node.

The steady-state grid (Figure 12) and the lumped PCM timeline (Figure 1)
are two views of the same sprint; this module couples them.  The PCM +
package is a lumped thermal node with a latent-heat plateau:

    C_pcm dT/dt = P_chip - (T - T_amb) / R_sink        (sensible phases)
    T = T_melt while 0 < melted energy < E_latent      (melt plateau)

and at every sample the die's spatial profile rides on the PCM node: the
grid is solved with the PCM temperature as its boundary, so the output
trace carries both the Figure 1 plateau *and* the Figure 12 hotspot peak
at each instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.thermal.grid import ThermalGrid
from repro.thermal.pcm import DEFAULT_PCM, PCMParams


def _sample_pcm(tel, span_id, t, temperature, melted_fraction, phase) -> None:
    """One telemetry sample of the PCM node: headroom gauge + trace point."""
    headroom = round(1.0 - melted_fraction, 6)
    tel.metrics.gauge(
        "pcm_thermal_headroom",
        "Unmelted fraction of the PCM latent-heat budget (0..1).",
    ).set(headroom)
    tel.tracer.sample(
        {
            "t": round(t, 6),
            "pcm_temperature_k": round(temperature, 4),
            "melted_fraction": round(melted_fraction, 6),
            "phase": phase,
        },
        parent=span_id,
    )


@dataclass(frozen=True)
class TransientSample:
    """One instant of a transient sprint."""

    time_s: float
    pcm_temperature_k: float
    peak_die_temperature_k: float
    melted_fraction: float
    phase: str  # "heating", "melting", "post-melt", "limit"


@dataclass
class SprintTransientResult:
    """A transient sprint trace."""

    samples: list[TransientSample] = field(default_factory=list)
    reached_limit_at_s: float | None = None
    # (time_s, stage index entered) for each staged retreat taken
    retreats: list[tuple[float, int]] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.samples[-1].time_s if self.samples else 0.0

    @property
    def peak_die_temperature_k(self) -> float:
        return max(s.peak_die_temperature_k for s in self.samples)

    def phase_boundaries(self) -> dict[str, float]:
        """First time each phase is entered."""
        boundaries: dict[str, float] = {}
        for sample in self.samples:
            boundaries.setdefault(sample.phase, sample.time_s)
        return boundaries


class SprintTransient:
    """Integrate a sprint's thermal trajectory with spatial resolution."""

    def __init__(
        self,
        grid: ThermalGrid | None = None,
        pcm: PCMParams = DEFAULT_PCM,
        sink_resistance_k_per_w: float | None = None,
        pcm_capacitance_j_per_k: float | None = None,
    ):
        self.grid = grid or ThermalGrid(4, 4, 4)
        self.pcm = pcm
        # by default the sink removes exactly the sustainable power at the
        # melt temperature -- consistent with the lumped PCM model
        self.sink_resistance = sink_resistance_k_per_w or (
            (pcm.melt_temperature_k - pcm.start_temperature_k)
            / pcm.sustainable_power_w
        )
        self.pcm_capacitance = pcm_capacitance_j_per_k or pcm.sensible_capacitance_j_per_k

    def run(
        self,
        tile_powers: Sequence[float],
        duration_s: float,
        dt_s: float = 2e-3,
        samples: int = 60,
        telemetry=None,
    ) -> SprintTransientResult:
        """Simulate a sprint at constant tile powers.

        Stops early when the PCM node hits the max die temperature (the
        forced single-core fallback of Figure 1).  ``telemetry`` (a
        :class:`~repro.telemetry.Telemetry` bundle) records a
        ``thermal_sprint`` span with PCM-headroom samples at the trace's
        own sample cadence.
        """
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("need positive duration and dt")
        total_power = float(sum(tile_powers))
        # the spatial offset of the die's hotspot above the PCM/boundary
        # node is load-dependent but time-invariant (linear RC): solve once
        params = self.grid.params
        die_profile = self.grid.steady_state(tile_powers)
        hotspot_offset = float(die_profile.max()) - params.ambient_k - (
            self.grid.spreader_temperature(tile_powers) - params.ambient_k
        )

        span = (
            telemetry.tracer.span(
                "thermal_sprint", staged=False,
                power_w=round(total_power, 3), duration_s=duration_s,
            )
            if telemetry is not None
            else None
        )
        result = SprintTransientResult()
        temperature = self.pcm.start_temperature_k
        melted_j = 0.0
        steps = int(round(duration_s / dt_s))
        sample_every = max(1, steps // samples)
        for step in range(steps + 1):
            t = step * dt_s
            if temperature < self.pcm.melt_temperature_k and melted_j == 0.0:
                phase = "heating"
            elif melted_j < self.pcm.latent_energy_j:
                phase = "melting"
            elif temperature < self.pcm.max_temperature_k:
                phase = "post-melt"
            else:
                phase = "limit"

            if step % sample_every == 0 or phase == "limit":
                # spreader rise follows the PCM node during a transient
                global_rise = temperature - params.ambient_k
                peak = params.ambient_k + global_rise + hotspot_offset
                melted_fraction = min(1.0, melted_j / self.pcm.latent_energy_j)
                result.samples.append(
                    TransientSample(
                        time_s=t,
                        pcm_temperature_k=temperature,
                        peak_die_temperature_k=peak,
                        melted_fraction=melted_fraction,
                        phase=phase,
                    )
                )
                if telemetry is not None:
                    _sample_pcm(telemetry, span.id, t, temperature,
                                melted_fraction, phase)
            if phase == "limit":
                result.reached_limit_at_s = t
                break

            removed = (temperature - self.pcm.start_temperature_k) / self.sink_resistance
            net = total_power - removed
            if phase == "melting" and net > 0:
                melted_j += net * dt_s  # latent heat absorbs the excess
            else:
                temperature += net * dt_s / self.pcm_capacitance
                temperature = max(temperature, self.pcm.start_temperature_k)
                if temperature >= self.pcm.melt_temperature_k and melted_j < self.pcm.latent_energy_j:
                    temperature = self.pcm.melt_temperature_k
        if span is not None:
            span.annotate(
                duration_sustained_s=round(result.duration_s, 6),
                reached_limit=result.reached_limit_at_s is not None,
            )
            span.end()
        return result

    def run_staged(
        self,
        stage_tile_powers: Sequence[Sequence[float]],
        duration_s: float,
        dt_s: float = 2e-3,
        samples: int = 60,
        telemetry=None,
    ) -> SprintTransientResult:
        """Simulate a sprint that *retreats* through power stages.

        ``stage_tile_powers`` is a descending ladder of tile-power vectors
        (e.g. full sprint region, half region, nominal).  Whenever the PCM
        node reaches the max die temperature the sprint drops to the next
        stage instead of aborting; each retreat is recorded in
        ``result.retreats``.  The run only stops early when the *last*
        stage still cannot hold the thermal limit -- the staged-retreat
        counterpart of the all-or-nothing stop in :meth:`run`.
        """
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("need positive duration and dt")
        if not stage_tile_powers:
            raise ValueError("need at least one power stage")
        params = self.grid.params

        def stage_state(tile_powers):
            total = float(sum(tile_powers))
            die = self.grid.steady_state(tile_powers)
            offset = float(die.max()) - params.ambient_k - (
                self.grid.spreader_temperature(tile_powers) - params.ambient_k
            )
            return total, offset

        stage = 0
        total_power, hotspot_offset = stage_state(stage_tile_powers[0])
        span = (
            telemetry.tracer.span(
                "thermal_sprint", staged=True,
                stages=len(stage_tile_powers), duration_s=duration_s,
            )
            if telemetry is not None
            else None
        )
        result = SprintTransientResult()
        temperature = self.pcm.start_temperature_k
        melted_j = 0.0
        steps = int(round(duration_s / dt_s))
        sample_every = max(1, steps // samples)
        for step in range(steps + 1):
            t = step * dt_s
            if temperature < self.pcm.melt_temperature_k and melted_j == 0.0:
                phase = "heating"
            elif melted_j < self.pcm.latent_energy_j:
                phase = "melting"
            elif temperature < self.pcm.max_temperature_k:
                phase = "post-melt"
            else:
                phase = "limit"

            if step % sample_every == 0 or phase == "limit":
                global_rise = temperature - params.ambient_k
                peak = params.ambient_k + global_rise + hotspot_offset
                melted_fraction = min(1.0, melted_j / self.pcm.latent_energy_j)
                result.samples.append(
                    TransientSample(
                        time_s=t,
                        pcm_temperature_k=temperature,
                        peak_die_temperature_k=peak,
                        melted_fraction=melted_fraction,
                        phase=phase,
                    )
                )
                if telemetry is not None:
                    _sample_pcm(telemetry, span.id, t, temperature,
                                melted_fraction, phase)
            if phase == "limit":
                if stage + 1 < len(stage_tile_powers):
                    # staged retreat: drop to the next (lower) power stage
                    # and keep integrating; the stage gets one step to
                    # prove it can cool before the next retreat fires
                    stage += 1
                    total_power, hotspot_offset = stage_state(
                        stage_tile_powers[stage]
                    )
                    result.retreats.append((t, stage))
                    if telemetry is not None:
                        telemetry.metrics.counter(
                            "thermal_retreats_total",
                            "Staged power retreats during transient sprints.",
                        ).inc()
                        telemetry.tracer.event(
                            "thermal_retreat", parent=span.id,
                            t=round(t, 6), stage=stage,
                            power_w=round(total_power, 3),
                        )
                else:
                    result.reached_limit_at_s = t
                    break

            removed = (temperature - self.pcm.start_temperature_k) / self.sink_resistance
            net = total_power - removed
            if phase == "melting" and net > 0:
                melted_j += net * dt_s
            else:
                temperature += net * dt_s / self.pcm_capacitance
                temperature = max(temperature, self.pcm.start_temperature_k)
                if temperature >= self.pcm.melt_temperature_k and melted_j < self.pcm.latent_energy_j:
                    temperature = self.pcm.melt_temperature_k
        if span is not None:
            span.annotate(
                retreats=len(result.retreats),
                reached_limit=result.reached_limit_at_s is not None,
            )
            span.end()
        return result
