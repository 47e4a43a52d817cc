"""RC thermal grid model (HotSpot substitute).

The die is a ``width x height`` grid of tiles (the paper abstracts the
16-core CMP as 16 blocks, each holding a CPU, its caches and its network
resources); each tile is refined into ``cells_per_tile x cells_per_tile``
grid cells.  Heat flows laterally between adjacent cells through silicon,
vertically from every cell to the ambient through the package, and --
crucially for hotspot formation -- the die perimeter gets extra conductance
to ambient because heat also spreads sideways into the heat spreader and
package.  Under uniform power this produces the centre-peaked profile of
the paper's Figure 12a.

Steady state solves the sparse linear system ``G T = P + G_amb T_amb``;
the transient solver integrates ``C dT/dt = P - G (T - ...)`` explicitly
and is used for the sprint-phase timeline of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

AMBIENT_K = 318.0  # 45 C, HotSpot's default ambient


@dataclass(frozen=True)
class ThermalParams:
    """Grid conductances and cell heat capacity.

    Calibrated (see ``tools/calibrate_thermal.py``) so that the Figure 12
    scenarios land near the paper's peaks: uniform full-sprint power
    -> ~358 K, clustered 4-core sprint -> ~348 K, floorplanned (scattered)
    4-core sprint -> ~344 K.
    """

    lateral_conductance_w_per_k: float = 0.048116
    vertical_conductance_w_per_k: float = 0.023774
    edge_extra_conductance_w_per_k: float = 0.0041877
    spreader_resistance_k_per_w: float = 0.077035
    cell_heat_capacity_j_per_k: float = 0.002
    ambient_k: float = AMBIENT_K


DEFAULT_THERMAL_PARAMS = ThermalParams()


class ThermalGrid:
    """Finite-difference RC model of a tiled die."""

    def __init__(
        self,
        width_tiles: int = 4,
        height_tiles: int = 4,
        cells_per_tile: int = 4,
        params: ThermalParams = DEFAULT_THERMAL_PARAMS,
    ):
        if width_tiles < 1 or height_tiles < 1:
            raise ValueError("need at least one tile in each dimension")
        if cells_per_tile < 1:
            raise ValueError("cells_per_tile must be positive")
        self.width_tiles = width_tiles
        self.height_tiles = height_tiles
        self.cells_per_tile = cells_per_tile
        self.params = params
        self.nx = width_tiles * cells_per_tile
        self.ny = height_tiles * cells_per_tile
        self._conductance = self._build_conductance_matrix()
        self._ambient_conductance = self._build_ambient_vector()

    # ------------------------------------------------------------------
    def _cell_index(self, cx: int, cy: int) -> int:
        return cy * self.nx + cx

    def _build_ambient_vector(self) -> np.ndarray:
        p = self.params
        g_amb = np.full(self.nx * self.ny, p.vertical_conductance_w_per_k)
        for cy in range(self.ny):
            for cx in range(self.nx):
                if cx in (0, self.nx - 1) or cy in (0, self.ny - 1):
                    g_amb[self._cell_index(cx, cy)] += p.edge_extra_conductance_w_per_k
        return g_amb

    def _build_conductance_matrix(self):
        from scipy.sparse import lil_matrix

        p = self.params
        n = self.nx * self.ny
        matrix = lil_matrix((n, n))
        for cy in range(self.ny):
            for cx in range(self.nx):
                i = self._cell_index(cx, cy)
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ox, oy = cx + dx, cy + dy
                    if 0 <= ox < self.nx and 0 <= oy < self.ny:
                        j = self._cell_index(ox, oy)
                        matrix[i, i] += p.lateral_conductance_w_per_k
                        matrix[i, j] -= p.lateral_conductance_w_per_k
        return matrix.tocsr()

    def _power_per_cell(self, tile_powers: Sequence[float]) -> np.ndarray:
        expected = self.width_tiles * self.height_tiles
        if len(tile_powers) != expected:
            raise ValueError(f"need {expected} tile powers, got {len(tile_powers)}")
        c = self.cells_per_tile
        per_cell = np.zeros(self.nx * self.ny)
        for ty in range(self.height_tiles):
            for tx in range(self.width_tiles):
                share = tile_powers[ty * self.width_tiles + tx] / (c * c)
                for oy in range(c):
                    for ox in range(c):
                        per_cell[self._cell_index(tx * c + ox, ty * c + oy)] = share
        return per_cell

    # ------------------------------------------------------------------
    def spreader_temperature(self, tile_powers: Sequence[float]) -> float:
        """Heat-spreader temperature: ambient plus the global power rise.

        The spreader couples every cell to the *total* chip power (HotSpot's
        spreader/sink layers); it is why a full sprint runs hotter than a
        4-core sprint even at identical per-tile power density.
        """
        total = float(sum(tile_powers))
        return self.params.ambient_k + self.params.spreader_resistance_k_per_w * total

    def steady_state(self, tile_powers: Sequence[float]) -> np.ndarray:
        """Steady-state cell temperatures (kelvin), shape (ny, nx)."""
        power = self._power_per_cell(tile_powers)
        from scipy.sparse import diags
        from scipy.sparse.linalg import spsolve

        spreader_k = self.spreader_temperature(tile_powers)
        system = self._conductance + diags(self._ambient_conductance)
        rhs = power + self._ambient_conductance * spreader_k
        temps = spsolve(system.tocsr(), rhs)
        return temps.reshape(self.ny, self.nx)

    def transient(
        self,
        tile_powers: Sequence[float],
        duration_s: float,
        dt_s: float = 1e-3,
        initial: np.ndarray | None = None,
    ) -> np.ndarray:
        """Explicit transient integration; returns final temperatures."""
        if duration_s < 0 or dt_s <= 0:
            raise ValueError("need non-negative duration and positive dt")
        power = self._power_per_cell(tile_powers)
        c = self.params.cell_heat_capacity_j_per_k
        temps = (
            np.full(self.nx * self.ny, self.params.ambient_k)
            if initial is None
            else initial.reshape(-1).astype(float).copy()
        )
        steps = int(round(duration_s / dt_s))
        from scipy.sparse import diags

        system = self._conductance + diags(self._ambient_conductance)
        ambient_inflow = self._ambient_conductance * self.spreader_temperature(tile_powers)
        for _ in range(steps):
            flow = power + ambient_inflow - system.dot(temps)
            temps = temps + (dt_s / c) * flow
        return temps.reshape(self.ny, self.nx)

    # ------------------------------------------------------------------
    def peak_temperature(self, tile_powers: Sequence[float]) -> float:
        """Steady-state hotspot temperature (kelvin)."""
        return float(self.steady_state(tile_powers).max())

    def tile_temperatures(self, tile_powers: Sequence[float]) -> np.ndarray:
        """Steady-state mean temperature per tile, shape (H, W)."""
        cells = self.steady_state(tile_powers)
        c = self.cells_per_tile
        tiles = np.zeros((self.height_tiles, self.width_tiles))
        for ty in range(self.height_tiles):
            for tx in range(self.width_tiles):
                tiles[ty, tx] = cells[ty * c : (ty + 1) * c, tx * c : (tx + 1) * c].mean()
        return tiles
