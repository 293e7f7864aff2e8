"""CPU tiling of the wavefront grid.

The CPU phases of the three-phase strategy partition their region into square
``cpu_tile x cpu_tile`` tiles.  Tiles themselves form a coarser wavefront: a
tile may be computed once its west, north and north-west neighbour tiles are
done, and all cells inside a tile are computed sequentially to benefit from
cache reuse (Section 2 of the paper).

:class:`TileDecomposition` provides both the schedule used by the functional
CPU-parallel executor and the closed-form quantities (tiles per tile-diagonal,
critical-path lengths) used by the analytic cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import InvalidParameterError


@dataclass(frozen=True)
class Tile:
    """A rectangular tile ``[row_start, row_stop) x [col_start, col_stop)``."""

    tile_row: int
    tile_col: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int


class TileDecomposition:
    """Square tiling of a ``rows x cols`` grid with tile side ``tile``."""

    def __init__(self, rows: int, cols: int, tile: int) -> None:
        if rows < 1 or cols < 1:
            raise InvalidParameterError(f"grid shape must be positive, got {rows}x{cols}")
        if tile < 1:
            raise InvalidParameterError(f"tile must be >= 1, got {tile}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.tile = int(min(tile, max(rows, cols)))
        self.tile_rows = -(-rows // self.tile)
        self.tile_cols = -(-cols // self.tile)

    # ------------------------------------------------------------------
    # Individual tiles
    # ------------------------------------------------------------------
    def tile_at(self, tile_row: int, tile_col: int) -> Tile:
        """Return the tile at tile coordinates ``(tile_row, tile_col)``."""
        if not (0 <= tile_row < self.tile_rows and 0 <= tile_col < self.tile_cols):
            raise InvalidParameterError(
                f"tile ({tile_row}, {tile_col}) out of range for a "
                f"{self.tile_rows}x{self.tile_cols} tile grid"
            )
        r0 = tile_row * self.tile
        c0 = tile_col * self.tile
        return Tile(
            tile_row=tile_row,
            tile_col=tile_col,
            row_start=r0,
            row_stop=min(r0 + self.tile, self.rows),
            col_start=c0,
            col_stop=min(c0 + self.tile, self.cols),
        )

    def all_tiles(self) -> list[Tile]:
        """All tiles in row-major tile order."""
        return [
            self.tile_at(tr, tc)
            for tr in range(self.tile_rows)
            for tc in range(self.tile_cols)
        ]

    @property
    def n_tiles(self) -> int:
        """Total number of tiles."""
        return self.tile_rows * self.tile_cols

    # ------------------------------------------------------------------
    # Tile-wavefront schedule
    # ------------------------------------------------------------------
    @property
    def n_tile_diagonals(self) -> int:
        """Number of anti-diagonals of the tile grid."""
        return self.tile_rows + self.tile_cols - 1

    def tiles_on_diagonal(self, td: int) -> list[Tile]:
        """Tiles whose tile coordinates sum to ``td``, ordered by tile row."""
        if td < 0 or td >= self.n_tile_diagonals:
            raise InvalidParameterError(
                f"tile diagonal {td} out of range (0..{self.n_tile_diagonals - 1})"
            )
        lo = max(0, td - (self.tile_cols - 1))
        hi = min(self.tile_rows - 1, td)
        return [self.tile_at(tr, td - tr) for tr in range(lo, hi + 1)]

    def schedule(self) -> list[list[Tile]]:
        """Tile-wavefront schedule: one list of independent tiles per wave."""
        return [self.tiles_on_diagonal(td) for td in range(self.n_tile_diagonals)]

    def tiles_per_diagonal(self) -> np.ndarray:
        """Vector of tile counts per tile-diagonal (closed form, no tile objects)."""
        td = np.arange(self.n_tile_diagonals)
        return np.minimum.reduce(
            [
                td + 1,
                np.full_like(td, self.tile_rows),
                np.full_like(td, self.tile_cols),
                self.tile_rows + self.tile_cols - 1 - td,
            ]
        )

    # ------------------------------------------------------------------
    # Parallel critical-path statistics (used by the cost model)
    # ------------------------------------------------------------------
    def wavefront_waves(self, workers: int) -> int:
        """Number of tile 'waves' when each wave runs at most ``workers`` tiles.

        This is the critical path length of the tile wavefront executed with
        ``workers`` parallel workers, in units of tiles: within one
        tile-diagonal of ``k`` independent tiles, ``ceil(k / workers)`` rounds
        are needed.
        """
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        counts = self.tiles_per_diagonal()
        return int(np.sum(-(-counts // workers)))

    def parallel_efficiency(self, workers: int) -> float:
        """Ratio of ideal to critical-path tile-rounds with ``workers`` workers.

        1.0 means perfect load balance across the tile wavefront; small grids
        or large tiles reduce it because early/late diagonals expose fewer
        independent tiles than there are workers.
        """
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        ideal = self.n_tiles / workers
        waves = self.wavefront_waves(workers)
        if waves == 0:
            return 1.0
        return min(1.0, ideal / waves)


def triangular_tile_waves(dim: int, n_diagonals: int, tile: int, workers: int) -> int:
    """Tile waves needed to cover the first ``n_diagonals`` anti-diagonals.

    Used by the cost model for phase 1 / phase 3 of the hybrid plan, whose CPU
    regions are the triangular sets of cells before/after the GPU band.  A
    tile participates in the region as soon as any of its cells does; the
    count returned is the critical path (in tile rounds) of executing those
    tiles with ``workers`` workers, assuming tiles become ready one
    tile-diagonal at a time.
    """
    if dim < 1:
        raise InvalidParameterError(f"dim must be >= 1, got {dim}")
    if n_diagonals <= 0:
        return 0
    if tile < 1:
        raise InvalidParameterError(f"tile must be >= 1, got {tile}")
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    n_diagonals = min(n_diagonals, 2 * dim - 1)
    tile_side = -(-dim // tile)
    # The triangular region of the first k cell-diagonals touches the first
    # ceil(k / tile) tile-diagonals of the tile grid.
    k_tile_diags = min(-(-n_diagonals // tile), 2 * tile_side - 1)
    td = np.arange(k_tile_diags)
    counts = np.minimum.reduce(
        [td + 1, np.full_like(td, tile_side), 2 * tile_side - 1 - td]
    )
    return int(np.sum(-(-counts // workers)))
