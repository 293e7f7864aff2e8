"""CPU tiling of the wavefront grid.

The paper's CPU phases partition their region into square ``cpu_tile x
cpu_tile`` tiles.  Tiles themselves form a coarser wavefront: a tile may be
computed once its west, north and north-west neighbour tiles are done, and
all cells inside a tile are computed sequentially to benefit from cache
reuse (Section 2 of the paper).

Two decompositions live here:

* :class:`TileDecomposition` is that square tiling, and now the cost
  model's only: its closed-form quantities (tiles per tile-diagonal,
  critical-path lengths) price the paper's plans.  No engine runs it.
* :class:`StripDecomposition` is what the tiled engines run: one strip per
  worker, cut into ``tile``-step regions.  A square tile of side ``T`` pays
  one batch of NumPy calls per tile row or diagonal, so square tiles
  multiply the grid's dispatches by about ``dim / T``; a strip pays one per
  strip row or diagonal.  Its regions keep the square tiling's W / N / NW
  dependency shape, so the same dependency graph drives both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import InvalidParameterError


@dataclass(frozen=True)
class Tile:
    """A region: ``[row_start, row_stop) x [col_start, col_stop)``, cut to
    the anti-diagonals ``[diag_start, diag_stop)`` when those are given.

    Without a diagonal range it is a rectangle.  ``(tile_row, tile_col)``
    names it in its decomposition; its predecessors are the regions at
    ``(tile_row - 1, tile_col)``, ``(tile_row, tile_col - 1)`` and
    ``(tile_row - 1, tile_col - 1)``.
    """

    tile_row: int
    tile_col: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    diag_start: int | None = None
    diag_stop: int | None = None


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


class StripDecomposition:
    """One strip per worker, cut into ``tile``-step regions.

    The geometry the tiled engines (``mp-parallel``, ``pipelined``) run,
    shaped by the walk every region of the problem takes:

    * ``"rows"`` (the kernel has a row form): vertical strips of about
      ``dim / strips`` columns, cut into ``tile``-row rectangles.  Region
      ``(k, p)`` is rows ``[k * tile, (k + 1) * tile)`` of strip ``p``; it
      reads the rows above it in ``(k - 1, p)``, its west column in
      ``(k, p - 1)`` and one corner cell in ``(k - 1, p - 1)``.
    * ``"diagonals"``: horizontal strips of about ``dim / strips`` rows, full
      width.  Region ``(p, k)`` is strip ``p`` cut to the anti-diagonals
      ``[k * tile, (k + 1) * tile)`` (absolute, so regions of neighbouring
      strips line up); it reads the strip above in ``(p - 1, k)`` and
      ``(p - 1, k - 1)`` and its own strip in ``(p, k - 1)``.  A strip's
      diagonals are at most ``dim / strips`` cells long.

    Either way a region's predecessors sit at the W / N / NW keys
    :class:`~repro.runtime.scheduler.DependencyGraph` tracks, and every
    cell a region reads lies in one of them or, transitively, in theirs.
    Regions are stored with tight bounds and empty ones are not created.
    A worker sweeps about ``dim`` rows, or ``dim + dim / strips``
    diagonals, whatever the tile.  ``strips`` is capped at ``dim``.
    """

    def __init__(self, dim: int, tile: int, strips: int, walk: str) -> None:
        if dim < 1 or tile < 1 or strips < 1:
            raise InvalidParameterError(
                f"dim, tile and strips must be >= 1, got {dim}, {tile}, {strips}"
            )
        if walk not in ("rows", "diagonals"):
            raise InvalidParameterError(f"walk must be 'rows' or 'diagonals', got {walk!r}")
        self.dim, self.tile, self.walk = int(dim), int(tile), walk
        self.strips = min(int(strips), self.dim)
        bounds = [p * self.dim // self.strips for p in range(self.strips + 1)]
        self._regions = (
            self._row_regions(bounds) if walk == "rows" else self._diagonal_regions(bounds)
        )

    def _row_regions(self, bounds: list[int]) -> list[Tile]:
        dim, tile = self.dim, self.tile
        return [
            Tile(k, p, k * tile, min((k + 1) * tile, dim), bounds[p], bounds[p + 1])
            for k in range(-(-dim // tile))
            for p in range(self.strips)
        ]

    def _diagonal_regions(self, bounds: list[int]) -> list[Tile]:
        dim, tile = self.dim, self.tile
        regions = []
        for p in range(self.strips):
            r0, r1 = bounds[p], bounds[p + 1]
            last = r1 + dim - 2  # the strip's last diagonal
            for k in range(r0 // tile, last // tile + 1):
                d0, d1 = max(k * tile, r0), min((k + 1) * tile, last + 1)
                rows = max(r0, d0 - dim + 1), min(r1, d1)
                cols = max(0, d0 - rows[1] + 1), min(dim, d1 - rows[0])
                regions.append(Tile(p, k, *rows, *cols, d0, d1))
        return regions

    def all_tiles(self) -> list[Tile]:
        """Every region, strip by strip (row band by row band for ``"rows"``)."""
        return list(self._regions)

    def schedule(self) -> list[list[Tile]]:
        """Barrier waves: the regions of equal ``tile_row + tile_col``."""
        waves: dict[int, list[Tile]] = {}
        for region in sorted(self._regions, key=lambda r: (r.tile_row + r.tile_col, r.tile_row)):
            waves.setdefault(region.tile_row + region.tile_col, []).append(region)
        return list(waves.values())

    @property
    def n_tile_diagonals(self) -> int:
        """Number of barrier waves."""
        return len({r.tile_row + r.tile_col for r in self._regions})


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
