"""Raster memory of ground already seen by the camera.

Backs the footprint-overlap penalty used by the planner's reward and the
coverage statistics used by the mission harness. Cells are binary
seen-flags, the whole raster one Python int (standard library only, for a
cheap cold start); once set they never clear within a run. Tree search works
on a scratch copy (`snapshot`), never on the live map: the copy is another
`CoverageMap` over the same geometry, and a stamp replaces its int, so
resetting it to the live map is one assignment.

Cost model: a read or stamp costs time in proportion to the raster's size,
not the window's, since each `&` and `|` runs over the whole int. Every
shipped and benchmarked raster has at most 8,320 cells. The planner's
imagined step (`GenerativeModel.step`) reads and stamps a 7 x 5 m window of
its scratch map with one `|` and one `&` and bit count: about 0.6 us on
that raster and 2.9 us on a 200 x 50 m survey at 0.5 m (61,600 cells),
against about ten times as long for a loop over the window's rows on the
same int (host-time timeit, best of 5, 2-core VM, Python 3.11).
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .geometry import Footprint


@dataclass
class Rect:
    """Axis-aligned rectangle, min/max corners."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("rectangle has negative extent")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


MAX_RASTER_CELLS = 10**7  # bounds the coverage raster and the heatmap counts


def grid_shape(width: float, height: float, cell: float, what: str) -> tuple[int, int]:
    """Rows and columns of ``cell``-sized cells over ``width`` x ``height``, at
    least one each; ``ValueError`` naming ``what`` when that is more than
    ``MAX_RASTER_CELLS`` cells."""
    try:
        ny = max(1, int(math.ceil(height / cell)))
        nx = max(1, int(math.ceil(width / cell)))
    except OverflowError:  # an extent over a tiny cell that overflows to inf
        ny = nx = math.inf
    if not ny * nx <= MAX_RASTER_CELLS:
        raise ValueError(f"{what} needs {ny * nx:.3g} cells, more than {MAX_RASTER_CELLS:.0e}")
    return ny, nx


@dataclass(slots=True)
class CoverageMap:
    """Seen-flag raster covering the survey area plus ``MARGIN`` per side.

    Bit ``iy * nx + ix`` of ``cells`` is set when the centre of cell
    ``(iy, ix)`` has been inside some stamped footprint. The margin is at
    least one footprint so that stamps near the survey edge are not clipped.
    A rectangle read or stamp is one ``&`` or ``|`` of ``cells`` with a cached
    block mask shifted into place, in time proportional to the raster's size,
    not the rectangle's. Live and scratch maps are the same type: a scratch
    map is a `snapshot` that the planner's model stamps and resets.
    """

    MARGIN = 10.0  # metres of raster beyond each survey edge

    survey: Rect
    cell_size: float = 0.5
    origin_x: float = field(init=False)
    origin_y: float = field(init=False)
    nx: int = field(init=False)
    ny: int = field(init=False)
    cells: int = field(init=False, repr=False)
    _blocks: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.origin_x = self.survey.x_min - self.MARGIN
        self.origin_y = self.survey.y_min - self.MARGIN
        self.ny, self.nx = self.raster_shape(self.survey, self.cell_size)
        self.cells = 0
        self._blocks = {}

    @classmethod
    def raster_shape(cls, survey: Rect, cell_size: float) -> tuple[int, int]:
        """Rows and columns of the raster over ``survey`` plus ``MARGIN`` per side."""
        return grid_shape(survey.width + 2 * cls.MARGIN, survey.height + 2 * cls.MARGIN,
                          cell_size, f"survey with a {cls.MARGIN:g} m margin at obs_cell "
                          f"{cell_size:g} m")

    # -- index helpers -------------------------------------------------

    def _rect_mask(self, x0: float, y0: float, x1: float, y1: float) -> tuple[int, int]:
        """Bits of the cells whose centres fall in [x0, x1] x [y0, y1], clipped
        to the map, and how many cells that is (0 and 0 when none do). Called
        on every planner step, so it avoids helper calls."""
        ox, oy, cs, nx = self.origin_x, self.origin_y, self.cell_size, self.nx
        c0 = math.ceil((x0 - ox) / cs - 0.5)
        c1 = math.floor((x1 - ox) / cs - 0.5)
        r0 = math.ceil((y0 - oy) / cs - 0.5)
        r1 = math.floor((y1 - oy) / cs - 0.5)
        c0, r0 = (c0 if c0 > 0 else 0), (r0 if r0 > 0 else 0)
        c1, r1 = (c1 if c1 < nx else nx - 1), (r1 if r1 < self.ny else self.ny - 1)
        if c0 > c1 or r0 > r1:
            return 0, 0
        rows, cols = r1 - r0 + 1, c1 - c0 + 1
        block = self._blocks.get((rows, cols))
        if block is None:
            block = self.block_mask(rows, cols)
        return block << (r0 * nx + c0), rows * cols

    def block_mask(self, rows: int, cols: int) -> int:
        """The mask of a ``rows`` x ``cols`` window at the raster's first cell,
        ``cols`` ones in each of ``rows`` rows of ``nx`` bits, stored in the
        block-mask cache that a window's read or stamp looks up first."""
        nx = self.nx
        block = self._blocks[rows, cols] = (
            ((1 << cols) - 1) * (((1 << rows * nx) - 1) // ((1 << nx) - 1)))
        return block

    def snapshot(self) -> CoverageMap:
        """A scratch map seen as this one is now: a shallow copy that shares
        the geometry and the block-mask cache, so stamping it leaves this map
        unchanged."""
        return copy.copy(self)

    @property
    def nbytes(self) -> int:
        """Size of the raster at one bit per cell, ny * ceil(nx / 8)."""
        return self.ny * ((self.nx + 7) // 8)

    # -- stamping ------------------------------------------------------

    def stamp_footprint(self, fp: Footprint) -> None:
        """Set every cell whose centre lies inside the footprint.

        Out-of-map portions are clipped silently.
        """
        nx = self.nx
        for r, mask in self._quad_rows(fp):
            self.cells |= mask << (r * nx)

    def stamp_rect(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """Fast path for axis-aligned footprints (the yaw = 0 flight case)."""
        self.cells |= self._rect_mask(x0, y0, x1, y1)[0]

    # -- queries -------------------------------------------------------

    def overlap_fraction(self, fp: Footprint) -> float:
        """Fraction of the footprint's cells already seen (0 virgin, 1 fully
        revisited). A footprint covering zero cells counts as fully seen so
        degenerate views are never rewarded."""
        cells, nx = self.cells, self.nx
        n = seen = 0
        for r, mask in self._quad_rows(fp):
            n += mask.bit_count()
            seen += (cells & (mask << (r * nx))).bit_count()
        return seen / n if n else 1.0

    def rect_overlap(self, x0: float, y0: float, x1: float, y1: float) -> float:
        """`overlap_fraction` fast path for axis-aligned rectangles."""
        mask, n = self._rect_mask(x0, y0, x1, y1)
        if not n:
            return 1.0
        return (self.cells & mask).bit_count() / n

    def coverage_ratio(self) -> float:
        """Fraction of survey-area cells seen so far."""
        s = self.survey
        if not self._rect_mask(s.x_min, s.y_min, s.x_max, s.y_max)[1]:
            return 0.0
        return self.rect_overlap(s.x_min, s.y_min, s.x_max, s.y_max)

    # -- internals -----------------------------------------------------

    def _quad_rows(self, fp: Footprint) -> Iterator[tuple[int, int]]:
        """``(row, column mask)`` for each row under the footprint's bounding
        box: the cells whose centres pass every edge's half-plane test (1e-12
        tolerance) of the convex, counterclockwise footprint."""
        box, n = self._rect_mask(*fp.bbox())
        if not n:
            return
        # the box's corner cells are its lowest and highest bits
        r0, c0 = divmod((box & -box).bit_length() - 1, self.nx)
        r1, c1 = divmod(box.bit_length() - 1, self.nx)
        ox, oy, size = self.origin_x, self.origin_y, self.cell_size
        cs = fp.corners
        edges = [(ax, ay, bx - ax, by - ay) for (ax, ay), (bx, by) in zip(cs, cs[1:] + cs[:1])]
        for r in range(r0, r1 + 1):
            y = oy + (r + 0.5) * size
            yield r, sum(1 << c for c in range(c0, c1 + 1) if all(
                ex * (y - ay) - ey * (ox + (c + 0.5) * size - ax) >= -1e-12
                for ax, ay, ex, ey in edges))
