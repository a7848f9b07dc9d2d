"""Raster memory of ground already seen by the camera.

Backs the footprint-overlap penalty used by the planner's reward and the
coverage statistics used by the mission harness. Cells are binary
seen-flags, one Python int bitset per row (standard library only, for a cheap
cold start); once set they never clear within a run. Tree search works on
throwaway copies of the rows (`snapshot`), never on the live map.
"""

from __future__ import annotations

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


class Snapshot(list):
    """Copied raster rows; ``nbytes``, ny * ceil(nx / 8), is the size perfbench traces."""
    __slots__ = ("nbytes",)


@dataclass
class CoverageMap:
    """Seen-flag raster covering the survey area plus ``MARGIN`` per side.

    Bit ``ix`` of ``cells[iy]`` is set when the centre of cell ``(iy, ix)``
    has been inside some stamped footprint. The margin is at least one
    footprint so that stamps near the survey edge are not clipped.
    """

    MARGIN = 10.0  # metres of raster beyond each survey edge

    survey: Rect
    cell_size: float = 0.5
    origin_x: float = field(init=False)
    origin_y: float = field(init=False)
    nx: int = field(init=False)
    ny: int = field(init=False)
    cells: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.origin_x = self.survey.x_min - self.MARGIN
        self.origin_y = self.survey.y_min - self.MARGIN
        self.ny, self.nx = self.raster_shape(self.survey, self.cell_size)
        self.cells = [0] * self.ny

    @classmethod
    def raster_shape(cls, survey: Rect, cell_size: float) -> tuple[int, int]:
        """Rows and columns of the raster over ``survey`` plus ``MARGIN`` per side."""
        return grid_shape(survey.width + 2 * cls.MARGIN, survey.height + 2 * cls.MARGIN,
                          cell_size, f"survey with a {cls.MARGIN:g} m margin at obs_cell "
                          f"{cell_size:g} m")

    # -- index helpers -------------------------------------------------

    def _window(self, x0: float, y0: float, x1: float, y1: float) -> tuple[int, int, int, int]:
        """Rows ``r0..r1`` and columns ``c0..c1`` whose cell centres fall in
        [x0, x1] x [y0, y1], clipped to the map (empty when r0 > r1 or
        c0 > c1). Called twice per planner step, so it avoids helper calls."""
        ox, oy, cs = self.origin_x, self.origin_y, self.cell_size
        c0 = math.ceil((x0 - ox) / cs - 0.5)
        c1 = math.floor((x1 - ox) / cs - 0.5)
        r0 = math.ceil((y0 - oy) / cs - 0.5)
        r1 = math.floor((y1 - oy) / cs - 0.5)
        last_c, last_r = self.nx - 1, self.ny - 1
        return (r0 if r0 > 0 else 0, r1 if r1 < last_r else last_r,
                c0 if c0 > 0 else 0, c1 if c1 < last_c else last_c)

    def snapshot(self) -> Snapshot:
        """Copy of the rows for use as a search-time scratch view."""
        copy = Snapshot(self.cells)
        copy.nbytes = self.ny * ((self.nx + 7) // 8)
        return copy

    # -- stamping ------------------------------------------------------

    def stamp_footprint(self, fp: Footprint, cells: list[int] | None = None) -> None:
        """Set every cell whose centre lies inside the footprint.

        Out-of-map portions are clipped silently. ``cells`` lets the planner
        stamp a private snapshot instead of the live map.
        """
        target = self.cells if cells is None else cells
        for r, mask in self._quad_rows(fp):
            target[r] |= mask

    def stamp_rect(self, x0: float, y0: float, x1: float, y1: float,
                   cells: list[int] | None = None) -> None:
        """Fast path for axis-aligned footprints (the yaw = 0 flight case)."""
        target = self.cells if cells is None else cells
        r0, r1, c0, c1 = self._window(x0, y0, x1, y1)
        if c0 <= c1 and r0 <= r1:
            mask = ((1 << (c1 - c0 + 1)) - 1) << c0
            for r in range(r0, r1 + 1):
                target[r] |= mask

    # -- queries -------------------------------------------------------

    def overlap_fraction(self, fp: Footprint, cells: list[int] | None = None) -> float:
        """Fraction of the footprint's cells already seen (0 virgin, 1 fully
        revisited). A footprint covering zero cells counts as fully seen so
        degenerate views are never rewarded."""
        source = self.cells if cells is None else cells
        n = seen = 0
        for r, mask in self._quad_rows(fp):
            n += mask.bit_count()
            seen += (source[r] & mask).bit_count()
        return seen / n if n else 1.0

    def rect_overlap(self, x0: float, y0: float, x1: float, y1: float,
                     cells: list[int] | None = None) -> float:
        """`overlap_fraction` fast path for axis-aligned rectangles."""
        source = self.cells if cells is None else cells
        r0, r1, c0, c1 = self._window(x0, y0, x1, y1)
        if c0 > c1 or r0 > r1:
            return 1.0
        mask = ((1 << (c1 - c0 + 1)) - 1) << c0
        seen = 0
        for row in source[r0:r1 + 1]:
            seen += (row & mask).bit_count()
        return seen / ((r1 - r0 + 1) * (c1 - c0 + 1))

    def coverage_ratio(self) -> float:
        """Fraction of survey-area cells seen so far."""
        s = self.survey
        r0, r1, c0, c1 = self._window(s.x_min, s.y_min, s.x_max, s.y_max)
        if c0 > c1 or r0 > r1:
            return 0.0
        return self.rect_overlap(s.x_min, s.y_min, s.x_max, s.y_max)

    # -- internals -----------------------------------------------------

    def _quad_rows(self, fp: Footprint) -> Iterator[tuple[int, int]]:
        """``(row, column mask)`` for each row under the footprint's bounding
        box: the cells whose centres pass every edge's half-plane test (1e-12
        tolerance) of the convex, counterclockwise footprint."""
        r0, r1, c0, c1 = self._window(*fp.bbox())
        ox, oy, size = self.origin_x, self.origin_y, self.cell_size
        cs = fp.corners
        edges = [(ax, ay, bx - ax, by - ay) for (ax, ay), (bx, by) in zip(cs, cs[1:] + cs[:1])]
        for r in range(r0, r1 + 1):
            y = oy + (r + 0.5) * size
            yield r, sum(1 << c for c in range(c0, c1 + 1) if all(
                ex * (y - ay) - ey * (ox + (c + 0.5) * size - ax) >= -1e-12
                for ax, ay, ex, ey in edges))
