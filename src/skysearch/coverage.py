"""Raster memory of ground already seen by the camera.

Backs the footprint-overlap penalty used by the planner's reward and the
coverage statistics used by the mission harness. Cells are binary
seen-flags; once set they never clear within a run. Tree search works on
throwaway copies of the cell array (`snapshot`), never on the live map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

    def manhattan_diagonal(self) -> float:
        """Manhattan distance between the min and max corners."""
        return self.width + self.height


@dataclass
class CoverageMap:
    """Seen-flag raster covering the survey area plus ``MARGIN`` per side.

    ``cells[iy, ix]`` is 1 when the cell centre has been inside some stamped
    footprint. The margin is at least one footprint so that stamps near the
    survey edge are not clipped.
    """

    MARGIN = 10.0  # metres of raster beyond each survey edge

    survey: Rect
    cell_size: float = 0.5
    origin_x: float = field(init=False)
    origin_y: float = field(init=False)
    nx: int = field(init=False)
    ny: int = field(init=False)
    cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.origin_x = self.survey.x_min - self.MARGIN
        self.origin_y = self.survey.y_min - self.MARGIN
        self.ny, self.nx = self.raster_shape(self.survey, self.cell_size)
        self.cells = np.zeros((self.ny, self.nx), dtype=np.uint8)

    @classmethod
    def raster_shape(cls, survey: Rect, cell_size: float) -> tuple[int, int]:
        """Rows and columns of the raster over ``survey`` plus ``MARGIN`` per side."""
        return (int(math.ceil((survey.height + 2 * cls.MARGIN) / cell_size)),
                int(math.ceil((survey.width + 2 * cls.MARGIN) / cell_size)))

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

    def snapshot(self) -> np.ndarray:
        """Copy of the cell array for use as a search-time scratch view."""
        return self.cells.copy()

    # -- stamping ------------------------------------------------------

    def stamp_footprint(self, fp: Footprint, cells: np.ndarray | None = None) -> None:
        """Set every cell whose centre lies inside the footprint.

        Out-of-map portions are clipped silently. ``cells`` lets the planner
        stamp a private snapshot instead of the live map.
        """
        if self._axis_aligned(fp):
            self.stamp_rect(*fp.bbox(), cells)
            return
        window, inside = self._quad_mask(fp, cells)
        if window is not None:
            window[inside] = 1

    def stamp_rect(self, x0: float, y0: float, x1: float, y1: float,
                   cells: np.ndarray | None = None) -> None:
        """Fast path for axis-aligned footprints (the yaw = 0 flight case)."""
        target = self.cells if cells is None else cells
        r0, r1, c0, c1 = self._window(x0, y0, x1, y1)
        if c0 <= c1 and r0 <= r1:
            target[r0:r1 + 1, c0:c1 + 1].fill(1)

    # -- queries -------------------------------------------------------

    def overlap_fraction(self, fp: Footprint, cells: np.ndarray | None = None) -> float:
        """Fraction of the footprint's cells already seen (0 virgin, 1 fully
        revisited). A footprint covering zero cells counts as fully seen so
        degenerate views are never rewarded."""
        if self._axis_aligned(fp):
            return self.rect_overlap(*fp.bbox(), cells)
        window, inside = self._quad_mask(fp, cells)
        n = 0 if window is None else int(np.count_nonzero(inside))
        if n == 0:
            return 1.0
        return float(np.count_nonzero(window[inside])) / n

    def rect_overlap(self, x0: float, y0: float, x1: float, y1: float,
                     cells: np.ndarray | None = None) -> float:
        """`overlap_fraction` fast path for axis-aligned rectangles."""
        source = self.cells if cells is None else cells
        r0, r1, c0, c1 = self._window(x0, y0, x1, y1)
        if c0 > c1 or r0 > r1:
            return 1.0
        block = source[r0:r1 + 1, c0:c1 + 1]
        return float(np.count_nonzero(block)) / block.size

    def coverage_ratio(self, survey: Rect | None = None) -> float:
        """Fraction of survey-area cells seen so far."""
        rect = self.survey if survey is None else survey
        r0, r1, c0, c1 = self._window(rect.x_min, rect.y_min, rect.x_max, rect.y_max)
        if c0 > c1 or r0 > r1:
            return 0.0
        block = self.cells[r0:r1 + 1, c0:c1 + 1]
        return float(np.count_nonzero(block)) / block.size

    # -- internals -----------------------------------------------------

    def _quad_mask(self, fp: Footprint, cells: np.ndarray | None):
        """The window of ``cells`` under the footprint's bounding box and the
        mask of its cells whose centres lie inside the (convex) footprint,
        by a vectorized half-plane test; ``(None, None)`` when the box misses
        the map."""
        x0, y0, x1, y1 = fp.bbox()
        r0, r1, c0, c1 = self._window(x0, y0, x1, y1)
        if c0 > c1 or r0 > r1:
            return None, None
        cx = self.origin_x + (np.arange(c0, c1 + 1) + 0.5) * self.cell_size
        cy = self.origin_y + (np.arange(r0, r1 + 1) + 0.5) * self.cell_size
        gx, gy = np.meshgrid(cx, cy)
        inside = np.ones(gx.shape, dtype=bool)
        cs = fp.corners
        for i in range(len(cs)):
            ax, ay = cs[i]
            bx, by = cs[(i + 1) % len(cs)]
            inside &= (bx - ax) * (gy - ay) - (by - ay) * (gx - ax) >= -1e-12
        target = self.cells if cells is None else cells
        return target[r0:r1 + 1, c0:c1 + 1], inside

    @staticmethod
    def _axis_aligned(fp: Footprint) -> bool:
        xs = {round(c[0], 9) for c in fp.corners}
        ys = {round(c[1], 9) for c in fp.corners}
        return len(xs) == 2 and len(ys) == 2
