"""Strides composed level by level over a table of maps of a finite set of
points to itself, and the row deduplication that numbers such maps.

A walk applies one map per step. Two consecutive steps compose to one map,
so a table of every pair's composition, keyed by the pair of map ids,
advances two steps per lookup; the composed maps, deduplicated, make the
next level up. A walk over ids composed to level l takes one Python step
per 2^l bottom steps, and gathers recover the points in between on the way
down. The maps of level l + 1 include those of level l whenever the bottom
holds the identity, so the levels saturate where a level's maps repeat those
below it, and its pair table then serves every higher level.

``trellis`` builds these levels over its metric automaton's walk (vector
maps) and traceback (survivor-column maps, state after a stride to state
before it, walked from the end of a frame).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# rows with at most this many possible values are deduplicated by counting
# one code per row into a table of every code
CODE_TABLE = 1 << 16


def unique_rows(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """(id of each row, the distinct rows in a fixed order) of a 2-d array
    of entries below ``base``; rows are equal when their entries are. Rows
    with at most ``CODE_TABLE`` possible values are told apart by one
    base-``base`` code each, counted into a table of every code (in code
    order, no sort); longer rows by their bytes, as one sorted void item
    each."""
    count, width = rows.shape
    if base ** width <= CODE_TABLE:
        # every array here is narrow: a gather on narrow indices makes no
        # full-size intp copy of them
        code = rows[:, -1].astype(np.min_scalar_type(base ** width - 1))
        for column in rows.T[-2::-1]:
            code *= base
            np.add(code, column, out=code, casting="unsafe")
        seen = np.zeros(base ** width, dtype=bool)
        seen[code] = True
        ids = np.cumsum(seen, dtype=np.min_scalar_type(base ** width))[code]
        ids -= 1
        distinct = np.flatnonzero(seen)[:, None] // base ** np.arange(width)
        return ids, (distinct % base).astype(rows.dtype)
    rows = np.ascontiguousarray(rows)
    distinct, ids = np.unique(rows.view(f"V{width * rows.itemsize}").ravel(),
                              return_inverse=True)
    return ids, distinct.view(rows.dtype).reshape(len(distinct), width)


def row_ids(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """(id of each row, the distinct rows in order of first appearance) of a
    2-d array of entries below ``base``."""
    ids, distinct = unique_rows(rows, base)
    first = np.full(len(distinct), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    order = np.argsort(first)
    rank = np.argsort(order).astype(np.min_scalar_type(len(order) - 1))
    return rank[ids], distinct[order]


@dataclass(frozen=True)
class Levels:
    """Composed levels over one family of maps. ``ids[0]`` holds the id of
    each bottom key's map. For l >= 1, two consecutive level-(l - 1)
    strides with ids a and then b make one level-l stride, whose map
    (``maps[b]`` after ``maps[a]``) has id ``ids[l][a n + b]``, n =
    ``len(maps[l - 1])``. ``maps[l]`` holds level l's distinct maps, one
    row per map, in ``unique_rows`` order, so a level whose maps are those
    of the level below has the same pair table, and ``repeats`` marks that
    this last table then serves every higher level. A top level whose maps
    were not deduplicated has ids None: its maps are the raw pair table."""

    ids: tuple[np.ndarray | None, ...]
    maps: tuple[np.ndarray, ...]
    repeats: bool

    def depth(self, wanted: int) -> int:
        """The composed levels a walk that wants ``wanted`` runs."""
        return wanted if self.repeats else min(wanted, len(self.ids) - 1)

    def level(self, l: int) -> tuple[np.ndarray | None, np.ndarray]:
        """(ids, maps) of level l."""
        l = min(l, len(self.ids) - 1)
        return self.ids[l], self.maps[l]


def build_levels(bottom: np.ndarray, budget: int, longest: int,
                 ) -> tuple[Levels | None, int]:
    """(levels, their entries) over the maps ``bottom`` (bottom keys,
    points) within ``budget`` entries, or (None, 0) when not one composed
    level fits. A level is added while its raw pair table of n^2 maps fits
    what is left, since its pair ids and distinct maps take no more. Maps
    with more than ``CODE_TABLE`` possible values are not deduplicated
    above the bottom: their first composed level is the top, kept raw.
    Levels stop at the first that repeats the one below, or once a top
    stride would span more than ``longest`` bottom strides."""
    points = bottom.shape[1]
    ids, maps = unique_rows(bottom, points)
    level_ids = [ids.astype(np.min_scalar_type(len(maps) - 1))]
    level_maps = [maps]
    spent, repeats = ids.size + maps.size, False
    while (not repeats and level_ids[-1] is not None
           and 1 << len(level_ids) <= longest):
        n = len(maps)
        if spent + n * n * (points + 1) > budget:
            break
        pairs = compose(maps)
        if points ** points > CODE_TABLE:
            level_ids.append(None)
            level_maps.append(pairs)
            spent += pairs.size
            break
        ids, composed = unique_rows(pairs, points)
        repeats = np.array_equal(composed, maps)
        if not repeats:
            maps = composed
            spent += maps.size
        spent += ids.size
        level_ids.append(ids.astype(np.min_scalar_type(len(maps) - 1)))
        level_maps.append(maps)
    if len(level_ids) == 1:
        return None, 0
    return Levels(tuple(level_ids), tuple(level_maps), repeats), spent


def compose(maps: np.ndarray) -> np.ndarray:
    """Every pair of maps composed: row a n + b is ``maps[b]`` after
    ``maps[a]``, in the maps' dtype."""
    n, points = maps.shape
    pairs = np.empty((n, n, points), dtype=maps.dtype)
    after = np.ascontiguousarray(maps.T)
    for v in range(points):
        pairs[:, :, v] = after[maps[:, v]]
    return pairs.reshape(n * n, points)


def level_walk(levels: Levels, depth: int, keys: np.ndarray,
               ) -> tuple[np.ndarray, list[int]]:
    """(the point before each bottom step, the walks end to end; the point
    after the last step of each walk) of B walks from point 0 over the
    bottom keys ``keys`` (B, steps), whose step count is a multiple of
    2^depth. The ids are composed up to level ``depth``, one gather per
    level; each walk takes one Python step per level-``depth`` stride; the
    point before the second half of each level-l stride is the first
    half's map of the point before it, one gather per level. No stride
    spans two walks, so every gather runs on the walks laid end to end."""
    at = [levels.level(l) for l in range(depth + 1)]
    ids = [at[0][0].take(keys.reshape(-1))]
    for (table, _), (_, below) in zip(at[1:], at):
        pairs = np.multiply(ids[-1][0::2], len(below), dtype=np.intp)
        pairs += ids[-1][1::2]
        ids.append(pairs if table is None else table.take(pairs))
    points = at[0][1].shape[1]
    flat = memoryview(at[depth][1].reshape(-1))
    before, ends = [], []
    for walk in np.multiply(ids[-1], points, dtype=np.intp).reshape(
            len(keys), -1).tolist():
        p = 0
        for row in walk:
            before.append(p)
            p = flat[row + p]
        ends.append(p)
    before = np.fromiter(before, np.intp, len(ids[-1]))
    for l in reversed(range(depth)):
        first = np.multiply(ids[l][0::2], points, dtype=np.intp)
        first += before
        both = np.empty(2 * len(before), dtype=np.intp)
        both[0::2] = before
        both[1::2] = at[l][1].reshape(-1).take(first)
        before = both
    return before, ends
