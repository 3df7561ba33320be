"""Partitions, standard Young tableaux, diagonal hooks, symmetric coverings.

Partitions are plain tuples of weakly decreasing positive integers.  Cells
are 1-based pairs (row, column); the content of a cell is column - row.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._frozen import Frozen


class NotSymmetricError(ValueError):
    """A self-conjugate partition was required."""


class BadIndexError(ValueError):
    """A tableau query used an out-of-range entry index."""


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """All partitions of n in lexicographically descending order: the last
    part above 1 drops by one, and greedy parts no larger refill the rest."""
    lam = (n,) if n else ()
    out = [lam]
    while lam and lam[0] > 1:
        i = len(lam) - lam.count(1) - 1  # the parts are weakly decreasing
        v = lam[i] - 1
        fill, rest = divmod(len(lam) - i, v)
        lam = lam[:i] + (v,) * (fill + 1) + ((rest,) if rest else ())
        out.append(lam)
    return tuple(out)


def compositions_of(n: int) -> list:
    """All 2^(n-1) compositions of n, ordered by their bitmask of cuts."""
    out = []
    for cuts in range(1 << max(n - 1, 0)):
        parts, prev = [], 0
        for pos in range(1, n):
            if cuts & (1 << (pos - 1)):
                parts.append(pos - prev)
                prev = pos
        parts.append(n - prev)
        out.append(tuple(parts))
    return out


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(p >= 1 for p in parts) and all(a >= b for a, b in zip(parts, parts[1:]))


def conjugate(lam) -> tuple:
    lam, out = tuple(lam), []
    for i in range(len(lam), 0, -1):  # lam_i - lam_(i+1) columns of height i
        out += [i] * (lam[i - 1] - (lam[i] if i < len(lam) else 0))
    return tuple(out)


def is_self_conjugate(lam) -> bool:
    return tuple(lam) == conjugate(lam)


def require_self_conjugate(lam) -> tuple:
    """lam as a tuple; NotSymmetricError unless it is self-conjugate."""
    lam = tuple(lam)
    if conjugate(lam) != lam:
        raise NotSymmetricError(f"{lam} is not self-conjugate")
    return lam


def contains(lam, mu) -> bool:
    """mu fits inside lam."""
    lam, mu = tuple(lam), tuple(mu)
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def cells(lam):
    return [(r, c) for r, part in enumerate(lam, start=1) for c in range(1, part + 1)]


def skew_cells(lam, mu) -> list:
    """Cells of lam not in mu (mu contained in lam)."""
    if not contains(lam, mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    return [(r, c) for r, part in enumerate(lam, start=1)
            for c in range(mu[r - 1] + 1, part + 1)]


def diagonal_hooks(lam):
    """Diagonal hook lengths (lam_i + lam'_i - 2i + 1) and diagonal length.

    Defined for self-conjugate shapes; the hooks are odd, strictly
    decreasing and sum to n.
    """
    # lam_i - i falls as i grows, so the diagonal rows are those with lam_i > i
    h = tuple(2 * (p - i) - 1 for i, p in enumerate(require_self_conjugate(lam)) if p > i)
    return h, len(h)


def hook_length_count(lam) -> int:
    """Number of standard tableaux by the hook length formula (test oracle)."""
    lam = tuple(lam)
    n = sum(lam)
    conj = conjugate(lam)
    prod = 1
    for r, part in enumerate(lam, start=1):
        for c in range(1, part + 1):
            prod *= (part - c) + (conj[c - 1] - r) + 1
    return math.factorial(n) // prod


def self_conjugate_partitions(n: int) -> tuple:
    return tuple(lam for lam in partitions_of(n) if is_self_conjugate(lam))


# ---------------------------------------------------------------------------
# Standard tableaux
# ---------------------------------------------------------------------------

class StdTableau(Frozen):
    """A standard filling of a partition diagram, rows as tuples.

    Entry positions are indexed eagerly so content and axial-distance
    queries are O(1).
    """

    __slots__ = ("rows", "shape", "_pos")

    def __new__(cls, rows):
        rows = tuple(tuple(r) for r in rows)
        shape = tuple(len(r) for r in rows)
        if not is_partition(shape):
            raise ValueError(f"rows do not form a partition shape: {shape}")
        t = StdTableau._raw(rows)
        if sorted(t._pos) != list(range(1, sum(shape) + 1)):
            raise ValueError("entries are not a bijection onto 1..n")
        for r, row in enumerate(rows):
            for c in range(len(row) - 1):
                if row[c] >= row[c + 1]:
                    raise ValueError("rows must increase")
            if r + 1 < len(rows):
                for c in range(len(rows[r + 1])):
                    if rows[r][c] >= rows[r + 1][c]:
                        raise ValueError("columns must increase")
        return t

    @staticmethod
    def _raw(rows: tuple) -> "StdTableau":
        t = object.__new__(StdTableau)
        pos = {}
        for r, row in enumerate(rows, start=1):
            for c, v in enumerate(row, start=1):
                pos[v] = (r, c)
        _set_rows(t, rows)
        _set_shape(t, tuple(len(r) for r in rows))
        _set_pos(t, pos)
        return t

    @property
    def n(self) -> int:
        return len(self._pos)

    def cell_of(self, i: int):
        try:
            return self._pos[i]
        except KeyError:
            raise BadIndexError(f"entry {i} not in tableau of size {self.n}") from None

    def entry(self, r: int, c: int) -> int:
        return self.rows[r - 1][c - 1]

    def has_cell(self, r: int, c: int) -> bool:
        return 1 <= r <= len(self.rows) and 1 <= c <= len(self.rows[r - 1])

    def content(self, i: int) -> int:
        r, c = self.cell_of(i)
        return c - r

    def axial(self, i: int) -> int:
        """Axial distance from i to i+1: content(i) - content(i+1)."""
        if not 1 <= i < self.n:
            raise BadIndexError(f"axial index {i} outside 1..{self.n - 1}")
        return self.content(i) - self.content(i + 1)

    def conjugate(self) -> "StdTableau":
        rows = self.rows
        if not rows:
            return self
        out = tuple(tuple(rows[r][c] for r in range(len(rows)) if len(rows[r]) > c)
                    for c in range(len(rows[0])))
        return StdTableau._raw(out)

    def apply_s(self, i: int):
        """Swap entries i and i+1; returns (tableau_or_None, is_standard)."""
        if not 1 <= i < self.n:
            raise BadIndexError(f"generator index {i} outside 1..{self.n - 1}")
        (r1, c1), (r2, c2) = self.cell_of(i), self.cell_of(i + 1)
        if r1 == r2 or c1 == c2:
            return None, False
        rows = [list(r) for r in self.rows]
        rows[r1 - 1][c1 - 1], rows[r2 - 1][c2 - 1] = i + 1, i
        return StdTableau._raw(tuple(tuple(r) for r in rows)), True

    def has_2_in_first_row(self) -> bool:
        return self.n >= 2 and self._pos[2][0] == 1

    def diagonal_entries(self) -> tuple:
        out = []
        for r, row in enumerate(self.rows, start=1):
            if len(row) >= r:
                out.append(row[r - 1])
        return tuple(out)

    def row_word(self) -> tuple:
        return tuple(v for row in self.rows for v in row)

    def __eq__(self, other):
        return isinstance(other, StdTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"StdTableau({[list(r) for r in self.rows]})"

    def __str__(self):
        width = len(str(self.n))
        return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in self.rows)


# Frozen refuses assignment, so _raw fills the slots through these
_set_rows = StdTableau.rows.__set__
_set_shape = StdTableau.shape.__set__
_set_pos = StdTableau._pos.__set__


@lru_cache(maxsize=None)
def std_tableaux(lam) -> tuple:
    """All standard tableaux of the given shape, sorted by row-reading word."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    n = sum(lam)
    results = []
    heights = [0] * len(lam)  # filled length of each row
    rows = [[] for _ in lam]

    def place(k: int):
        if k > n:
            results.append(StdTableau._raw(tuple(tuple(r) for r in rows)))
            return
        for r in range(len(lam)):
            if heights[r] < lam[r] and (r == 0 or heights[r - 1] > heights[r]):
                rows[r].append(k)
                heights[r] += 1
                place(k + 1)
                heights[r] -= 1
                rows[r].pop()

    place(1)
    del place  # it refers to itself through its closure cell, which holds results too
    results.sort(key=StdTableau.row_word)
    return tuple(results)


# ---------------------------------------------------------------------------
# Transposability and symmetric coverings
# ---------------------------------------------------------------------------

def orbit_blocks(kappa) -> dict:
    """Map each of 1..n to its consecutive cycle block index under kappa."""
    blocks = {}
    start = 1
    for z, k in enumerate(kappa):
        for v in range(start, start + k):
            blocks[v] = z
        start += k
    return blocks


def is_w_transposable(t: StdTableau, kappa) -> bool:
    """Diagonally opposite entries must differ by one and share a cycle
    block of the composition's canonical permutation."""
    blocks = orbit_blocks(kappa)
    for r in range(1, len(t.rows) + 1):
        for c in range(r + 1, len(t.rows[r - 1]) + 1):
            if not t.has_cell(c, r):
                continue
            i, j = t.entry(r, c), t.entry(c, r)
            if abs(i - j) != 1 or blocks[i] != blocks[j]:
                return False
    return True


def transposable_tableaux(lam, kappa) -> tuple:
    return tuple(t for t in std_tableaux(tuple(lam)) if is_w_transposable(t, kappa))


def _remove_diagonal_rim_hook(mu: tuple, i: int) -> tuple:
    """Remove the rim hook of the (i, i) diagonal hook from a self-conjugate
    shape: the border cells (r, c) with r, c >= i and (r+1, c+1) outside."""
    mu = tuple(mu)
    cellset = set(cells(mu))
    rim = {(r, c) for (r, c) in cellset
           if r >= i and c >= i and (r + 1, c + 1) not in cellset}
    remaining = cellset - rim
    rows = {}
    for r, c in remaining:
        rows[r] = max(rows.get(r, 0), c)
    out = tuple(rows[r] for r in sorted(rows))
    if not is_partition(out) or len(remaining) != sum(out):
        raise AssertionError(f"rim hook removal broke shape {mu} at {i}")
    return out


def symmetric_covering(lam, kappa):
    """The unique chain of self-conjugate shapes realizing kappa by
    connected symmetric strips, or None when no such chain exists.

    A chain exists iff kappa has exactly d(lam) parts and sorts to the
    diagonal hook partition of lam; it is built by repeatedly removing the
    diagonal rim hook whose length matches the last part of kappa.
    """
    lam = tuple(lam)
    h, d = diagonal_hooks(lam)
    kappa = tuple(kappa)
    if len(kappa) != d or tuple(sorted(kappa, reverse=True)) != h:
        return None
    chain = [lam]
    cur = lam
    for z in range(d, 0, -1):
        target = kappa[z - 1]
        hooks, _ = diagonal_hooks(cur)
        i = hooks.index(target) + 1
        cur = _remove_diagonal_rim_hook(cur, i)
        chain.append(cur)
    chain.reverse()
    return chain


def eps_kappa(kappa) -> int:
    """Sign (-1)**#{y < z with kappa_y < kappa_z}."""
    kappa = tuple(kappa)
    inv = sum(1 for y in range(len(kappa)) for z in range(y + 1, len(kappa))
              if kappa[y] < kappa[z])
    return -1 if inv % 2 else 1


def _integers(text: str, what: str) -> tuple:
    out = []
    for token in text.split(",") if text.strip() else ():
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"{what} {text!r}: {token!r} is not an integer") from None
    return tuple(out)


def parse_word(text: str) -> tuple:
    """The integers of a comma-separated list; blank text is empty."""
    return _integers(text, "word")


def parse_partition(text: str) -> tuple:
    """A comma-separated partition; ValueError unless every part is an
    integer, positive and no larger than the one before it."""
    lam = _integers(text, "shape")
    if any(p <= 0 for p in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"shape {text!r} is not a partition: parts must be "
                         f"positive and weakly decreasing")
    return lam
