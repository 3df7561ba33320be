"""Symmetric group combinatorics: words, lengths, conjugacy classes.

Permutations are stored in one-line notation over {1..n} and compose as
functions acting on the left, so ``(u * v)(i) == u(v(i))``.  With this
convention ``from_word([i1, ..., ik])`` is the product s_{i1} ... s_{ik}
read left to right, and appending a generator on the right of a word
multiplies the permutation by s_i on the right.  Generator indices are
1-based throughout, matching s_i = (i, i+1).

The generator actions carry the Coxeter length: multiplying by s_i on
either side changes it by one, down exactly at a descent, so a permutation
built from one whose length is known never counts its inversions.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from functools import lru_cache
from typing import NamedTuple

from ._frozen import Frozen
from .combinat import partitions_of


class MalformedWordError(ValueError):
    """A generator index was outside 1..n-1."""


class MalformedCompositionError(ValueError):
    """A composition had a non-positive part."""


class OddPermutationClassError(ValueError):
    """The requested class does not lie in the alternating group."""


class Permutation(Frozen):
    """A permutation of {1..n} in one-line notation (image of i at slot i-1)."""

    __slots__ = ("one_line", "_len")

    def __new__(cls, one_line):
        ol = tuple(one_line)
        n = len(ol)
        if sorted(ol) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {ol}")
        return Permutation._raw(ol)

    @staticmethod
    def _raw(ol: tuple, length: int | None = None) -> "Permutation":
        p = object.__new__(Permutation)
        _set_one_line(p, ol)
        _set_len(p, length)
        return p

    def _moved(self, ol: tuple, change: int) -> "Permutation":
        """The permutation ol, whose length is self's plus change."""
        ln = self._len
        return Permutation._raw(ol, None if ln is None else ln + change)

    # -- basics -----------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot multiply permutations of different degrees")
        a, b = self.one_line, other.one_line
        return Permutation._raw(tuple(a[b[i] - 1] for i in range(len(a))))

    def inverse(self) -> "Permutation":
        ol = self.one_line
        inv = [0] * len(ol)
        for i, v in enumerate(ol):
            inv[v - 1] = i + 1
        return Permutation._raw(tuple(inv), self._len)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.one_line))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self):
        return f"Permutation({list(self.one_line)})"

    # -- length and parity --------------------------------------------------
    def length(self) -> int:
        """Coxeter length = inversion count."""
        cached = self._len
        if cached is None:
            ol = self.one_line
            n = len(ol)
            cached = sum(1 for i in range(n) for j in range(i + 1, n) if ol[i] > ol[j])
            _set_len(self, cached)
        return cached

    def eps(self) -> int:
        return -1 if self.length() % 2 else 1

    def is_even(self) -> bool:
        return self.length() % 2 == 0

    # -- generator actions ----------------------------------------------------
    def right_mult_s(self, i: int) -> "Permutation":
        """self * s_i: swaps the entries in positions i, i+1; one shorter
        iff self(i) > self(i+1)."""
        ol = list(self.one_line)
        x, y = ol[i - 1], ol[i]
        ol[i - 1], ol[i] = y, x
        return self._moved(tuple(ol), -1 if x > y else 1)

    def left_mult_s(self, i: int) -> "Permutation":
        """s_i * self: swaps the values i, i+1; one shorter iff i+1 comes
        before i in one-line notation."""
        ol = list(self.one_line)
        a, b = ol.index(i), ol.index(i + 1)
        ol[a], ol[b] = i + 1, i
        return self._moved(tuple(ol), -1 if a > b else 1)

    def conj_s(self, i: int) -> "Permutation":
        """s_i * self * s_i.  Both products carry the length, so it drops by
        two at a left and a right descent, stays with exactly one of them
        and rises by two with neither; when self maps {i, i+1} onto itself
        the two changes cancel and the result equals self."""
        return self.left_mult_s(i).right_mult_s(i)

    def has_right_descent(self, i: int) -> bool:
        """True iff length(self * s_i) < length(self)."""
        return self.one_line[i - 1] > self.one_line[i]

    def reduced_word(self) -> tuple:
        """Deterministic reduced word: repeatedly strip the leftmost descent.

        Stripping the leftmost right descent of w yields a word for w**-1 in
        reverse; the reversal is returned, so from_word(w.reduced_word()) == w
        and the word length equals the inversion count.
        """
        ol = list(self.one_line)
        n = len(ol)
        rev = []
        while True:
            for i in range(n - 1):
                if ol[i] > ol[i + 1]:
                    ol[i], ol[i + 1] = ol[i + 1], ol[i]
                    rev.append(i + 1)
                    break
            else:
                break
        return tuple(reversed(rev))

    # -- cycles -----------------------------------------------------------
    def cycles(self) -> list:
        """Disjoint cycles (including fixed points), each starting at its
        minimum, sorted by that minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))


# Frozen refuses assignment, so _raw and length() fill the slots through these
_set_one_line = Permutation.one_line.__set__
_set_len = Permutation._len.__set__


def identity(n: int) -> Permutation:
    return Permutation._raw(tuple(range(1, n + 1)), 0)


def from_word(word, n: int) -> Permutation:
    w = identity(n)
    for i in word:
        if not 1 <= i < n:
            if n < 2:
                raise MalformedWordError(f"degree {n} has no generators")
            raise MalformedWordError(f"generator index {i} outside 1..{n - 1}")
        w = w.right_mult_s(i)
    return w


def _cycles_one_line(kappa: tuple) -> tuple:
    """The one-line tuple of w_of_composition(kappa)."""
    ol = []
    start = 1
    for k in kappa:
        ol.extend(range(start + 1, start + k))
        ol.append(start)
        start += k
    return tuple(ol)


def w_of_composition(kappa) -> Permutation:
    """The product of consecutive cycles (1..k1)(k1+1..k1+k2)... for kappa."""
    kappa = tuple(kappa)
    if any(k < 1 for k in kappa):
        raise MalformedCompositionError(f"composition parts must be positive: {kappa}")
    return Permutation._raw(_cycles_one_line(kappa), sum(kappa) - len(kappa))


def composition_of(w: Permutation):
    """The composition kappa with w == w_of_composition(kappa), or None."""
    ol = w.one_line
    n = len(ol)
    kappa = []
    start = 1
    while start <= n:
        j = start
        while ol[j - 1] == j + 1:
            j += 1
        if j > n or ol[j - 1] != start:
            return None
        kappa.append(j - start + 1)
        start = j + 1
    return tuple(kappa)


def is_min_length(w: Permutation) -> bool:
    """Minimal length in its conjugacy class: l(w) == n - #cycles."""
    return w.length() == w.n - len(w.cycle_type())


def increasing_word(kappa) -> tuple:
    """The increasing reduced word of w_of_composition(kappa): all indices
    1..n-1 except the block boundaries."""
    word = []
    start = 1
    for k in kappa:
        word.extend(range(start, start + k - 1))
        start += k
    return tuple(word)


# ---------------------------------------------------------------------------
# Alternating classes
# ---------------------------------------------------------------------------

def is_split_type(kappa) -> bool:
    """An even class splits in the alternating group iff all cycle lengths
    are odd and distinct (and some part exceeds 1)."""
    parts = tuple(kappa)
    return (sum(parts) > 1
            and all(k % 2 == 1 for k in parts)
            and len(set(parts)) == len(parts))


class _ConjClassFields(NamedTuple):
    cycle_type: tuple
    alt_sign: str = "whole"  # whole | plus | minus


class ConjClass(_ConjClassFields):
    __slots__ = ()

    def __new__(cls, cycle_type, alt_sign="whole"):
        if alt_sign not in ("whole", "plus", "minus"):
            raise ValueError(f"bad alt_sign {alt_sign!r}")
        if alt_sign != "whole" and not is_split_type(cycle_type):
            raise ValueError(f"class {cycle_type} does not split")
        return super().__new__(cls, cycle_type, alt_sign)

    def label(self) -> str:
        return class_label(self.cycle_type, self.alt_sign)


#: the mark after a label: none for a whole class (or a pair row), else the split sign
LABEL_MARKS = {"whole": "", "pair": "", "plus": "+", "minus": "-"}


def class_label(cycle_type, alt_sign: str) -> str:
    """The label of an alternating class, e.g. ``(3,1,1)`` or ``(5)+``."""
    return f"({','.join(map(str, cycle_type))}){LABEL_MARKS[alt_sign]}"


def _minus_one_line(kappa: tuple, plus: tuple) -> tuple:
    """s_r w+ s_r for the one-line tuple w+ of a split type, where r - 1 is
    the total size of the leading parts equal to 1 (for a partition, r == 1
    whenever some part exceeds 1): the values r, r+1 and then the entries
    in positions r, r+1 swap."""
    r = next(i for i, k in enumerate(kappa) if k > 1) + 1
    ol = [r + 1 if v == r else r if v == r + 1 else v for v in plus]
    ol[r - 1], ol[r] = ol[r], ol[r - 1]
    return tuple(ol)


def split_class_reps(kappa):
    """Minimal length representatives (w+, w-) of an even class; w- is None
    for non-split classes, and otherwise :func:`_minus_one_line` of w+,
    of the same length."""
    kappa = tuple(kappa)
    n = sum(kappa)
    if (n - len(kappa)) % 2:
        raise OddPermutationClassError(f"class {kappa} consists of odd permutations")
    wplus = w_of_composition(kappa)
    if not is_split_type(kappa):
        return wplus, None
    return wplus, wplus._moved(_minus_one_line(kappa, wplus.one_line), 0)


def column_plan(n: int) -> list:
    """(cycle type, alt sign, one-line tuple) of the minimal length
    representative of every alternating conjugacy class, in increasing
    lex order: a split class gives plus, then minus :func:`_minus_one_line`."""
    if n < 0:
        raise ValueError("negative degree")
    plan = []
    for kappa in reversed(partitions_of(n)):
        if (n - len(kappa)) % 2:
            continue
        plus = _cycles_one_line(kappa)
        if is_split_type(kappa):
            plan += [(kappa, "plus", plus), (kappa, "minus", _minus_one_line(kappa, plus))]
        else:
            plan.append((kappa, "whole", plus))
    return plan


def alt_classes(n: int):
    """(ConjClass, minimal length representative) for every entry of
    :func:`column_plan`."""
    return [(ConjClass(kappa, sign), Permutation._raw(ol, n - len(kappa)))
            for kappa, sign, ol in column_plan(n)]


def an_class_of(w: Permutation) -> ConjClass:
    """The alternating conjugacy class of an even permutation.

    For split cycle types the two classes are told apart by the parity of
    any permutation conjugating the canonical representative into w; the
    cycles all have odd length, so the parity does not depend on choices.
    """
    if not w.is_even():
        raise OddPermutationClassError(f"{w!r} is odd")
    kappa = w.cycle_type()
    if not is_split_type(kappa):
        return ConjClass(kappa)
    cycles = sorted(w.cycles(), key=len, reverse=True)
    image = []
    for cyc in cycles:
        image.extend(cyc)
    x = Permutation._raw(tuple(image))  # x maps w_kappa's blocks onto w's cycles
    return ConjClass(kappa, "plus" if x.is_even() else "minus")


# ---------------------------------------------------------------------------
# Conjugation-rewriting toward composition form
# ---------------------------------------------------------------------------

class Drop2Step(NamedTuple):
    s: int
    source: Permutation
    target: Permutation  # s * source * s, two shorter


class FlatStep(NamedTuple):
    s: int
    source: Permutation
    target: Permutation  # s * source * s, same length
    witness: Permutation  # the shorter of s*source, source*s
    side: str  # "sw" or "ws"


def _flat_witness(w: Permutation, s: int):
    sw = w.left_mult_s(s)
    if sw.length() < w.length():
        return sw, "sw"
    ws = w.right_mult_s(s)
    if ws.length() < w.length():
        return ws, "ws"
    raise AssertionError("flat conjugation with no shorter one-sided product")


def reduce_to_composition(w: Permutation):
    """A deterministic path of elementary conjugations from w to some w_sigma.

    Returns (sigma, path): the steps run from w to w_sigma, each step's
    target being the next step's source, so a recursion over the path reads
    it once, from the end.  Each stage is one :func:`_bfs_stage` from the
    current element; a stage either reaches composition form or ends in a
    DROP2 step, after which the next stage starts from its target.
    Termination is guaranteed because every element reaches minimal length
    by such moves and minimal elements reach composition form by flat ones.
    """
    path = []
    cur = w
    while (kappa := composition_of(cur)) is None:
        path.extend(_bfs_stage(cur))
        cur = path[-1].target
    return kappa, path


def _bfs_stage(start: Permutation) -> list:
    """The steps of one breadth-first search through the same-length
    conjugates of start (FLAT steps, smallest conjugating generator first).

    The search stops at the first element that either admits a conjugation
    dropping the length by two, and then the steps end with that DROP2, or
    is in composition form, and then they end with the FLAT reaching it.
    """
    n = start.n
    ln = start.length()
    parent = {start.one_line: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        conjugates = [u.conj_s(s) for s in range(1, n)]
        for s, v in enumerate(conjugates, 1):
            if v.length() == ln - 2:
                return _unwind(parent, u) + [Drop2Step(s, u, v)]
        if u != start and composition_of(u) is not None:
            return _unwind(parent, u)
        for s, v in enumerate(conjugates, 1):
            if v.length() == ln and v != u and v.one_line not in parent:
                parent[v.one_line] = (u, s)
                queue.append(v)
    raise AssertionError(f"conjugation BFS exhausted from {start!r}")


def _unwind(parent, u: Permutation):
    """The FLAT steps from the search's start to u.  A step's target is the
    node whose parent link names the step, so no conjugate is formed again."""
    chain = []
    while parent[u.one_line] is not None:
        prev, s = parent[u.one_line]
        chain.append(FlatStep(s, prev, u, *_flat_witness(prev, s)))
        u = prev
    chain.reverse()
    return chain


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order via the sorted-prefix dominance criterion."""
    if u.n != v.n:
        raise ValueError("degrees differ")
    if u.length() > v.length():
        return False
    a, b = u.one_line, v.one_line
    n = u.n
    ua, va = [], []
    for k in range(n - 1):
        insort(ua, a[k])
        insort(va, b[k])
        for x, y in zip(ua, va):
            if x > y:
                return False
    return True


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple:
    """All of S_n sorted by (length, one_line)."""
    perms = [Permutation._raw(p) for p in itertools.permutations(range(1, n + 1))]
    perms.sort(key=lambda w: (w.length(), w.one_line))
    return tuple(perms)
