"""Character formulas for the alternating Hecke algebras.

The central quantity is the twisted character: the trace of a basis element
composed with the tableau-transposition flip on a self-conjugate module.
Three independent routes compute it:

* :func:`althecke.specht.twisted_trace` -- the brute-force matrix oracle;
* :func:`twisted_char_by_tableaux` -- a product formula over transposable
  tableaux, one local factor per letter of the increasing reduced word;
* :func:`twisted_char_closed` -- the closed form: zero unless the cycle
  type sorts to the diagonal-hook partition, and otherwise an explicit
  monomial times the product of the hook radicals.

The closed form carries a global sign convention: the literal published
constant uses (-sqrt(-1))^((n-d)/2) whereas the tableau machinery and the
matrix oracle produce (sigma * sqrt(-1))^((n-d)/2) with sigma = +1.
``resolve_sigma`` returns that constant without building a module; the
oracle comparisons of the tests and of ``verify --suite oracle`` pin it.
``convention="paper"`` reproduces the literal constant instead.  Flipping
sigma only swaps the labels of the two split characters, so both
conventions give a correct character set.  Every function returning a
twisted or split value takes ``convention``, and ``_sign`` alone turns it
into the sign.

On top of these sit the length recursions: class polynomials expressing
any character value through minimal-length class representatives, their
alternating analogue, and the twisted class polynomials.  At the end of a
conjugation path only the representative whose cycle type sorts to the hook
type h of a shape has a nonzero twisted value, so the value at any w is the
closed-form unit of the shape times a coefficient a_w(h) that does not
depend on the shape.  One fold per permutation gives every a_w(h), for all
self-conjugate shapes of the degree at once.

Character tables, single values and class polynomials touch neither a
matrix nor a Hecke-algebra element.  A plain value at a minimal-length
representative comes from Ram's broken-border-strip rule run forward, one
strip per part from the empty shape (:func:`_ram_packed`), and at any other
permutation through the class polynomials; a twisted value is the
closed-form unit scaled by its twisted class polynomial.  A table reads only
Ram's rule and the closed form: at its minimal-length column representatives
the class polynomial is an indicator and the twisted one is +-1 at the hook
class, zero elsewhere, so a cell depends only on its row, its column's cycle
type and, at a split row's hook type, the column's sign.  One pass over the
column cycle types, walked as a trie, leaves each row a packed integer per
type (:func:`_packed_table`), which :func:`char_table` reads as a tower
element through :func:`_digits` and :func:`table_json` writes as JSON,
formatting each balanced digit where its own copy of the loop reads it, one
cell string per row and cycle type; a single value runs the same pass,
bounded by its shape.  No value is cached: only the strip shapes of
:func:`althecke.combinat.added_strips` outlive a call, until
``added_strips.cache_clear()``.  Only the B-basis split values read
:mod:`althecke.hecke`; the matrix traces of :mod:`althecke.specht` only
check these routes.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, permutations as iter_permutations, product
from math import comb, factorial, prod
from operator import mul
from typing import NamedTuple

from .combinat import (
    added_strips,
    conjugate,
    contains,
    diagonal_hooks,
    eps_kappa,
    hook_type,
    is_partition,
    is_w_transposable,
    orbit_blocks,
    partitions_of,
    require_self_conjugate,
    std_tableaux,
    transposable_tableaux,
)
from .hecke import NotAlternatingError, b_elem
from .scalars import (
    LaurentPoly,
    R_HALF,
    R_ONE,
    R_ZERO,
    RatFunc,
    TowerElem,
    _add_term,
    _lowest,
    alpha_coeff,
    canonical_json,
    pretty_tower,
    q_minus_qinv,
    qint,
    qint_laurent,
    tower_to_obj,
)
from .symgroup import (
    LABEL_MARKS,
    Drop2Step,
    FlatStep,
    MalformedCompositionError,
    Permutation,
    alt_classes,
    an_class_of,
    class_label,
    column_plan,
    from_word,
    increasing_word,
    is_min_length,
    reduce_to_composition,
    w_of_composition,
)

DIAG = "DIAG"
PREV_OPP = "PREV-OPP"
NEXT_OPP = "NEXT-OPP"


# ---------------------------------------------------------------------------
# The factor-by-factor tableau formula
# ---------------------------------------------------------------------------

class GammaReport(NamedTuple):
    """Local factors of one transposable tableau along the increasing word."""

    tableau: object
    factors: tuple  # ((generator index, case tag, TowerElem), ...)
    product: TowerElem


def _gamma_factors(t, word):
    """Local factors for the letters of an increasing reduced word."""
    factors = []
    for i in word:
        r, c = t.cell_of(i)
        if r == c:
            rho = t.axial(i)
            tag, val = DIAG, TowerElem.from_scalar(-qint(rho).inverse())
        else:
            partner = t.entry(c, r)
            if partner == i - 1:
                rho2 = t.content(i - 1) - t.content(i + 1)
                tag, val = PREV_OPP, TowerElem.from_scalar(-qint(rho2).inverse())
            elif partner == i + 1:
                tag, val = NEXT_OPP, alpha_coeff(t.axial(i))
            else:  # transposability guarantees a neighbouring partner
                raise AssertionError(f"entry {i} has partner {partner} in {t!r}")
        factors.append((i, tag, val))
    return factors


def gamma_of_tableau(t, kappa):
    """Factor list for a transposable tableau, or None if not transposable.

    Walking the increasing reduced word of the composition's canonical
    permutation, the letter at i contributes, by the location of the entry
    i in the tableau:

    * on the diagonal: -1/[content(i) - content(i+1)];
    * diagonally opposite i-1: -1/[content(i-1) - content(i+1)];
    * diagonally opposite i+1: the off-diagonal seminormal coefficient at
      content(i) - content(i+1).
    """
    require_self_conjugate(t.shape)
    if not is_w_transposable(t, kappa):
        return None
    factors = _gamma_factors(t, increasing_word(kappa))
    return GammaReport(t, tuple(factors), reduce(mul, (v for _, _, v in factors), TowerElem.one()))


def twisted_char_by_tableaux(lam, kappa) -> TowerElem:
    """Twisted character at the canonical permutation of a composition,
    summed over transposable tableaux of the shape."""
    reports = (gamma_of_tableau(t, kappa) for t in std_tableaux(tuple(lam)))
    return sum((report.product for report in reports if report), TowerElem.zero())


def technical_partner(t, kappa):
    """The sign-cancelling partner of a transposable tableau.

    Looks for the smallest b on the diagonal that shares a cycle block with
    an earlier diagonal entry a; the partner swaps every diagonally
    opposite pair holding numbers strictly between a and b.  Returns
    (a, b, partner) or None when no diagonal pair shares a block.
    """
    blocks = orbit_blocks(kappa)
    diag = t.diagonal_entries()
    best = None
    for a in diag:
        for b in diag:
            if a < b and blocks[a] == blocks[b] and (best is None or b < best[1]):
                best = (a, b)
    if best is None:
        return None
    a, b = best
    partner = t
    for i in range(a + 1, b - 1, 2):
        partner, ok = partner.apply_s(i)
        if not ok:
            raise AssertionError("partner swap left the tableau non-standard")
    return a, b, partner


# ---------------------------------------------------------------------------
# The closed form and its sign convention
# ---------------------------------------------------------------------------

#: sqrt(-1)^k for k = 0..3, as (real, imaginary) integer pairs
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _closed_unit(h: tuple, kappa, sign: int) -> tuple:
    """The closed-form unit sqrt(-1)^k q^-m y_ys of a self-conjugate shape
    with diagonal hooks h at a composition of h, as (m, k, ys), ys the
    hooks >= 2 in increasing order."""
    m = (sum(h) - len(h)) // 2
    # each sign flip is a factor sqrt(-1)^2
    flips = (sign < 0 and m % 2 == 1) + (eps_kappa(kappa) < 0)
    return m, (m + 2 * flips) % 4, tuple(k for k in reversed(h) if k >= 2)


def _unit_elem(unit, den: int = 1) -> TowerElem:
    """The unit (m, k, ys) of :func:`_closed_unit` over den as a tower element."""
    m, k, ys = unit
    # the diagonal hooks are distinct, so their radicals form one monomial
    return TowerElem._raw({frozenset(ys): RatFunc.from_laurent(_lowest({-m: _I_POWERS[k]}, den))})


def _closed_value(h: tuple, kappa, sign: int) -> TowerElem:
    return _unit_elem(_closed_unit(h, kappa, sign))


def resolve_sigma() -> int:
    """The global sign sigma of the matrix oracle's (sigma*sqrt(-1))^((n-d)/2).

    A constant: the closed form against the oracle over every shape and
    composition of the acceptance suite is what pins it.
    """
    return 1


def _sign(convention: str) -> int:
    """The global sign s of (s*sqrt(-1))^((n-d)/2) under a convention."""
    if convention not in ("oracle", "paper"):
        raise ValueError(f"unknown convention {convention!r}: use 'oracle' or 'paper'")
    return resolve_sigma() if convention == "oracle" else -1


def twisted_char_closed(lam, kappa, convention: str = "oracle") -> TowerElem:
    """Closed form of the twisted character at a composition's permutation.

    Zero unless the composition sorts to the diagonal-hook partition of the
    shape; otherwise eps(kappa) * (s*sqrt(-1))^((n-d)/2) * q^(-(n-d)/2)
    times the product of the hook generators y_h, where s = -1 under
    ``convention="paper"`` (the literal published constant) and
    s = :func:`resolve_sigma` under ``convention="oracle"``.
    """
    h, _ = diagonal_hooks(lam)
    kappa, sign = tuple(kappa), _sign(convention)
    if tuple(sorted(kappa, reverse=True)) != h:
        return TowerElem.zero()
    return _closed_value(h, kappa, sign)


# ---------------------------------------------------------------------------
# Twisted characters at arbitrary permutations
# ---------------------------------------------------------------------------

def _fold_path(kappa: tuple, path) -> tuple:
    # Fold the conjugation path from its end.  At w_kappa only the shapes
    # whose hook type is sorted kappa survive, with coefficient eps(kappa);
    # each step back to its source negates every coefficient, and a flat
    # step also adds (q - q^-1) times the coefficients of its witness.
    h = tuple(sorted(kappa, reverse=True))
    acc = {}
    if all(k % 2 for k in h) and len(set(h)) == len(h):
        acc[h] = RatFunc(eps_kappa(kappa))
    delta = q_minus_qinv()
    for step in reversed(path):
        acc = {k: -v for k, v in acc.items()}
        if isinstance(step, FlatStep):
            for k, v in _twisted_value(step.witness):
                _add_term(acc, k, v * delta)
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _twisted_value(w: Permutation) -> tuple:
    """Twisted class polynomials at w: ((hook type, a_w), ...), every hook
    type a partition into distinct odd parts."""
    return _fold_path(*reduce_to_composition(w))


def twisted_char(lam, w: Permutation, reduction=None, convention: str = "oracle"):
    """Twisted character at any permutation, with its coefficient.

    Returns (value, a) with value = (s*sqrt(-1))^m * a * q^(-m) * prod(y_h)
    for m = (n - d)/2, s the sign of ``convention`` as in
    :func:`twisted_char_closed`, and a = a_w(h) the twisted class
    polynomial of w at the hook type h of lam.  The class polynomials are
    folded once per permutation and serve every shape of its degree; a
    lies in Z[q - q^-1] with q-degree at most length(w) minus the minimal
    length of the hook cycle type.  A caller that already holds
    ``reduction = reduce_to_composition(w)`` passes it, and the path is
    folded without being searched again.
    """
    h, _ = diagonal_hooks(lam)
    sign = _sign(convention)
    if sum(h) != w.n:
        raise ValueError(f"shape {tuple(lam)} and {w!r} have different degrees")
    coeffs = _twisted_value(w) if reduction is None else _fold_path(*reduction)
    a = dict(coeffs).get(h, R_ZERO)
    if not a:
        return TowerElem.zero(), a
    return _closed_value(h, h, sign).scale(a), a


def delta_coefficients(r: RatFunc):
    """Integer coefficients of r in powers of (q - q^-1), or None.

    Peels the top q-degree repeatedly; membership in Z[q - q^-1] fails if a
    leading coefficient is not a rational integer or degrees do not drop.
    """
    if not r.is_laurent():
        return None
    p = r.num
    delta = q_minus_qinv().num
    out = {}
    while not p.is_zero():
        dtop = p.degree()
        if dtop < 0:
            return None
        g = p.coeff(dtop)
        if g.im or g.re.denominator != 1:
            return None
        out[dtop] = int(g.re)
        p = p - reduce(mul, [delta] * dtop, R_ONE.num).scale(g)
        if not p.is_zero() and p.degree() >= dtop:
            return None
    return out


# ---------------------------------------------------------------------------
# Class polynomials
# ---------------------------------------------------------------------------

class ClassPolyTable(NamedTuple):
    """Coefficients expressing a character value at ``subject`` through the
    values at minimal-length class representatives."""

    subject: Permutation
    entries: tuple  # ((class key, RatFunc), ...) sorted by key

    def as_dict(self) -> dict:
        return dict(self.entries)


@lru_cache(maxsize=None)
def _f_vector(w: Permutation) -> tuple:
    """Cycle-type class polynomials at w: ((cycle_type, RatFunc), ...).

    Minimal-length elements are pure indicators.  Otherwise the conjugation
    path of w is folded: a flat step leaves the value unchanged, and a
    shortening step at s from x adds (q - q^-1) times the class polynomials
    of the one-shorter product s*x, so the indicator of w's cycle type
    collects one such term per DROP2 step.
    """
    if is_min_length(w):
        return ((w.cycle_type(), R_ONE),)
    acc = {w.cycle_type(): R_ONE}
    delta = q_minus_qinv()
    for step in reduce_to_composition(w)[1]:
        if isinstance(step, Drop2Step):
            for ctype, c in _f_vector(step.source.left_mult_s(step.s)):
                _add_term(acc, ctype, c * delta)
    return tuple(sorted(acc.items()))


def class_polys(w: Permutation) -> ClassPolyTable:
    return ClassPolyTable(w, _f_vector(w))


def char_via_class_polys(lam, w: Permutation) -> TowerElem:
    """Character value at any permutation: the class polynomials of w times
    the values at minimal-length class representatives, from one forward
    pass of Ram's rule over their cycle types that keeps the shapes inside lam."""
    lam = tuple(lam)
    if not is_partition(lam) or sum(lam) != w.n:
        raise ValueError(f"shape {lam} is not a partition of the degree of {w!r}")
    coeffs, total = dict(_f_vector(w)), TowerElem.zero()
    for ctype, value in _ram_columns(coeffs, lam):
        c = coeffs[ctype]
        total = total + (value(1, lam) if c == R_ONE else value(1, lam).scale(c))
    return total


# ---------------------------------------------------------------------------
# Plain characters at minimal-length class representatives
# ---------------------------------------------------------------------------

def _prices(r: int, base: int) -> list:
    """Ram's weight price[rows][links] of a strip of :func:`added_strips` of
    size r, with cc = rows - links components and height ht = links:
    (-1)^ht Q^(r-cc-ht) (Q-1)^(cc-1) at Q = base, for T'_i = q T_i and Q = q^2."""
    return [[(-1) ** links * base ** (r - rows) * (base - 1) ** (rows - links - 1)
             for links in range(rows)] for rows in range(r + 1)]


def _strips(nu: tuple, r: int, base: int) -> list:
    """(lam, weight at base) for each broken border strip lam/nu of size r."""
    price = _prices(r, base)
    return [(lam, price[rows][links]) for lam, rows, links in added_strips(nu, r)]


def _ram_packed(types, bound=None):
    """Ram's rule forward: (kappa, values, bits, e) for each cycle type
    kappa in ``types``, where values[lam] is the value sum(c_k q^(e+2k)) of
    lam at w_kappa, held as its value sum(c_k 2^(bits k)) at Q = 2^bits.

    From {(): 1}, each part r of kappa, largest first, adds every broken
    border strip of size r times its weight, and q^-(r-1) turns T'_i into
    T_i.  The sorted types are walked as a trie: a shared prefix is grown
    once, and only the states along the current path are kept.  The strips
    are the shapes of :func:`added_strips`, cached by (nu, r) and shared by
    every call and degree; their weights are priced once per call and size
    (:func:`_prices`).  After each part a bounded pass keeps only the grown
    shapes inside ``bound``: shapes only grow, so a strip sequence that ends
    inside ``bound`` never leaves it.  No value is cached.
    Two values' absolute coefficients sum to less than n! 2^(n+1) (n! strip
    sequences at most, each of norm at most 2^(n-1)), so :func:`_digits`
    reads a value, or the sum of two, back."""
    n = max(map(sum, types))
    bits = (factorial(n) << (n + 1)).bit_length() + 1
    prices = {r: _prices(r, 1 << bits) for r in set().union(*types)}
    trail = [((), {(): 1})]  # (prefix, {shape: value}) down the trie
    for kappa in sorted(set(types)):
        while kappa[:len(trail[-1][0])] != trail[-1][0]:
            trail.pop()
        for r in kappa[len(trail[-1][0]):]:
            prefix, shapes = trail[-1]
            price = prices[r]
            grown = {}
            get = grown.get
            for nu, x in shapes.items():
                for lam, rows, links in added_strips(nu, r):
                    grown[lam] = get(lam, 0) + x * price[rows][links]
            if bound is not None:
                grown = {lam: x for lam, x in grown.items() if contains(bound, lam)}
            trail.append((prefix + (r,), grown))
        yield kappa, trail[-1][1], bits, len(kappa) - sum(kappa)


def _ram_columns(types, bound=None):
    """(kappa, value) per column of :func:`_ram_packed`, value(den, *shapes) their sum / den."""
    for kappa, values, bits, e in _ram_packed(types, bound):
        yield kappa, lambda den, *shapes, v=values, b=bits, e=e: _read(
            sum(v.get(lam, 0) for lam in shapes), b, e, den)


def _digits(x: int, bits: int, e: int):
    """(e + 2k, c_k) for each nonzero balanced digit c_k of x = sum(c_k 2^(bits k)),
    -2^(bits-1) <= c_k < 2^(bits-1).  :func:`table_json` runs the same loop
    inline and writes each digit as a JSON term where it is read: a tuple
    per digit through a generator is about 6% of a cold table."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    while x:
        x += half
        c, x = (x & mask) - half, x >> bits
        if c:
            yield e, c
        e += 2


def _read(x: int, bits: int, e: int, den: int) -> TowerElem:
    """The packed x = sum(c_k 2^(bits k)) as sum(c_k q^(e+2k)) / den."""
    acc = {k: (c, 0) for k, c in _digits(x, bits, e)}
    return TowerElem.from_scalar(RatFunc.from_laurent(_lowest(acc, den)))


def plain_char(lam, kappa) -> TowerElem:
    """Character of shape lam at the canonical permutation of a composition.

    Minimal-length elements of one conjugacy class share their character
    values, so the composition is sorted, and Ram's broken-border-strip rule
    runs forward over its parts with lam as the bound: only the shapes
    inside lam are kept after each part."""
    lam, kappa = tuple(lam), tuple(sorted(kappa, reverse=True))
    if kappa and kappa[-1] < 1:
        raise MalformedCompositionError(f"composition parts must be positive: {kappa}")
    if not is_partition(lam) or sum(lam) != sum(kappa):
        raise ValueError(f"shape {lam} is not a partition of the size of class {kappa}")
    (_, value), = _ram_columns([kappa], lam)
    return value(1, lam)


# ---------------------------------------------------------------------------
# Alternating class polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _drop_coeff(k: int) -> RatFunc:
    """c_k = k! [u^k] (1 + tanh(delta u/2)), delta = q - q^-1: the A-basis weight
    of a subword that drops k distinct letters.  C(u) = sum(c_k u^k/k!) solves
    C(u) (1 + exp(-delta u)) = 2, so 2 c_k = -sum_(j>=1) C(k,j) (-delta)^j c_(k-j)."""
    acc, power = R_ZERO, R_ONE
    for j in range(1, k + 1):
        power = power * -q_minus_qinv()
        acc = acc + power * _drop_coeff(k - j) * comb(k, j)
    return -acc * R_HALF if k else R_ONE


@lru_cache(maxsize=None)
def _min_rep_vector(ctype: tuple) -> tuple:
    """Alternating class polynomials of T at the odd minimal representative
    w = ``w_of_composition(ctype)``: ((class key, RatFunc), ...).

    The increasing word of w has distinct letters, so T_w^# =
    prod(q - q^-1 - T_i) is a sum over subwords and T_w = sum(c_k A_(w_S))
    over the subwords S that drop k letters (:func:`_drop_coeff`).  Below
    A_w, which pairs to zero against restricted characters, only odd k
    survive, and each such w_S is an even minimal representative.
    """
    word = increasing_word(ctype)
    acc = {}
    for k in range(1, len(word) + 1, 2):
        for kept in combinations(word, len(word) - k):
            _add_term(acc, an_class_of(from_word(kept, sum(ctype))), _drop_coeff(k))
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _g_vector(w: Permutation) -> tuple:
    """Alternating class polynomials: ((class key, RatFunc), ...).

    Expands w through its cycle-type class polynomials f_w.  An even
    minimal representative is its own class; an odd one contributes the
    vector :func:`_min_rep_vector` computes once per cycle type.
    """
    if not w.is_even():
        raise NotAlternatingError(f"{w!r} is odd")
    if is_min_length(w):
        return ((an_class_of(w), R_ONE),)
    acc = {}
    for ctype, f in _f_vector(w):
        w_c = w_of_composition(ctype)
        terms = _g_vector(w_c) if w_c.is_even() else _min_rep_vector(ctype)
        for key, v in terms:
            _add_term(acc, key, f * v)
    return tuple(sorted(acc.items()))


def alt_class_polys(w: Permutation) -> ClassPolyTable:
    return ClassPolyTable(w, _g_vector(w))


def split_char_values(lam, w: Permutation, basis: str = "A",
                      convention: str = "oracle"):
    """The two split character values at a basis element indexed by an even
    permutation, computed through the recursions (not by matrix traces).

    ``basis`` selects the averaged basis ("A", whose value at w equals the
    half sum of the plain and twisted traces of T_w) or the
    parity-triangular basis ("B").  The twisted part takes the sign of
    ``convention``, as :func:`twisted_char` does; under ``"paper"`` the two
    values swap wherever (n - d)/2 is odd.
    """
    lam = require_self_conjugate(lam)
    _sign(convention)  # refuse a bad convention, like a bad shape, before any search
    if sum(lam) != w.n:
        raise ValueError(f"shape {lam} and {w!r} have different degrees")
    if not w.is_even():
        raise NotAlternatingError(f"{w!r} is odd")
    if basis == "A":  # averaging is invisible to both traces
        plain = char_via_class_polys(lam, w)
        twisted = twisted_char(lam, w, convention=convention)[0]
    elif basis == "B":
        plain = twisted = TowerElem.zero()
        for y, c in b_elem(w).coeffs.items():
            plain = plain + char_via_class_polys(lam, y).scale(c)
            twisted = twisted + twisted_char(lam, y, convention=convention)[0].scale(c)
    else:
        raise ValueError("basis must be A or B")
    return (plain + twisted).scale(R_HALF), (plain - twisted).scale(R_HALF)


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------

def row_label(shape, kind: str) -> str:
    """The label of a table row, e.g. ``[3,1]`` or ``[2,2]+``."""
    return f"[{','.join(map(str, shape))}]{LABEL_MARKS[kind]}"


class TableRow(NamedTuple):
    kind: str  # "pair" | "plus" | "minus"
    shape: tuple
    cells: tuple  # TowerElem per column

    def label(self) -> str:
        return row_label(self.shape, self.kind)


class CharTable(NamedTuple):
    n: int
    sigma: int
    columns: tuple  # (ConjClass, representative) pairs
    rows: tuple  # TableRow

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "convention": "oracle",
            "sigma": self.sigma,
            "columns": [cc.label() for cc, _ in self.columns],
            "column_reps": [list(rep.one_line) for _, rep in self.columns],
            "rows": [
                {
                    "label": row.label(),
                    "kind": row.kind,
                    "shape": list(row.shape),
                    "cells": [tower_to_obj(v) for v in row.cells],
                }
                for row in self.rows
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_obj())


def table_csv(table: CharTable) -> str:
    """The human-readable CSV form of a character table."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["character", *(cc.label() for cc, _ in table.columns)])
    writer.writerows([row.label(), *map(pretty_tower, row.cells)] for row in table.rows)
    return out.getvalue()


def _row_plan(n: int):
    """(kind, lam, lam') per table row: one row per conjugate pair of shapes
    (labelled by the lexicographically larger one), two split rows per
    self-conjugate shape."""
    for lam in partitions_of(n):
        mu = conjugate(lam)
        if lam > mu:
            yield "pair", lam, mu
        elif lam == mu:
            yield "plus", lam, mu
            yield "minus", lam, mu


def table_rows(n: int):
    """Row plan: (kind, shape) per row of :func:`_row_plan`."""
    return [(kind, lam) for kind, lam, _ in _row_plan(n)]


def _packed_table(n: int):
    """(columns, bits, rows) of the degree-n table: the :func:`column_plan`,
    and a row (kind, shape, h, unit, plain) per :func:`table_rows` entry.
    plain[kappa] = (x, e) is the row's Ram value at cycle type kappa, packed
    as :func:`_read` takes it at q-offset e; a cell is x/2 at its column's
    type, plus :func:`_unit_sign` times u/2 for the closed-form unit
    u = (m, k, ys) of :func:`_closed_unit` at hook type h (None on a pair row).

    A pair cell is the mean of the plain values of the shape and its
    conjugate, so x is their sum.  A split row of shape lam halves the plain
    value and adds half the twisted value: u at the plus class of type h, -u
    at its minus class s_r w+ s_r (the FLAT witness of that step is shorter
    than n - d and folds to zero), zero elsewhere; the minus row subtracts u."""
    if n < 2:
        raise ValueError("character tables need degree at least 2")
    cols = column_plan(n)
    rows, sums = [], []  # sums: (plain, lam, lam' or None) per plus or pair row
    for kind, lam, mu in _row_plan(n):
        if kind == "pair":
            h = unit = None
        elif kind == "plus":  # the minus row after it shares h, unit and plain
            h = hook_type(lam)
            unit = _closed_unit(h, h, _sign("oracle"))
        if kind != "minus":
            plain = {}
            sums.append((plain, lam, mu if kind == "pair" else None))
        rows.append((kind, lam, h, unit, plain))
    for kappa, values, bits, e in _ram_packed({kappa for kappa, _, _ in cols}):
        get = values.get
        for plain, lam, mu in sums:
            plain[kappa] = (get(lam, 0) if mu is None else get(lam, 0) + get(mu, 0), e)
    return cols, bits, rows


def _unit_sign(kind: str, h, kappa, sign: str) -> int:
    """The multiple of u/2 at column (kappa, sign) of a row of kind and hook type h: +1
    at the hook type where the row and class signs agree, -1 where they differ, else 0."""
    return 0 if kappa != h else 1 if sign == kind else -1


def char_table(n: int) -> CharTable:
    """The character table of degree n: the cells of :func:`_packed_table` as tower elements."""
    cols, bits, rows = _packed_table(n)
    table = []
    for kind, lam, h, unit, plain in rows:
        values = {kappa: _read(x, bits, e, 2) for kappa, (x, e) in plain.items()}
        half = _unit_elem(unit, 2) if unit else TowerElem.zero()
        units = (TowerElem.zero(), half, -half)  # indexed by _unit_sign 0, 1, -1
        table.append(TableRow(kind, lam, tuple(
            values[kappa] + units[_unit_sign(kind, h, kappa, sign)] for kappa, sign, _ in cols)))
    return CharTable(n, resolve_sigma(), tuple(alt_classes(n)), tuple(table))


def _half_unit_terms(unit) -> tuple:
    """No JSON term, and the terms +u/2 and -u/2 of :func:`tower_to_obj`, each
    after a comma, indexed by :func:`_unit_sign` 0, 1, -1, for the unit (m, k, ys)."""
    m, k, ys = unit
    re, im = _I_POWERS[k]

    def term(re, im):  # a unit over 2 is c/2 in lowest terms, zero 0/1
        coeff = f"{re},{2 if re else 1},{im},{2 if im else 1}"
        return f',{{"den":[[0,1,1,0,1]],"num":[[{-m},{coeff}]],"ys":[{",".join(map(str, ys))}]}}'

    return "", term(re, im), term(-re, -im)


def table_json(n: int):
    """``char_table(n).to_json()`` and a newline, one row at a time from the
    integers of :func:`_packed_table`: the header and labels as strings, and
    each plus or pair row's cells once per cycle type, every balanced digit
    of the packed value written as its JSON term where it is read (the loop
    of :func:`_digits`, inline: a shared reader costs a tuple per digit).  A
    pair row looks its cells up by column; only a split row's hook-type
    columns add the radical term of its unit, by :func:`_unit_sign`."""
    cols, bits, rows = _packed_table(n)
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    # labels hold digits, commas, brackets and a sign: no JSON escapes
    yield ('{"column_reps":[' + ",".join(f"[{','.join(map(str, ol))}]" for _, _, ol in cols)
           + '],"columns":[' + ",".join(f'"{class_label(kappa, sign)}"' for kappa, sign, _ in cols)
           + f'],"convention":"oracle","n":{n},"rows":[')
    for i, (kind, lam, h, unit, plain) in enumerate(rows):
        if kind != "minus":  # a minus row shares the plain part and unit of the plus row before it
            cells = {}  # kappa -> the JSON cell of plain[kappa] / 2
            for kappa, (x, e) in plain.items():
                terms = []  # c/2 in lowest terms per nonzero digit c
                while x:
                    x += half
                    c, x = (x & mask) - half, x >> bits
                    if c:
                        terms.append(f"[{e},{c},2,0,1]" if c & 1 else f"[{e},{c >> 1},1,0,1]")
                    e += 2
                num = '{"den":[[0,1,1,0,1]],"num":[' + ",".join(terms) + '],"ys":[]}' if terms else ""
                cells[kappa] = '{"terms":[' + num + "]}"
                if kappa == h:  # the hook-type cells, indexed by _unit_sign 0, 1, -1
                    hooks = ['{"terms":[' + (num + rad if num else rad[1:]) + "]}"
                             for rad in _half_unit_terms(unit)]
        yield ("," if i else "") + '{"cells":[' + ",".join(
            [cells[kappa] if kappa != h else hooks[_unit_sign(kind, h, kappa, sign)]
             for kappa, sign, _ in cols]) + (
            f'],"kind":"{kind}","label":"{row_label(lam, kind)}",'
            f'"shape":[{",".join(map(str, lam))}]}}')
    yield f'],"sigma":{resolve_sigma()}}}\n'


# ---------------------------------------------------------------------------
# Linearisation identities
# ---------------------------------------------------------------------------

class DegenerateContentsError(ValueError):
    """A q-bracket denominator [c - c'] vanished."""


def _poset_less(rels, a: int, b: int) -> bool:
    if a < b:
        return all(r == 1 for r in rels[a:b])
    return all(r == -1 for r in rels[b:a])


def _linear_extensions(less_pairs, size):
    out = []
    for seq in iter_permutations(range(size)):
        pos = {x: k for k, x in enumerate(seq)}
        if all(pos[a] < pos[b] for a, b in less_pairs):
            out.append(seq)
    return out


def _bracket_sum(terms) -> RatFunc:
    """sum(sign * q^(2*top) / prod([g] for g in gaps)) over (sign, top, gaps).

    [1] = q and [-k] = -q^(-2k)[k] are units times brackets, so each term is
    a signed q-power over brackets [k], k >= 2.  Over the common denominator
    prod([k]^m_k), m_k the most factors [k] in one term, each numerator is a
    q-power times the missing brackets: Laurent products only, and one
    reduction of the whole sum.
    """
    most = Counter()  # bracket -> most factors of it in one term
    by_brackets = {}  # sorted brackets -> {q-exponent: coefficient}
    for sign, top, gaps in terms:
        exp, ks = 2 * top, []
        for g in gaps:
            if not g:
                raise ZeroDivisionError("q-bracket [0] in a denominator")
            if g < 0:
                sign, exp = -sign, exp - 2 * g
            if g in (1, -1):
                exp -= 1
            else:
                ks.append(abs(g))
        most |= Counter(ks)
        mono = by_brackets.setdefault(tuple(sorted(ks)), {})
        mono[exp] = mono.get(exp, 0) + sign
    num = LaurentPoly.zero()
    for ks, mono in by_brackets.items():
        part = _lowest({e: (c, 0) for e, c in mono.items() if c}, 1)
        num = num + reduce(mul, map(qint_laurent, (most - Counter(ks)).elements()), part)
    return RatFunc(num, reduce(mul, map(qint_laurent, most.elements()), LaurentPoly.one()))


def greene_identity(rels, contents):
    """Both sides of the linearisation sum identity on a semilinear poset.

    The poset has elements x_0..x_m; ``rels[i]`` describes x_i versus
    x_{i+1}: +1 covering up, -1 covering down, 0 incomparable (labellings
    must keep Hasse edges between consecutive indices, which this encoding
    enforces by construction).  Returns (lhs, rhs): the sum over linear
    extensions of q^(2*c_last) over the product of content-gap brackets,
    formed over one common denominator by :func:`_bracket_sum`, and the
    closed right-hand side carrying the poset sign, divided bracket by
    bracket, so the two sides take independent routes.
    """
    rels = tuple(rels)
    contents = tuple(contents)
    m = len(rels)
    if len(contents) != m + 1:
        raise ValueError("need one content per element")
    if len(set(contents)) != len(contents):
        raise DegenerateContentsError("contents must be pairwise distinct")
    order = [(a, b) for a in range(m + 1) for b in range(m + 1)
             if a != b and _poset_less(rels, a, b)]
    lhs = _bracket_sum(
        (1, contents[seq[m]], [contents[seq[i + 1]] - contents[seq[i]] for i in range(m)])
        for seq in _linear_extensions(order, m + 1))
    eps = prod(rels)
    rhs = R_ZERO
    if eps:
        rhs = RatFunc.q_power(2 * contents[m]) * eps
        for i in range(m):
            rhs = rhs / qint(contents[i + 1] - contents[i])
    return lhs, rhs


def cute_identity(m: int):
    """Both sides of the signed hook-content sum over 2^m sign sequences.

    The left side sums over sign vectors (1, e_1, .., e_m) with contents
    c(i) = e_i * i, over one common denominator by :func:`_bracket_sum`;
    the right side is q^(-m) * prod([2i]/[2i-1]), divided bracket by
    bracket."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    terms = []
    for signs in product((1, -1), repeat=m):
        c = [0] + [s * i for i, s in enumerate(signs, 1)]
        terms.append((prod(signs), c[m], [c[i + 1] - c[i] for i in range(m)]))
    lhs = _bracket_sum(terms)
    rhs = RatFunc.q_power(-m)
    for i in range(1, m + 1):
        rhs = rhs * qint(2 * i) / qint(2 * i - 1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Per-class reduction of the tableau sum
# ---------------------------------------------------------------------------

class EquivClassReport(NamedTuple):
    lam: tuple
    kappa: tuple
    z: int
    m_z: int
    class_count: int
    class_sizes: tuple
    linearisation_bijections_ok: bool
    sums_ok: bool
    eps_x_values: tuple
    applicable: bool = True
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.applicable or (self.linearisation_bijections_ok and self.sums_ok)


def _strip_data(t, kappa, z):
    """(strip cells, X cells, omega) of the z-th cycle block inside t."""
    bound_prev = sum(kappa[:z - 1])
    bound = bound_prev + kappa[z - 1]
    strip = frozenset(t.cell_of(i) for i in range(bound_prev + 1, bound + 1))
    x_cells = tuple(sorted((rc for rc in strip if rc[1] >= rc[0]),
                           key=lambda rc: rc[1] - rc[0]))
    omega = (z, z)
    if omega not in strip:
        raise AssertionError(f"block {z} misses its diagonal cell in {t!r}")
    return strip, x_cells, omega


def _gamma_block(t, kappa, z) -> TowerElem:
    """Product of the local factors belonging to the z-th cycle block."""
    k_z = sum(kappa[:z - 1]) + 1
    top = k_z + kappa[z - 1] - 1
    return reduce(mul, (v for _, _, v in _gamma_factors(t, range(k_z, top))), TowerElem.one())


def equiv_class_check(lam, kappa, z: int) -> EquivClassReport:
    """Exercise the per-cycle equivalence classes of transposable tableaux.

    Groups the transposable tableaux by (block shape, entries outside the
    block, diagonal-comparison sign products), then verifies for each class
    that ranking the block diagonal cells by entry is a bijection onto the
    linear extensions of the cell poset, and that the class sum of block
    factors equals the closed product (poset sign, top content power, the
    off-diagonal coefficients, and the content-gap brackets), at the
    oracle's sign sigma = +1.
    """
    lam = tuple(lam)
    kappa = tuple(kappa)
    h, d = diagonal_hooks(lam)
    if not (1 <= z <= d):
        raise ValueError(f"z must lie in 1..{d}")
    if len(kappa) != d or any(k % 2 == 0 for k in kappa):
        return EquivClassReport(lam, kappa, z, 0, 0, (), True, True, (), False,
                                "needs exactly d odd parts")
    tabs = transposable_tableaux(lam, kappa)
    if not tabs:
        return EquivClassReport(lam, kappa, z, (kappa[z - 1] - 1) // 2, 0, (),
                                True, True, (), True, "no transposable tableaux")
    m_z = (kappa[z - 1] - 1) // 2

    classes = {}
    for t in tabs:
        strip, x_cells, omega = _strip_data(t, kappa, z)
        if len(x_cells) != m_z + 1:
            raise AssertionError("block diagonal size disagrees with (part-1)/2 + 1")
        outside = tuple(v for v in sorted(t._pos) if t.cell_of(v) not in strip)
        outside_cells = tuple(t.cell_of(v) for v in outside)
        sign_prod = tuple((1 if t.entry(c, r) >= t.entry(r, c) else -1)
                          * (1 if t.entry(r, c) >= t.entry(*omega) else -1)
                          for r, c in x_cells)
        key = (strip, outside, outside_cells, sign_prod)
        classes.setdefault(key, []).append(t)

    bijections_ok = True
    sums_ok = True
    eps_values = []
    sizes = []
    for (strip, _o, _oc, sign_prod), members in sorted(
            classes.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][3], kv[0][1])):
        x_cells = tuple(sorted((rc for rc in strip if rc[1] >= rc[0]),
                               key=lambda rc: rc[1] - rc[0]))
        contents = [c - r for r, c in x_cells]
        if len(set(contents)) != len(contents):
            raise AssertionError("block diagonal cells with equal contents")
        # Hasse edges of the cell poset, checked to join consecutive labels
        size = m_z + 1
        less = [(a, b) for a in range(size) for b in range(size) if a != b
                and x_cells[a][0] <= x_cells[b][0] and x_cells[a][1] <= x_cells[b][1]]
        covers = [(a, b) for a, b in less
                  if not any((a, k) in less and (k, b) in less for k in range(size))]
        if any(abs(a - b) != 1 for a, b in covers):
            raise AssertionError("content order is not a semilinear labelling")
        # each consecutive pair covers up (+1), down (-1) or not at all (0)
        eps_x = prod(((i, i + 1) in covers) - ((i + 1, i) in covers)
                     for i in range(size - 1))
        eps_values.append(eps_x)
        sizes.append(len(members))

        exts = _linear_extensions(less, size)
        ranks = set()
        for t in members:
            entries = [t.entry(r, c) for r, c in x_cells]
            order = sorted(range(size), key=lambda j: entries[j])
            rank = tuple(order)  # position i of the extension holds cell order[i]
            if any(rank.index(a) > rank.index(b) for a, b in less):
                bijections_ok = False
            ranks.add(rank)
        if len(ranks) != len(members) or set(map(tuple, exts)) != ranks:
            bijections_ok = False

        total = sum((_gamma_block(t, kappa, z) for t in members), TowerElem.zero())
        c_class = [sign_prod[i] * contents[i] for i in range(size)]
        gaps = [c_class[i + 1] - c_class[i] for i in range(m_z)]
        expected = TowerElem.from_scalar(
            _bracket_sum([(prod(sign_prod) * eps_x, c_class[m_z], gaps)]))
        for rc in x_cells:
            cont = rc[1] - rc[0]
            if cont:
                expected = expected * alpha_coeff(2 * cont)
        if total != expected:
            sums_ok = False

    return EquivClassReport(lam, kappa, z, m_z, len(classes), tuple(sizes),
                            bijections_ok, sums_ok, tuple(eps_values))
