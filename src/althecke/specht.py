"""Seminormal matrix models of the irreducible Hecke modules.

For a partition shape the module has one basis vector per standard tableau
(in the deterministic enumeration order of :mod:`althecke.combinat`), and
the generator T_i acts on the row of a tableau t by

    v_t T_i = (-1/[rho]) v_t + alpha(rho) v_{t s_i},    rho = axial distance,

where the off-diagonal coefficient appears only when swapping i, i+1 keeps
the tableau standard.  Matrices act on row vectors, so the matrix of a word
is the ordered product of generator matrices.

The conjugation flip tau sends v_t to the vector of the transposed tableau;
for self-conjugate shapes it is an involution of the module, and the trace
of (x followed by tau) is the ground-truth oracle every closed character
formula in :mod:`althecke.chars` is validated against.

This module is an oracle only: the tests and the ``verify`` suites use its
traces, while character tables and the ``char``/``tau-char``/``classpoly``
commands compute from formulas without building a module.
"""

from __future__ import annotations

from functools import lru_cache

from ._frozen import Frozen
from .combinat import conjugate, require_self_conjugate, std_tableaux
from .hecke import HeckeElem, NotAlternatingError, hash_inv, is_alternating
from .scalars import R_HALF, RatFunc, TowerElem, _add_term, alpha_coeff, q_minus_qinv, qint
from .symgroup import Permutation


class SemiRep(Frozen):
    """Matrices of the generators on the standard-tableau basis."""

    __slots__ = ("shape", "basis", "index", "gens", "tau", "self_conjugate")

    def __new__(cls, shape, basis, index, gens, tau, self_conjugate):
        return SemiRep._raw(shape, basis, index, gens, tau, self_conjugate)

    @staticmethod
    def _raw(shape, basis, index, gens, tau, self_conjugate) -> "SemiRep":
        rep = object.__new__(SemiRep)
        _set_shape(rep, shape)
        _set_basis(rep, basis)
        _set_index(rep, index)
        _set_gens(rep, gens)
        _set_tau(rep, tau)
        _set_self_conjugate(rep, self_conjugate)
        return rep

    @property
    def dim(self) -> int:
        return len(self.basis)

    def generator_matrix(self, i: int):
        return self.gens[i - 1]

    def __repr__(self):
        return f"SemiRep(shape={self.shape}, dim={self.dim})"


# Frozen refuses assignment, so _raw fills the slots through these
_set_shape = SemiRep.shape.__set__
_set_basis = SemiRep.basis.__set__
_set_index = SemiRep.index.__set__
_set_gens = SemiRep.gens.__set__
_set_tau = SemiRep.tau.__set__
_set_self_conjugate = SemiRep.self_conjugate.__set__


@lru_cache(maxsize=None)
def build_rep(lam) -> SemiRep:
    lam = tuple(lam)
    basis = std_tableaux(lam)
    index = {t: k for k, t in enumerate(basis)}
    n = sum(lam)
    gens = []
    for i in range(1, n):
        rows = []
        for t in basis:
            rho = t.axial(i)
            row = {index[t]: TowerElem.from_scalar(-qint(rho).inverse())}
            swapped, ok = t.apply_s(i)
            if ok:
                row[index[swapped]] = alpha_coeff(rho)
            rows.append(row)
        gens.append(rows)
    self_conj = conjugate(lam) == lam
    if self_conj:
        tau = tuple(index[t.conjugate()] for t in basis)
    else:
        tau = None
    return SemiRep(lam, basis, index, gens, tau, self_conj)


# ---------------------------------------------------------------------------
# Sparse matrix helpers (lists of {column: TowerElem} rows)
# ---------------------------------------------------------------------------

def mat_identity(dim: int):
    one = TowerElem.one()
    return [{r: one} for r in range(dim)]


def mat_mul(a, b):
    out = []
    for row in a:
        acc = {}
        for k, v in row.items():
            for j, w in b[k].items():
                _add_term(acc, j, v * w)
        out.append(acc)
    return out


def mat_add(a, b):
    out = []
    for ra, rb in zip(a, b):
        acc = dict(ra)
        for j, w in rb.items():
            _add_term(acc, j, w)
        out.append(acc)
    return out


def mat_scale(a, c):
    if isinstance(c, RatFunc):
        c = TowerElem.from_scalar(c)
    return [{j: v * c for j, v in row.items()} for row in a]


def mat_trace(a) -> TowerElem:
    total = TowerElem.zero()
    for r, row in enumerate(a):
        v = row.get(r)
        if v is not None:
            total = total + v
    return total


def mat_equal(a, b) -> bool:
    return all(ra == rb for ra, rb in zip(a, b))


def word_matrix(rep: SemiRep, word):
    """Ordered product of generator matrices (identity for the empty word)."""
    out = None
    for i in word:
        g = rep.generator_matrix(i)
        out = g if out is None else mat_mul(out, g)
    if out is None:
        return mat_identity(rep.dim)
    return out


@lru_cache(maxsize=None)
def _perm_matrix(lam: tuple, w: Permutation):
    """Cached word matrix of one permutation; callers must not mutate it."""
    return word_matrix(build_rep(lam), w.reduced_word())


def elem_matrix(rep: SemiRep, h: HeckeElem):
    """Matrix of a Hecke element (linear combination of word matrices)."""
    out = [{} for _ in range(rep.dim)]
    for w, c in h.coeffs.items():
        out = mat_add(out, mat_scale(_perm_matrix(rep.shape, w), c))
    return out


def hashed_word_matrix(rep: SemiRep, word):
    """Matrix of the sign-twisted image of a word: the ordered product of
    (-M_i + (q - q^-1) I) along the word."""
    delta = q_minus_qinv()
    out = mat_identity(rep.dim)
    for i in word:
        step = mat_mul(out, mat_scale(rep.generator_matrix(i), RatFunc(-1)))
        out = mat_add(step, mat_scale(out, delta))
    return out


def averaged_matrix(rep: SemiRep, w: Permutation):
    """Matrix of the averaged basis element of w: half the sum of the plain
    word matrix and its signed twist."""
    word = w.reduced_word()
    plain = word_matrix(rep, word)
    hashed = hashed_word_matrix(rep, word)
    if w.length() % 2:
        hashed = mat_scale(hashed, RatFunc(-1))
    return mat_scale(mat_add(plain, hashed), R_HALF)


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _perm_traces(lam: tuple, w: Permutation):
    """(trace of T_w, trace of T_w followed by tau or None) on shape lam."""
    rep = build_rep(lam)
    mat = word_matrix(rep, w.reduced_word())
    tr = mat_trace(mat)
    if rep.self_conjugate:
        tau = rep.tau
        twisted = TowerElem.zero()
        for r, row in enumerate(mat):
            v = row.get(tau[r])
            if v is not None:
                twisted = twisted + v
        return tr, twisted
    return tr, None


def char_T(lam, x) -> TowerElem:
    """Character of the irreducible module: trace of a permutation's word
    matrix, extended linearly to Hecke elements."""
    lam = tuple(lam)
    if isinstance(x, Permutation):
        return _perm_traces(lam, x)[0]
    total = TowerElem.zero()
    for w, c in x.coeffs.items():
        total = total + _perm_traces(lam, w)[0].scale(c)
    return total


def twisted_trace(lam, x) -> TowerElem:
    """Trace of x composed with the conjugation flip (self-conjugate shapes).

    This is the brute-force oracle for every closed twisted-character
    formula; nothing in this function shares code with those formulas.
    """
    lam = require_self_conjugate(lam)
    if isinstance(x, Permutation):
        return _perm_traces(lam, x)[1]
    total = TowerElem.zero()
    for w, c in x.coeffs.items():
        total = total + _perm_traces(lam, w)[1].scale(c)
    return total


def char_alt(lam, x: HeckeElem) -> TowerElem:
    """Restricted character on the alternating subalgebra (input checked to
    be fixed by the sign-twisted involution)."""
    if not is_alternating(x):
        raise NotAlternatingError("element is not fixed by the sign-twisted involution")
    return char_T(lam, x)


def char_split(lam, sign: int, x: HeckeElem) -> TowerElem:
    """One of the two split characters of a self-conjugate shape:
    (char(x) +- twisted_trace(x)) / 2."""
    lam = require_self_conjugate(lam)
    if not is_alternating(x):
        raise NotAlternatingError("element is not fixed by the sign-twisted involution")
    plus = char_T(lam, x)
    tw = twisted_trace(lam, x)
    if sign >= 0:
        return (plus + tw).scale(R_HALF)
    return (plus - tw).scale(R_HALF)


def twist_check(lam, w: Permutation) -> bool:
    """Verify that the sign-twisted action on shape lam matches the plain
    action on the conjugate shape through tableau transposition, both
    entrywise and on traces."""
    lam = tuple(lam)
    mu = conjugate(lam)
    rep_l = build_rep(lam)
    rep_m = build_rep(mu)
    hashed = elem_matrix(rep_l, hash_inv(HeckeElem.t_basis(w)))
    plain = word_matrix(rep_m, w.reduced_word())
    remap = {rep_l.index[t]: rep_m.index[t.conjugate()] for t in rep_l.basis}
    for r in range(rep_l.dim):
        row = {remap[j]: v for j, v in hashed[r].items()}
        if row != plain[remap[r]]:
            return False
    return char_T(lam, hash_inv(HeckeElem.t_basis(w))) == char_T(mu, w)
