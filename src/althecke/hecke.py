"""The Iwahori-Hecke algebra of type A in its standard basis.

Elements are sparse expansions sum(c_w * T_w) with RatFunc coefficients.
The generators satisfy (T_i - q)(T_i + q**-1) = 0, so right multiplication
obeys T_w * T_i = T_{w s_i} when the length goes up and
T_{w s_i} + (q - q**-1) T_w when it goes down.

On top of the T-basis this module builds:

* the sign-twisted (Goldman) involution ``hash_inv`` with
  T_w -> eps_w * (T_{w**-1})**-1, computed by expanding the product
  (-T_{i1} + q - q**-1)...(-T_{ik} + q - q**-1) along a reduced word;
* the semilinear involutions ``bar_inv`` (q -> q**-1 on scalars,
  standard-basis elements to inverse-transposed inverses) and ``eps_inv``;
* the averaged basis A_z = (T_z + eps_z * T_z^#)/2, whose fixed even span
  is the alternating subalgebra; only ``basis``, B_z and the tests read it;
* the parity-triangular basis B_z, the unique hash-eigenvector of the form
  T_z plus Bruhat-lower terms of opposite length parity, which only the B
  dumps, B split values and tests use (class polynomials build neither);
* the involution generators E_i = (2 T_i - q + q**-1)/(q + q**-1) with
  E_i**2 = 1 and E_i^# = -E_i.
"""

from __future__ import annotations

from functools import lru_cache

from ._frozen import Frozen
from .scalars import (
    R_HALF,
    R_ONE,
    RatFunc,
    _add_term,
    q_minus_qinv,
    q_plus_qinv,
    ratfunc_from_obj,
    ratfunc_to_obj,
)
from .symgroup import Permutation, all_permutations, from_word, identity


class NotAlternatingError(ValueError):
    """An element fixed by the sign-twisted involution was required."""


class HeckeElem(Frozen):
    """Sparse element of the Hecke algebra of S_n over RatFunc scalars."""

    __slots__ = ("n", "coeffs")

    def __new__(cls, n: int, coeffs=None):
        c = {}
        if coeffs:
            for w, v in coeffs.items():
                if not isinstance(v, RatFunc):
                    v = RatFunc(v)
                if v:
                    if w.n != n:
                        raise ValueError(f"permutation degree {w.n} != {n}")
                    c[w] = v
        return HeckeElem._raw(n, c)

    @staticmethod
    def _raw(n: int, coeffs: dict) -> "HeckeElem":
        h = object.__new__(HeckeElem)
        _set_n(h, n)
        _set_coeffs(h, coeffs)
        return h

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "HeckeElem":
        return cls._raw(n, {})

    @classmethod
    def one(cls, n: int) -> "HeckeElem":
        return cls._raw(n, {identity(n): R_ONE})

    @classmethod
    def t_basis(cls, w: Permutation) -> "HeckeElem":
        return cls._raw(w.n, {w: R_ONE})

    @classmethod
    def t_word(cls, word, n: int) -> "HeckeElem":
        return cls.t_basis(from_word(word, n))

    @classmethod
    def generator(cls, i: int, n: int) -> "HeckeElem":
        return cls.t_basis(identity(n).right_mult_s(i))

    # -- linear structure ---------------------------------------------------
    def _check(self, other: "HeckeElem"):
        if self.n != other.n:
            raise ValueError("mixed degrees")

    def __add__(self, other):
        if not isinstance(other, HeckeElem):
            return NotImplemented
        self._check(other)
        c = dict(self.coeffs)
        for w, v in other.coeffs.items():
            _add_term(c, w, v)
        return HeckeElem._raw(self.n, c)

    def __sub__(self, other):
        if not isinstance(other, HeckeElem):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return HeckeElem._raw(self.n, {w: -v for w, v in self.coeffs.items()})

    def scale(self, c) -> "HeckeElem":
        r = RatFunc._coerce(c)
        if r is None:
            raise TypeError(f"cannot scale a HeckeElem by {type(c).__name__}")
        if not r:
            return HeckeElem.zero(self.n)
        return HeckeElem._raw(self.n, {w: v * r for w, v in self.coeffs.items()})

    # -- multiplication -------------------------------------------------
    def times_generator(self, i: int) -> "HeckeElem":
        """Right multiplication by T_i."""
        delta = q_minus_qinv()
        c = {}
        for w, v in self.coeffs.items():
            _add_term(c, w.right_mult_s(i), v)
            if w.has_right_descent(i):
                # T_w T_i = T_{ws} + (q - q^-1) T_w
                _add_term(c, w, v * delta)
        return HeckeElem._raw(self.n, c)

    def __mul__(self, other):
        if not isinstance(other, HeckeElem):
            return NotImplemented
        self._check(other)
        out = HeckeElem.zero(self.n)
        for v, cv in other.coeffs.items():
            cur = self
            for i in v.reduced_word():
                cur = cur.times_generator(i)
            out = out + cur.scale(cv)
        return out

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, HeckeElem) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, tuple(sorted(((w.one_line, v) for w, v in self.coeffs.items())))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def support(self):
        """Support permutations sorted by (length, one-line)."""
        return sorted(self.coeffs, key=lambda w: (w.length(), w.one_line))

    def __repr__(self):
        terms = ", ".join(f"T{list(w.one_line)}: {v}" for w, v in
                          sorted(self.coeffs.items(), key=lambda kv: (kv[0].length(), kv[0].one_line)))
        return f"HeckeElem(n={self.n}, {{{terms}}})"


# Frozen refuses assignment, so _raw fills the slots through these
_set_n = HeckeElem.n.__set__
_set_coeffs = HeckeElem.coeffs.__set__


# ---------------------------------------------------------------------------
# Involutions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hash_of_t(w: Permutation) -> HeckeElem:
    """T_w^# = (-T_{i1} + q - q^-1) ... (-T_{ik} + q - q^-1) along a reduced word."""
    delta = q_minus_qinv()
    out = HeckeElem.one(w.n)
    for i in w.reduced_word():
        out = (-out.times_generator(i)) + out.scale(delta)
    return out


def hash_inv(a: HeckeElem) -> HeckeElem:
    """The linear involution with T_w -> eps_w * (T_{w**-1})**-1."""
    out = HeckeElem.zero(a.n)
    for w, v in a.coeffs.items():
        out = out + _hash_of_t(w).scale(v)
    return out


@lru_cache(maxsize=None)
def _t_inverse(w: Permutation) -> HeckeElem:
    """(T_w)**-1, using T_i**-1 = T_i - (q - q^-1)."""
    delta = q_minus_qinv()
    out = HeckeElem.one(w.n)
    for i in reversed(w.reduced_word()):
        out = out.times_generator(i) - out.scale(delta)
    return out


def hash_inv_via_inverse(a: HeckeElem) -> HeckeElem:
    """Same involution computed from the defining formula (consistency route)."""
    out = HeckeElem.zero(a.n)
    for w, v in a.coeffs.items():
        out = out + _t_inverse(w.inverse()).scale(v * w.eps())
    return out


def bar_inv(a: HeckeElem) -> HeckeElem:
    """Semilinear bar involution: coefficients q -> q**-1, T_w -> (T_{w**-1})**-1."""
    out = HeckeElem.zero(a.n)
    for w, v in a.coeffs.items():
        out = out + _t_inverse(w.inverse()).scale(v.bar())
    return out


def eps_inv(a: HeckeElem) -> HeckeElem:
    """Semilinear sign involution: coefficients barred, T_w -> eps_w T_w."""
    c = {}
    for w, v in a.coeffs.items():
        v = v.bar()
        if w.length() % 2:
            v = -v
        c[w] = v
    return HeckeElem._raw(a.n, c)


def is_alternating(a: HeckeElem) -> bool:
    return hash_inv(a) == a


# ---------------------------------------------------------------------------
# The averaged and parity-triangular bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def a_elem(w: Permutation) -> HeckeElem:
    """A_w = (T_w + eps_w T_w^#)/2; leading coefficient 1, lower support."""
    h = _hash_of_t(w)
    if w.length() % 2:
        h = -h
    return (HeckeElem.t_basis(w) + h).scale(R_HALF)


@lru_cache(maxsize=None)
def b_elem(w: Permutation) -> HeckeElem:
    """B_w: the unique hash-eigenvector T_w + (opposite-parity lower terms).

    Built by induction on length: strip every same-parity lower term of A_w
    with the previously built B elements.  Subtracting a B never introduces
    same-parity terms, so a single pass over the support of A_w suffices.
    """
    ell = w.length()
    a = a_elem(w)
    if ell <= 1:
        return a
    out = dict(a.coeffs)
    for y in a.support():
        if y == w or (y.length() - ell) % 2:
            continue
        c = out.get(y)
        if c:
            _subtract_scaled(out, b_elem(y), c)
    return HeckeElem._raw(w.n, out)


def b_basis(n: int) -> dict:
    """The full parity-triangular basis of the degree-n algebra."""
    return {w: b_elem(w) for w in all_permutations(n)}


@lru_cache(maxsize=None)
def e_elem(i: int, n: int) -> HeckeElem:
    """E_i = (2 T_i - q + q**-1)/(q + q**-1); an involution with E_i^# = -E_i."""
    if not 1 <= i < n:
        raise ValueError(f"generator index {i} outside 1..{n - 1}")
    num = HeckeElem.generator(i, n).scale(2) - HeckeElem.one(n).scale(q_minus_qinv())
    return num.scale(q_plus_qinv().inverse())


# ---------------------------------------------------------------------------
# Basis transitions (peeling by descending length)
# ---------------------------------------------------------------------------

def _subtract_scaled(acc: dict, h: HeckeElem, c: RatFunc) -> None:
    """acc -= c * h on a coefficient dict, in place."""
    c = -c
    for w, v in h.coeffs.items():
        _add_term(acc, w, v * c)


def expand_in_basis(h: HeckeElem, basis_fn) -> dict:
    """Coefficients of h in a unitriangular basis given by basis_fn(w).

    Peels the longest remaining T-term off one working copy of h; valid
    because every basis element is T_w plus strictly Bruhat-lower (hence
    strictly shorter) terms.
    """
    rest = dict(h.coeffs)
    out = {}
    while rest:
        w = max(rest, key=lambda u: (u.length(), u.one_line))
        c = rest[w]
        out[w] = c
        _subtract_scaled(rest, basis_fn(w), c)
    return out


def expand_in_a(h: HeckeElem) -> dict:
    return expand_in_basis(h, a_elem)


def expand_in_b(h: HeckeElem) -> dict:
    return expand_in_basis(h, b_elem)


@lru_cache(maxsize=None)
def t_in_b(w: Permutation) -> tuple:
    """T_w = sum(s_y * B_y): returns ((y, coeff), ...) sorted by length."""
    expansion = expand_in_b(HeckeElem.t_basis(w))
    return tuple(sorted(expansion.items(), key=lambda kv: (kv[0].length(), kv[0].one_line)))


@lru_cache(maxsize=None)
def b_in_a(w: Permutation) -> tuple:
    """B_w = sum(r_x * A_x): returns ((x, coeff), ...) sorted by length."""
    expansion = expand_in_a(b_elem(w))
    return tuple(sorted(expansion.items(), key=lambda kv: (kv[0].length(), kv[0].one_line)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def hecke_to_obj(a: HeckeElem) -> list:
    return [{"perm": list(w.one_line), "coeff": ratfunc_to_obj(v)}
            for w, v in sorted(a.coeffs.items(),
                               key=lambda kv: (kv[0].length(), kv[0].one_line))]


def hecke_from_obj(obj, n: int) -> HeckeElem:
    return HeckeElem(n, {Permutation(t["perm"]): ratfunc_from_obj(t["coeff"])
                         for t in obj})
