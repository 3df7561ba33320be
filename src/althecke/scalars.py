"""Exact scalar arithmetic for alternating Hecke algebra computations.

Three layers, all immutable and hash-stable:

* :class:`GaussianRational` -- numbers a + b*sqrt(-1) with exact rational
  a and b.
* :class:`LaurentPoly` and :class:`RatFunc` -- Laurent polynomials and
  reduced rational functions in q over the Gaussian rationals.  A
  LaurentPoly stores Gaussian-integer numerators (re, im) over one positive
  integer denominator, in lowest terms, so its arithmetic is integer
  arithmetic: one convolution for products, one primitive pseudo-remainder
  sequence over Z[sqrt(-1)] for gcds, one pseudo-division for exact
  quotients.  GaussianRational coefficients are built only when a caller
  reads them.  RatFunc keeps a unique canonical form (coprime, denominator
  a polynomial with nonzero constant term and leading coefficient 1), so
  equal values have identical stored representations and serialize
  byte-identically.
* :class:`TowerElem` -- the quadratic square-root tower.  For each k >= 2
  we adjoin a formal generator y_k with y_k**2 = 1 + q^2 + ... + q^(2k-2),
  that is, y_k**2 = [k]/q for the q-integer [k].  Normalizing the radicand
  by q makes y_1**2 = 1, so y_1 collapses into the coefficient and every
  quantity computed downstream (the seminormal coefficients alpha_k, all
  character values) has integral powers of q.  A tower element is a finite
  sum of monomials y_S = prod(y_k for k in S) with RatFunc coefficients,
  multiplied by the rule y_S * y_T = (prod of radicands over S & T) * y_(S ^ T).

The tower is treated as a commutative ring, never as a field: division is
only available by RatFunc scalars.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from ._frozen import Frozen


class PoleError(ArithmeticError):
    """A numeric specialization hit a vanishing denominator."""


class InvalidGeneratorError(ValueError):
    """A tower generator index below 1 was requested."""


class UndefinedAxialDistanceError(ValueError):
    """alpha_coeff(0) is undefined (axial distance zero cannot occur)."""


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussianRational(Frozen):
    """An exact number a + b*sqrt(-1) with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, re if isinstance(re, Fraction) else Fraction(re))
        _set_im(self, im if isinstance(im, Fraction) else Fraction(im))

    # -- basic predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- ring operations ----------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        nrm = self.re * self.re + self.im * self.im
        if not nrm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / nrm, -self.im / nrm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "√-1"
            if self.im == -1:
                return "-√-1"
            return f"{self.im}·√-1"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        ipart = "√-1" if mag == 1 else f"{mag}·√-1"
        return f"({self.re}{sign}{ipart})"


# Frozen refuses assignment, so each class's builder fills its slots through
# the setters of its slot descriptors, bound once after the class
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__

G_ZERO = GaussianRational(0)
G_ONE = GaussianRational(1)


# ---------------------------------------------------------------------------
# Laurent polynomials over the Gaussian rationals
# ---------------------------------------------------------------------------

class LaurentPoly(Frozen):
    """Sparse Laurent polynomial in q over the Gaussian rationals.

    Stored as Gaussian-integer numerators ``_c = {exp: (re, im)}`` over one
    positive integer denominator ``_d``, in lowest terms: no prime divides
    ``_d`` and every numerator component, zero numerators are never stored,
    and the zero polynomial has ``_d == 1``.  Equal values therefore have equal
    storage.  Coefficients leave as :class:`GaussianRational` only through
    :meth:`items`, :meth:`coeff`, :meth:`evaluate` and the printers.
    """

    __slots__ = ("_c", "_d")

    def __new__(cls, coeffs=None):
        gs = {}
        d = 1
        if coeffs:
            for e, g in coeffs.items():
                if not isinstance(g, GaussianRational):
                    g = GaussianRational(g)
                if g:
                    gs[e] = g
                    d = math.lcm(d, g.re.denominator, g.im.denominator)
        # over the lcm of the denominators the numerators are already coprime to d
        c = {e: (g.re.numerator * (d // g.re.denominator),
                 g.im.numerator * (d // g.im.denominator)) for e, g in gs.items()}
        return LaurentPoly._raw(c, d)

    @staticmethod
    def _raw(c: dict, d: int = 1) -> "LaurentPoly":
        """Build from integer pairs over d without reduction; the caller
        guarantees lowest terms."""
        p = object.__new__(LaurentPoly)
        _set_c(p, c)
        _set_d(p, d)
        return p

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls):
        return L_ZERO

    @classmethod
    def one(cls):
        return L_ONE

    @classmethod
    def q_power(cls, exp: int) -> "LaurentPoly":
        return cls._raw({exp: (1, 0)})

    # -- inspection -------------------------------------------------------
    def _gauss(self, pair) -> GaussianRational:
        d = self._d
        return GaussianRational(Fraction(pair[0], d), Fraction(pair[1], d))

    def items(self):
        return [(e, self._gauss(c)) for e, c in sorted(self._c.items())]

    def coeff(self, exp: int) -> GaussianRational:
        c = self._c.get(exp)
        return G_ZERO if c is None else self._gauss(c)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def __len__(self):
        return len(self._c)

    def valuation(self) -> int:
        if not self._c:
            raise ValueError("valuation of zero polynomial")
        return min(self._c)

    def degree(self) -> int:
        if not self._c:
            raise ValueError("degree of zero polynomial")
        return max(self._c)

    def is_one(self) -> bool:
        return self._d == 1 and len(self._c) == 1 and self._c.get(0) == (1, 0)

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    # -- arithmetic -------------------------------------------------------
    def _combine(self, other, sign: int) -> "LaurentPoly":
        """self + sign * other over the lcm of the two denominators."""
        d1, d2 = self._d, other._d
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        c = dict(self._c) if m1 == 1 else {e: (a * m1, b * m1) for e, (a, b) in self._c.items()}
        for e, (a, b) in other._c.items():
            a, b = a * m2, b * m2
            s = c.get(e)
            if s is not None:
                a, b = a + s[0], b + s[1]
            if a or b:
                c[e] = (a, b)
            else:
                del c[e]
        return _lowest(c, d1 * m1)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return LaurentPoly._raw({e: (-a, -b) for e, (a, b) in self._c.items()}, self._d)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        c = {}
        for ea, (ar, ai) in a.items():
            for eb, (br, bi) in b.items():
                e = ea + eb
                s = c.get(e)
                if s is None:
                    c[e] = (ar * br - ai * bi, ar * bi + ai * br)
                else:
                    c[e] = (s[0] + ar * br - ai * bi, s[1] + ar * bi + ai * br)
        return _lowest({e: v for e, v in c.items() if v != (0, 0)}, self._d * other._d)

    def _scaled(self, re: int, im: int, den: int) -> "LaurentPoly":
        """Multiply by (re + im*sqrt(-1)) / den, for integers with den > 0."""
        return _lowest({e: (a * re - b * im, a * im + b * re) for e, (a, b) in self._c.items()},
                       self._d * den)

    def scale(self, g: GaussianRational) -> "LaurentPoly":
        if not g:
            return L_ZERO
        m = math.lcm(g.re.denominator, g.im.denominator)
        return self._scaled(g.re.numerator * (m // g.re.denominator),
                            g.im.numerator * (m // g.im.denominator), m)

    def _recip_lead(self):
        """(re, im, den) such that (re + im*sqrt(-1)) / den inverts the leading
        coefficient, or None when the leading coefficient is 1."""
        a, b = self._c[max(self._c)]
        d = self._d
        if a == d and not b:
            return None
        return d * a, -d * b, a * a + b * b

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q**k."""
        if not k:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self._c.items()}, self._d)

    def bar(self) -> "LaurentPoly":
        """The involution q -> q**-1 (sqrt(-1) is fixed)."""
        return LaurentPoly._raw({-e: c for e, c in self._c.items()}, self._d)

    def evaluate(self, q0: Fraction) -> GaussianRational:
        re = Fraction(0)
        im = Fraction(0)
        for e, (a, b) in self._c.items():
            p = q0 ** e
            re += a * p
            im += b * p
        return GaussianRational(re / self._d, im / self._d)

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._d == other._d and self._c == other._c

    def __hash__(self):
        return hash((self._d, tuple(sorted(self._c.items()))))

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())!r})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, g in self.items():
            if e == 0:
                term = str(g)
            else:
                qs = "q" if e == 1 else f"q^{e}"
                if g == G_ONE:
                    term = qs
                elif g == -G_ONE:
                    term = f"-{qs}"
                else:
                    gs = str(g)
                    if ("+" in gs[1:]) or ("-" in gs[1:]) or "·" in gs:
                        gs = f"({gs})" if not gs.startswith("(") else gs
                    term = f"{gs}·{qs}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out


_set_c = LaurentPoly._c.__set__
_set_d = LaurentPoly._d.__set__


def _lowest(c: dict, d: int) -> LaurentPoly:
    """The polynomial with numerators c over d > 0, reduced to lowest terms."""
    if d != 1:
        g = d
        for a, b in c.values():
            g = math.gcd(g, a, b)
            if g == 1:
                break
        if g != 1:
            d //= g
            c = {e: (a // g, b // g) for e, (a, b) in c.items()}
    return LaurentPoly._raw(c, d)


L_ZERO = LaurentPoly._raw({})
L_ONE = LaurentPoly._raw({0: (1, 0)})


# -- polynomial gcd and exact division over Z[sqrt(-1)] ----------------------
#
# Dense coefficient lists (index = exponent >= 0) of Gaussian-integer pairs:
# the numerators of a LaurentPoly, whose denominator only rescales.

def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _numerators(p: LaurentPoly) -> list:
    out = [(0, 0)] * (p.degree() + 1)
    for e, c in p._c.items():
        out[e] = c
    return out


def _from_numerators(v: list) -> LaurentPoly:
    return LaurentPoly._raw({e: c for e, c in enumerate(v) if c != (0, 0)})


def _gauss_gcd(a, b):
    """A gcd of two Gaussian integers by Euclid with rounded quotients."""
    while b != (0, 0):
        n = b[0] * b[0] + b[1] * b[1]
        x, y = _gmul(a, (b[0], -b[1]))
        q = ((2 * x + n) // (2 * n), (2 * y + n) // (2 * n))
        qb = _gmul(q, b)
        a, b = b, (a[0] - qb[0], a[1] - qb[1])
    return a


def _primitive(v: list) -> list:
    """v divided by the Gaussian-integer gcd of its entries."""
    g = (0, 0)
    for c in v:
        g = _gauss_gcd(g, c)
        if g[0] * g[0] + g[1] * g[1] == 1:
            return v
    n = g[0] * g[0] + g[1] * g[1]
    conj = (g[0], -g[1])
    return [(x // n, y // n) for x, y in (_gmul(c, conj) for c in v)]


def _pseudo_divmod(u: list, v: list):
    """Pseudo-division over Z[sqrt(-1)]: (quo, rem, m) with
    m * u == quo * v + rem, deg rem < deg v and m a power of lc(v)."""
    rem = list(u)
    dv, lv = len(v) - 1, v[-1]
    quo = [(0, 0)] * max(len(u) - dv, 0)
    m = (1, 0)
    while len(rem) > dv:
        f = rem[-1]
        s = len(rem) - 1 - dv
        if lv != (1, 0):
            rem = [_gmul(c, lv) for c in rem]
            quo = [_gmul(c, lv) for c in quo]
            m = _gmul(m, lv)
        quo[s] = f
        for j, c in enumerate(v):
            x, y = _gmul(f, c)
            r = rem[s + j]
            rem[s + j] = (r[0] - x, r[1] - y)
        while rem and rem[-1] == (0, 0):
            rem.pop()
    return quo, rem, m


def _poly_gcd(p: LaurentPoly, r: LaurentPoly) -> LaurentPoly:
    """Monic gcd of two polynomials with nonzero constant terms: a primitive
    pseudo-remainder sequence over Z[sqrt(-1)] (Collins, J. ACM 14, 1967)."""
    a, b = _primitive(_numerators(p)), _primitive(_numerators(r))
    if len(a) < len(b):
        a, b = b, a
    while b:
        rem = _pseudo_divmod(a, b)[1]
        a, b = b, (_primitive(rem) if rem else [])
    g = _from_numerators(a)
    inv = g._recip_lead()
    return g._scaled(*inv) if inv else g


def _poly_exact_div(p: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    quo, rem, m = _pseudo_divmod(_numerators(p), _numerators(g))
    if rem:
        raise ArithmeticError("inexact polynomial division")
    # m * P == quo * G for the numerators P, G of p and g, so
    # p / g == quo * g._d / (m * p._d) == quo * g._d * conj(m) / (|m|**2 * p._d)
    return _from_numerators(quo)._scaled(g._d * m[0], -g._d * m[1],
                                         (m[0] * m[0] + m[1] * m[1]) * p._d)


# ---------------------------------------------------------------------------
# Reduced rational functions in q
# ---------------------------------------------------------------------------

class RatFunc(Frozen):
    """A rational function num/den over Q(sqrt(-1)), stored canonically.

    Canonical form: num and den share no polynomial factor, the stored den
    has valuation 0 (nonzero constant term) and leading coefficient exactly
    1; any leftover power of q lives in num.  Equal values therefore have
    identical stored forms, which the golden-file tests rely on.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num, den=None):
        if isinstance(num, (int, Fraction, GaussianRational)):
            num = LaurentPoly({0: num})
        if den is None:
            den = L_ONE
        elif isinstance(den, (int, Fraction, GaussianRational)):
            den = LaurentPoly({0: den})
        return RatFunc._make(*_reduce(num, den))

    @staticmethod
    def _make(num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        """Build without reduction; caller guarantees canonical form."""
        r = object.__new__(RatFunc)
        _set_num(r, num)
        _set_den(r, den)
        return r

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls):
        return R_ZERO

    @classmethod
    def one(cls):
        return R_ONE

    @classmethod
    def q_power(cls, exp: int) -> "RatFunc":
        return cls._make(LaurentPoly.q_power(exp), L_ONE)

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RatFunc":
        return cls._make(p, L_ONE)

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_laurent(self) -> bool:
        return self.den.is_one()

    # -- arithmetic -------------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RatFunc(other)
        if isinstance(other, LaurentPoly):
            return RatFunc._make(other, L_ONE)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _rf_add(self, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _rf_add(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _rf_add(o, self, -1)

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _rf_mul(self, o)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        """Swap and renormalize; canonical inputs stay canonical."""
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        a = self.num.valuation()
        npoly = self.num.shift(-a) if a else self.num
        inv = npoly._recip_lead()
        if inv is None:
            return RatFunc._make(self.den.shift(-a), npoly)
        return RatFunc._make(self.den._scaled(*inv).shift(-a), npoly._scaled(*inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _rf_mul(self, o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def bar(self) -> "RatFunc":
        """The involution q -> q**-1 extended to rational functions."""
        return RatFunc(self.num.bar(), self.den.bar())

    def evaluate(self, q0: Fraction) -> GaussianRational:
        dval = self.den.evaluate(q0)
        if not dval:
            raise PoleError(f"denominator vanishes at q = {q0}")
        return self.num.evaluate(q0) / dval

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        ns = str(self.num)
        if len(self.num) > 1:
            ns = f"({ns})"
        return f"{ns}/({self.den})"


_set_num = RatFunc.num.__set__
_set_den = RatFunc.den.__set__


def _reduce(num: LaurentPoly, den: LaurentPoly):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return L_ZERO, L_ONE
    if den.is_monomial():
        inv = den._recip_lead()
        num2 = num._scaled(*inv) if inv else num
        return num2.shift(-den.valuation()), L_ONE
    a = num.valuation()
    b = den.valuation()
    pnum = num.shift(-a)
    pden = den.shift(-b)
    if not pnum.is_monomial():
        g = _poly_gcd(pnum, pden)
        if not g.is_one():
            pnum = _poly_exact_div(pnum, g)
            pden = _poly_exact_div(pden, g)
            if pden.is_monomial():
                inv = pden._recip_lead()
                num2 = pnum._scaled(*inv) if inv else pnum
                return num2.shift(a - b), L_ONE
    inv = pden._recip_lead()
    if inv:
        pnum = pnum._scaled(*inv)
        pden = pden._scaled(*inv)
    return pnum.shift(a - b), pden


def _laurent_exact_div(p: LaurentPoly, h: LaurentPoly) -> LaurentPoly:
    """Divide by a polynomial with nonzero constant term, preserving q-powers."""
    a = p.valuation()
    npoly = p.shift(-a) if a else p
    return _poly_exact_div(npoly, h).shift(a)


def _val0_gcd(p: LaurentPoly, r: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the polynomial parts (q-power factors stripped)."""
    pv = p.valuation()
    rv = r.valuation()
    p0 = p.shift(-pv) if pv else p
    r0 = r.shift(-rv) if rv else r
    if p0.is_monomial() or r0.is_monomial():
        return L_ONE
    return _poly_gcd(p0, r0)


def _rf_add(a: RatFunc, b: RatFunc, sign: int) -> RatFunc:
    """Sum/difference of canonical fractions, keeping gcd work on the
    denominator overlap instead of the full products."""
    bn = b.num if sign > 0 else -b.num
    if a.num.is_zero():
        return RatFunc._make(bn, b.den)
    if not bn:
        return a
    d1, d2 = a.den, b.den
    if d1.is_one():
        if d2.is_one():
            return RatFunc._make(a.num + bn, L_ONE)
        num = a.num * d2 + bn
        return RatFunc._make(num, d2) if num else R_ZERO
    if d2.is_one():
        num = a.num + bn * d1
        return RatFunc._make(num, d1) if num else R_ZERO
    g = _poly_gcd(d1, d2)
    if g.is_one():
        num = a.num * d2 + bn * d1
        return RatFunc._make(num, d1 * d2) if num else R_ZERO
    d1r = _poly_exact_div(d1, g)
    d2r = _poly_exact_div(d2, g)
    num = a.num * d2r + bn * d1r
    if not num:
        return R_ZERO
    # reduced inputs: gcd(num, den) = gcd(num, g), a divisor of d2 (Knuth, TAOCP 2, 4.5.1)
    h = _val0_gcd(num, g)
    if not h.is_one():
        num = _laurent_exact_div(num, h)
        d2 = _poly_exact_div(d2, h)
    den = d1r * d2
    if den.is_monomial():
        return RatFunc._make(num, L_ONE)
    return RatFunc._make(num, den)


def _rf_mul(a: RatFunc, b: RatFunc) -> RatFunc:
    """Product of canonical fractions via cross-cancellation; the result is
    coprime by construction so no final reduction is needed."""
    if a.num.is_zero() or b.num.is_zero():
        return R_ZERO
    d1, d2 = a.den, b.den
    if d1.is_one() and d2.is_one():
        return RatFunc._make(a.num * b.num, L_ONE)
    n1, n2 = a.num, b.num
    if not d2.is_one():
        u = _val0_gcd(n1, d2)
        if not u.is_one():
            n1 = _laurent_exact_div(n1, u)
            d2 = _poly_exact_div(d2, u)
    if not d1.is_one():
        v = _val0_gcd(n2, d1)
        if not v.is_one():
            n2 = _laurent_exact_div(n2, v)
            d1 = _poly_exact_div(d1, v)
    den = d1 * d2
    if den.is_monomial():
        return RatFunc._make(n1 * n2, L_ONE)
    return RatFunc._make(n1 * n2, den)


R_ZERO = RatFunc._make(L_ZERO, L_ONE)
R_ONE = RatFunc._make(L_ONE, L_ONE)
R_HALF = RatFunc._make(LaurentPoly._raw({0: (1, 0)}, 2), L_ONE)


@lru_cache(maxsize=None)
def q_minus_qinv() -> RatFunc:
    return RatFunc.from_laurent(LaurentPoly({1: 1, -1: -1}))


@lru_cache(maxsize=None)
def q_plus_qinv() -> RatFunc:
    return RatFunc.from_laurent(LaurentPoly({1: 1, -1: 1}))


# ---------------------------------------------------------------------------
# q-integers and tower radicands
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def qint_laurent(k: int) -> LaurentPoly:
    """The q-integer [k] = q + q^3 + ... + q^(2k-1), with [-k] = -q^(-2k)[k]."""
    if k >= 0:
        return LaurentPoly({2 * j - 1: 1 for j in range(1, k + 1)})
    return LaurentPoly({-(2 * j - 1): -1 for j in range(1, -k + 1)})


@lru_cache(maxsize=None)
def qint(k: int) -> RatFunc:
    return RatFunc.from_laurent(qint_laurent(k))


@lru_cache(maxsize=None)
def p_poly(k: int) -> LaurentPoly:
    """Radicand of the k-th tower generator: [k]/q = 1 + q^2 + ... + q^(2k-2)."""
    if k < 1:
        raise InvalidGeneratorError(f"tower generator index must be >= 1, got {k}")
    return LaurentPoly({2 * j: 1 for j in range(k)})


@lru_cache(maxsize=None)
def _p_ratfunc(k: int) -> RatFunc:
    return RatFunc.from_laurent(p_poly(k))


def _add_term(acc: dict, key, v) -> None:
    """acc[key] += v on a coefficient dict, keeping no zero coefficient."""
    cur = acc.get(key)
    if cur is None:
        if v:
            acc[key] = v
    else:
        cur = cur + v
        if cur:
            acc[key] = cur
        else:
            del acc[key]


# ---------------------------------------------------------------------------
# The square-root tower
# ---------------------------------------------------------------------------

class TowerElem(Frozen):
    """Finite sum of square-root monomials y_S with RatFunc coefficients.

    Keys are frozensets of generator indices >= 2 (y_1 = 1 is folded into
    the coefficient); the empty set indexes the scalar part.
    """

    __slots__ = ("terms",)

    def __new__(cls, terms=None):
        t = {}
        if terms:
            for s, c in terms.items():
                if not isinstance(c, RatFunc):
                    c = RatFunc(c)
                if c:
                    s = frozenset(s)
                    if s and min(s) < 2:
                        raise InvalidGeneratorError(
                            f"tower monomial indices must be >= 2, got {sorted(s)}")
                    t[s] = c
        return TowerElem._raw(t)

    @staticmethod
    def _raw(t: dict) -> "TowerElem":
        e = object.__new__(TowerElem)
        _set_terms(e, t)
        return e

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls):
        return T_ZERO

    @classmethod
    def one(cls):
        return T_ONE

    @classmethod
    def from_scalar(cls, c) -> "TowerElem":
        if not isinstance(c, RatFunc):
            c = RatFunc(c)
        if not c:
            return T_ZERO
        return cls._raw({frozenset(): c})

    @classmethod
    def gen(cls, k: int) -> "TowerElem":
        """The generator y_k (y_1 is the identity)."""
        if k < 1:
            raise InvalidGeneratorError(f"tower generator index must be >= 1, got {k}")
        if k == 1:
            return T_ONE
        return cls._raw({frozenset({k}): R_ONE})

    @classmethod
    def monomial(cls, indices, coeff=1) -> "TowerElem":
        elem = cls.from_scalar(coeff)
        for k in indices:
            elem = elem * cls.gen(k)
        return elem

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, TowerElem):
            return other
        if isinstance(other, (int, Fraction, GaussianRational, RatFunc, LaurentPoly)):
            return TowerElem.from_scalar(RatFunc._coerce(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = dict(self.terms)
        for s, c in o.terms.items():
            _add_term(t, s, c)
        return TowerElem._raw(t)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return TowerElem._raw({s: -c for s, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in o.terms.items():
                c = c1 * c2
                common = s1 & s2
                for k in common:
                    c = c * _p_ratfunc(k)
                _add_term(t, s1 ^ s2, c)
        return TowerElem._raw(t)

    __rmul__ = __mul__

    def scale(self, c) -> "TowerElem":
        c = RatFunc._coerce(c)
        if not c:
            return T_ZERO
        return TowerElem._raw({s: v * c for s, v in self.terms.items()})

    def __truediv__(self, other):
        c = RatFunc._coerce(other)
        if c is None:
            return NotImplemented
        return self.scale(c.inverse())

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(tuple(sorted(((tuple(sorted(s)), c) for s, c in self.terms.items()))))

    def sorted_terms(self):
        return sorted(((tuple(sorted(s)), c) for s, c in self.terms.items()))

    def __repr__(self):
        return f"TowerElem({{{', '.join(f'{s}: {c!r}' for s, c in self.sorted_terms())}}})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for s, c in self.sorted_terms():
            ys = "·".join(f"y{k}" for k in s)
            cs = str(c)
            if not s:
                parts.append(cs)
            elif c == R_ONE:
                parts.append(ys)
            else:
                if ("+" in cs[1:]) or (" - " in cs) or cs.startswith("("):
                    cs = f"({cs})"
                parts.append(f"{cs}·{ys}")
        return " + ".join(parts)


_set_terms = TowerElem.terms.__set__

T_ZERO = TowerElem._raw({})
T_ONE = TowerElem._raw({frozenset(): R_ONE})


# ---------------------------------------------------------------------------
# Seminormal coefficients and the bar involution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def alpha_coeff(k: int) -> TowerElem:
    """Off-diagonal seminormal coefficient for axial distance k.

    For k >= 2 this is sqrt(-1) * q * y_(k+1) * y_(k-1) / [k]; the two
    radicals over indices k+1 and k-1 appear because sqrt([k+1])*sqrt([k-1])
    equals q * y_(k+1) * y_(k-1) in the normalized tower.  Odd arguments
    mirror as alpha(-k) = -alpha(k), and |k| = 1 gives 0 (the swapped
    tableau is not standard there).
    """
    if k == 0:
        raise UndefinedAxialDistanceError("axial distance 0 has no alpha coefficient")
    if k < 0:
        return -alpha_coeff(-k)
    if k == 1:
        return T_ZERO
    coeff = RatFunc._make(LaurentPoly._raw({1: (0, 1)}), L_ONE) / qint(k)
    return TowerElem.gen(k + 1) * TowerElem.gen(k - 1) * coeff


def bar_map(a: TowerElem) -> TowerElem:
    """Extend q -> q**-1 to the tower by y_k -> -q^(1-k) * y_k.

    This is the unique extension whose square is compatible with the
    radicand transformation bar([k]/q) = q^(2-2k) * [k]/q, and it is an
    involutive ring map fixing sqrt(-1).
    """
    t = {}
    for s, c in a.terms.items():
        c = c.bar()
        shift = 0
        for k in s:
            shift += 1 - k
        if len(s) % 2:
            c = -c
        if shift:
            c = c * RatFunc.q_power(shift)
        if c:
            t[s] = c
    return TowerElem._raw(t)


def specialize_numeric(a: TowerElem, q0, branch=None) -> complex:
    """Evaluate at a rational q0 with chosen square-root branches.

    ``branch`` is a dict from generator index to +1 or -1 (default +1);
    the value of y_k is branch[k] * sqrt([k]/q at q0) in double precision.
    """
    q0 = Fraction(q0)
    if not q0:
        raise PoleError("q = 0 is outside the semisimple range")
    total = 0j
    for s, c in a.terms.items():
        val = c.evaluate(q0).to_complex()
        for k in s:
            rad = p_poly(k).evaluate(q0).re
            sgn = branch.get(k, 1) if branch else 1
            val *= sgn * math.sqrt(rad)
        total += val
    return total


# ---------------------------------------------------------------------------
# Canonical serialization and pretty printing
# ---------------------------------------------------------------------------

def _laurent_to_obj(p: LaurentPoly) -> list:
    """[[exp, re numerator, re denominator, im numerator, im denominator], ...]
    with each fraction in lowest terms, read off the integer pairs."""
    d = p._d
    out = []
    for e, (a, b) in sorted(p._c.items()):
        ga, gb = math.gcd(a, d), math.gcd(b, d)
        out.append([e, a // ga, d // ga, b // gb, d // gb])
    return out


def _laurent_from_obj(obj) -> LaurentPoly:
    return LaurentPoly({int(e): GaussianRational(Fraction(rn, rd), Fraction(im, idn))
                        for e, rn, rd, im, idn in obj})


def ratfunc_to_obj(r: RatFunc) -> dict:
    return {"num": _laurent_to_obj(r.num), "den": _laurent_to_obj(r.den)}


def ratfunc_from_obj(obj) -> RatFunc:
    return RatFunc(_laurent_from_obj(obj["num"]), _laurent_from_obj(obj["den"]))


def tower_to_obj(a: TowerElem) -> dict:
    terms = []
    for ys, c in a.sorted_terms():
        terms.append({"ys": list(ys), "num": _laurent_to_obj(c.num),
                      "den": _laurent_to_obj(c.den)})
    return {"terms": terms}


def tower_from_obj(obj) -> TowerElem:
    t = {}
    for term in obj["terms"]:
        c = RatFunc(_laurent_from_obj(term["num"]), _laurent_from_obj(term["den"]))
        if c:
            t[frozenset(int(k) for k in term["ys"])] = c
    return TowerElem._raw(t)


def canonical_json(obj) -> str:
    """Stable byte-for-byte JSON used by golden files and the CLI."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def pretty_tower(a: TowerElem) -> str:
    """Render a tower element in radical notation, e.g. √-1·q^(-3/2)·√[3]."""
    if a.is_zero():
        return "0"
    parts = []
    for ys, c in a.sorted_terms():
        rad = "·".join(f"√[{k}]" for k in ys)
        half = -len(ys)  # y_k = sqrt([k])/sqrt(q) contributes q^(-1/2) each
        piece = None
        if c.is_laurent() and c.num.is_monomial():
            e = c.num.valuation()
            g = c.num.coeff(e)
            num2 = 2 * e + half
            if num2 == 0:
                qs = ""
            elif num2 % 2 == 0:
                qs = f"q^{num2 // 2}" if num2 // 2 != 1 else "q"
            else:
                qs = f"q^({num2}/2)"
            gs = "" if g == G_ONE else ("-" if g == -G_ONE else str(g))
            atoms = [x for x in (gs if gs not in ("", "-") else "", qs, rad) if x]
            body = "·".join(atoms) if atoms else "1"
            piece = ("-" + body) if gs == "-" else body
        if piece is None:
            qs = "" if half == 0 else (f"q^{half // 2}" if half % 2 == 0 else f"q^({half}/2)")
            atoms = [f"({c})"] + [x for x in (qs, rad) if x]
            piece = "·".join(atoms)
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out
