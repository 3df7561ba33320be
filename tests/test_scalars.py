import json
import operator
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from althecke.scalars import (
    GaussianRational,
    InvalidGeneratorError,
    LaurentPoly,
    PoleError,
    RatFunc,
    TowerElem,
    UndefinedAxialDistanceError,
    _add_term,
    alpha_coeff,
    bar_map,
    canonical_json,
    p_poly,
    pretty_tower,
    q_minus_qinv,
    qint,
    qint_laurent,
    ratfunc_to_obj,
    specialize_numeric,
    tower_from_obj,
    tower_to_obj,
)


# -- strategies -------------------------------------------------------------

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def gaussians(draw):
    return GaussianRational(draw(small_fracs), draw(small_fracs))


@st.composite
def laurents(draw):
    exps = draw(st.lists(st.integers(min_value=-4, max_value=4), max_size=3))
    return LaurentPoly({e: draw(gaussians()) for e in exps})


@st.composite
def ratfuncs(draw):
    num = draw(laurents())
    den = draw(laurents().filter(lambda p: not p.is_zero()))
    return RatFunc(num, den)


@st.composite
def qint_quotients(draw):
    """A Gaussian multiple of a product of q-integers over another.  The pool
    is small and [2] divides [4] and [6], [3] divides [6], so operands share
    factors and repeat them."""
    factors = st.lists(st.sampled_from((2, 3, 4, 6)), max_size=2)
    num = den = LaurentPoly.one()
    for k in draw(factors):
        num = num * qint_laurent(k)
    for k in draw(factors):
        den = den * qint_laurent(k)
    return RatFunc(num.scale(draw(gaussians().filter(bool))), den)


@st.composite
def towers(draw):
    keys = draw(st.lists(
        st.frozensets(st.integers(min_value=2, max_value=6), max_size=2),
        max_size=3))
    return TowerElem({k: draw(ratfuncs()) for k in keys})


# -- q-integers -------------------------------------------------------------

def test_qint_examples():
    q = RatFunc.q_power
    assert qint(0).is_zero()
    assert qint(1) == q(1)
    assert qint(-1) == -q(-1)
    assert qint(2) == RatFunc(LaurentPoly({1: 1, 3: 1}))


@pytest.mark.parametrize("k", range(1, 9))
def test_qint_negation_rule(k):
    assert qint(-k) == -(RatFunc.q_power(-2 * k) * qint(k))


def test_p_poly():
    assert p_poly(1) == LaurentPoly({0: 1})
    assert p_poly(2) == LaurentPoly({0: 1, 2: 1})
    assert p_poly(3) == LaurentPoly({0: 1, 2: 1, 4: 1})
    for k in range(1, 8):
        assert RatFunc.q_power(1) * RatFunc.from_laurent(p_poly(k)) == qint(k)
    with pytest.raises(InvalidGeneratorError):
        p_poly(0)


# -- rational function canonical form ---------------------------------------

def test_ratfunc_reduction():
    one = RatFunc(qint(2).num * qint(3).num, qint(3).num * qint(2).num)
    assert one == RatFunc(1)
    r = qint(3) / qint(1)
    assert r.is_laurent()
    assert r.num == LaurentPoly({0: 1, 2: 1, 4: 1})


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_ratfunc_equal_values_identical_forms(a, b):
    if (a - b).is_zero():
        assert a.num == b.num and a.den == b.den
    else:
        assert a != b


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    if not b.is_zero():
        assert (a / b) * b == a


def _naive_product(p, r):
    out = {}
    for e1, g1 in p.items():
        for e2, g2 in r.items():
            out[e1 + e2] = out.get(e1 + e2, GaussianRational(0)) + g1 * g2
    return {e: g for e, g in out.items() if g}


def _naive_sum(p, r, sign):
    out = dict(p.items())
    for e, g in r.items():
        out[e] = out.get(e, GaussianRational(0)) + sign * g
    return {e: g for e, g in out.items() if g}


@settings(max_examples=100, deadline=None)
@given(laurents(), laurents(), gaussians())
def test_laurent_arithmetic_matches_gaussian_coefficients(p, r, g):
    # integer numerators over one denominator against GaussianRational sums
    for got, want in ((p * r, _naive_product(p, r)),
                      (p + r, _naive_sum(p, r, 1)),
                      (p - r, _naive_sum(p, r, -1)),
                      (p.scale(g), {e: c * g for e, c in p.items() if c * g})):
        assert dict(got.items()) == want
        assert got == LaurentPoly(want)  # one stored form per value


def test_nonreal_common_factor_cancels():
    i = GaussianRational(0, 1)
    q_minus_i = LaurentPoly({1: 1, 0: -i})
    num, den = LaurentPoly({1: 1, 0: 2}), LaurentPoly({1: 1, 0: 3})
    a = RatFunc(q_minus_i * num, q_minus_i * den)
    b = RatFunc(num, den)
    assert a.num == b.num and a.den == b.den
    assert canonical_json(ratfunc_to_obj(a)) == canonical_json(ratfunc_to_obj(b))
    assert ratfunc_to_obj(a) == {"num": [[0, 2, 1, 0, 1], [1, 1, 1, 0, 1]],
                                 "den": [[0, 3, 1, 0, 1], [1, 1, 1, 0, 1]]}
    # non-real contents too: (2+6i)/(3-i) = 2i
    a = RatFunc((q_minus_i * num).scale(GaussianRational(2, 6)),
                (q_minus_i * den).scale(GaussianRational(3, -1)))
    assert ratfunc_to_obj(a) == {"num": [[0, 0, 1, 4, 1], [1, 0, 1, 2, 1]],
                                 "den": [[0, 3, 1, 0, 1], [1, 1, 1, 0, 1]]}


def test_sum_cancels_part_of_a_shared_squared_factor():
    q1, q2, q3 = (LaurentPoly({1: 1, 0: c}) for c in (1, 2, 3))
    s = RatFunc(1, q1 * q1 * q2) - RatFunc(2, q1 * q1 * q3)
    assert s == RatFunc(-1, q1 * q2 * q3)
    unreduced = RatFunc(q3 - q2 - q2, q1 * q1 * q2 * q3)
    assert ratfunc_to_obj(s) == ratfunc_to_obj(unreduced)


def test_inverse_takes_no_gcd(monkeypatch):
    # a canonical value's parts are coprime, so the inverse swaps them with no
    # gcd, and a quotient takes only the one of its product
    from althecke import scalars

    calls = []

    def counted(p, r):
        calls.append((p, r))
        return gcd(p, r)

    gcd = scalars._poly_gcd
    monkeypatch.setattr(scalars, "_poly_gcd", counted)
    a = qint(3) / (qint(2) * (1 + RatFunc.q_power(1)))
    b = (qint(5) + 1) / qint(4)
    calls.clear()
    inv = b.inverse()
    assert len(calls) == 0
    quo = a / b
    assert len(calls) == 1
    for got, want in ((inv, RatFunc(b.den, b.num)), (quo, RatFunc(a.num * b.den, a.den * b.num))):
        assert (got.num, got.den) == (want.num, want.den)
        assert ratfunc_to_obj(got) == ratfunc_to_obj(want)


def _field_gcd_degree(p: LaurentPoly, r: LaurentPoly) -> int:
    """Degree of gcd(p, r) with the powers of q stripped, by Euclid over
    Q(sqrt(-1)) on GaussianRational coefficient lists, constant term first."""
    a, b = ([x.coeff(e) for e in range(x.valuation(), x.degree() + 1)] for x in (p, r))
    while b:
        while len(a) >= len(b):
            f, s = a[-1] / b[-1], len(a) - len(b)
            for j, c in enumerate(b):
                a[s + j] = a[s + j] - f * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _assert_canonical(r: RatFunc) -> None:
    if not r:
        assert r.den.is_one()
        return
    assert r.den.coeff(0) and r.den.coeff(r.den.degree()) == 1
    assert _field_gcd_degree(r.num, r.den) == 0


_POINTS = (Fraction(2), Fraction(-1, 3), Fraction(3, 2))


@settings(max_examples=40, deadline=None)
@given(st.one_of(ratfuncs(), qint_quotients()), st.one_of(ratfuncs(), qint_quotients()))
def test_ratfunc_arithmetic_matches_evaluation(a, b):
    # each result against the same operation on the values at rational points
    # away from the poles, and in canonical form by an independent gcd
    got = {"+": a + b, "-": a - b, "*": a * b}
    if b:
        got["/"] = a / b
    if a:
        got["inverse"] = a.inverse()
    for r in got.values():
        _assert_canonical(r)
    for q0 in _POINTS:
        try:
            x, y = a.evaluate(q0), b.evaluate(q0)
        except PoleError:
            continue
        want = {"+": x + y, "-": x - y, "*": x * y,
                "/": x / y if y else None, "inverse": x.inverse() if x else None}
        for op, r in got.items():
            if want[op] is not None:
                assert r.evaluate(q0) == want[op], op


def test_mixed_denominators_serialize():
    r = RatFunc(Fraction(1, 2)) + RatFunc.q_power(1) * RatFunc(Fraction(1, 3))
    assert ratfunc_to_obj(r) == {"num": [[0, 1, 2, 0, 1], [1, 1, 3, 0, 1]],
                                 "den": [[0, 1, 1, 0, 1]]}
    p = LaurentPoly({0: Fraction(1, 2), 2: GaussianRational(Fraction(1, 6), Fraction(-3, 4))})
    assert ratfunc_to_obj(RatFunc(p, 3)) == {
        "num": [[0, 1, 6, 0, 1], [2, 1, 18, -1, 4]], "den": [[0, 1, 1, 0, 1]]}


def test_ratfunc_bar():
    delta = q_minus_qinv()
    assert delta.bar() == -delta
    r = qint(2) / qint(3)
    assert r.bar().bar() == r


# -- tower ring -------------------------------------------------------------

def test_tower_defining_relation():
    y3 = TowerElem.gen(3)
    assert y3 * y3 == TowerElem.from_scalar(RatFunc.from_laurent(p_poly(3)))
    y5 = TowerElem.gen(5)
    prod = y3 * y5
    assert prod == TowerElem({frozenset({3, 5}): 1})
    q = RatFunc.q_power(1)
    y2 = TowerElem.gen(2)
    assert (y2.scale(q) + y2.scale(-q)).is_zero()


def test_tower_generator_one_folds():
    assert TowerElem.gen(1) == TowerElem.one()
    with pytest.raises(InvalidGeneratorError):
        TowerElem.gen(0)


@settings(max_examples=40, deadline=None)
@given(towers(), towers(), towers())
def test_tower_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


# -- seminormal coefficients ------------------------------------------------

def test_alpha_examples():
    a2 = alpha_coeff(2)
    i = GaussianRational(0, 1)
    assert a2 == TowerElem.gen(3).scale(RatFunc(LaurentPoly({0: i}), p_poly(2)))
    assert alpha_coeff(-2) == -a2
    assert alpha_coeff(1).is_zero()
    assert alpha_coeff(-1).is_zero()
    with pytest.raises(UndefinedAxialDistanceError):
        alpha_coeff(0)


@pytest.mark.parametrize("k", range(2, 9))
def test_alpha_product_identity(k):
    lhs = alpha_coeff(k) * alpha_coeff(-k)
    rhs = TowerElem.from_scalar(
        qint(1 + k) * qint(1 - k)
        / (RatFunc.q_power(2) * qint(k) * qint(-k)))
    assert lhs == rhs


# -- bar involution -----------------------------------------------------------

def test_bar_examples():
    q = TowerElem.from_scalar(RatFunc.q_power(1))
    assert bar_map(q) == TowerElem.from_scalar(RatFunc.q_power(-1))
    y2 = TowerElem.gen(2)
    assert bar_map(y2) == y2.scale(-RatFunc.q_power(-1))
    i_elem = TowerElem.from_scalar(RatFunc(GaussianRational(0, 1)))
    assert bar_map(i_elem) == i_elem


@settings(max_examples=40, deadline=None)
@given(towers(), towers())
def test_bar_is_involutive_ring_map(a, b):
    assert bar_map(bar_map(a)) == a
    assert bar_map(a * b) == bar_map(a) * bar_map(b)
    assert bar_map(a + b) == bar_map(a) + bar_map(b)


def test_bar_squares_to_radicand():
    for k in range(2, 7):
        img = bar_map(TowerElem.gen(k))
        want = TowerElem.from_scalar(
            RatFunc.from_laurent(p_poly(k)).bar())
        assert img * img == want


# -- numeric specialization ---------------------------------------------------

def test_specialize_examples():
    import math

    a = TowerElem.gen(3).scale(RatFunc.q_power(-1) * RatFunc(GaussianRational(0, 1)))
    val = specialize_numeric(a, 1)
    assert abs(val - 1j * math.sqrt(3)) < 1e-12
    b = TowerElem.from_scalar(qint(3) / qint(1))
    assert abs(specialize_numeric(b, 1) - 3.0) < 1e-12
    assert specialize_numeric(TowerElem.zero(), 1) == 0.0
    assert abs(specialize_numeric(TowerElem.gen(2), 2, {2: -1})
               + math.sqrt(5)) < 1e-12


def test_specialize_pole():
    bad = TowerElem.from_scalar(RatFunc(1) / RatFunc.from_laurent(LaurentPoly({0: -1, 2: 1})))
    with pytest.raises(PoleError):
        specialize_numeric(bad, 1)
    with pytest.raises(PoleError):
        specialize_numeric(TowerElem.one(), 0)


# -- serialization -------------------------------------------------------------

def test_add_term_keeps_no_zero_coefficient():
    acc = {}
    _add_term(acc, "x", RatFunc(0))  # a zero product is never stored
    assert acc == {}
    _add_term(acc, "x", qint(2))
    _add_term(acc, "x", qint(3))
    assert acc == {"x": qint(2) + qint(3)}
    _add_term(acc, "x", -(qint(2) + qint(3)))  # a cancelled term is dropped
    assert acc == {}


def test_tower_serialization_roundtrip():
    a = alpha_coeff(2) * alpha_coeff(4) + TowerElem.from_scalar(qint(3) / 2)
    obj = tower_to_obj(a)
    assert tower_from_obj(obj) == a
    assert canonical_json(obj) == canonical_json(tower_to_obj(a))


def test_serialization_is_canonical_for_equal_values():
    a = TowerElem.gen(3).scale(qint(2) / qint(4))
    b = TowerElem.gen(3).scale((qint(2) * qint(5)) / (qint(4) * qint(5)))
    assert a == b
    assert canonical_json(tower_to_obj(a)) == canonical_json(tower_to_obj(b))


def test_serialization_shape():
    obj = tower_to_obj(TowerElem.gen(3).scale(RatFunc(Fraction(1, 2))))
    assert obj == {"terms": [{"ys": [3], "num": [[0, 1, 2, 0, 1]], "den": [[0, 1, 1, 0, 1]]}]}


def test_pretty_tower():
    val = TowerElem.gen(3).scale(RatFunc.q_power(-1) * RatFunc(GaussianRational(0, 1)))
    assert pretty_tower(val) == "√-1·q^(-3/2)·√[3]"
    assert pretty_tower(TowerElem.zero()) == "0"


# -- the operator table of the scalar tower -----------------------------------

# a nonzero value and a zero of every operand kind, named as in the golden file
_OPERANDS = (
    ("3", 3), ("0", 0),
    ("-1/2", Fraction(-1, 2)), ("Fraction(0)", Fraction(0)),
    ("g", GaussianRational(1, 2)), ("g0", GaussianRational(0)),
    ("p", LaurentPoly({-1: 1, 2: GaussianRational(0, 1)})), ("p0", LaurentPoly.zero()),
    ("r", RatFunc(LaurentPoly({1: 1}), LaurentPoly({0: 1, 2: 1}))), ("r0", RatFunc.zero()),
    ("t", TowerElem({(): 2, (2,): RatFunc.q_power(1), (2, 3): GaussianRational(0, -1)})),
    ("t0", TowerElem.zero()),
)
_TOWER = (GaussianRational, RatFunc, TowerElem)
_BINARY = (("+", operator.add), ("-", operator.sub), ("*", operator.mul),
           ("/", operator.truediv), ("==", operator.eq), ("!=", operator.ne))


def _outcome(call, *args) -> str:
    """The type and printed value of call(*args), or the type of what it raises."""
    try:
        value = call(*args)
    except Exception as err:  # the type of the exception is the outcome
        return f"raises {type(err).__name__}"
    return f"{type(value).__name__} {value}"


def _operator_outcomes() -> list:
    """[expression, outcome] for every binary operator over every ordered pair
    of operands with a GaussianRational, RatFunc or TowerElem among them, then
    the negation of each of those."""
    out = [[f"{a} {sym} {b}", _outcome(op, x, y)]
           for a, x in _OPERANDS for sym, op in _BINARY for b, y in _OPERANDS
           if isinstance(x, _TOWER) or isinstance(y, _TOWER)]
    out += [[f"-{a}", _outcome(operator.neg, x)] for a, x in _OPERANDS if isinstance(x, _TOWER)]
    return out


def test_operator_table_of_the_scalar_tower(goldens):
    # every result, and the type of every exception, of + - * / == != between
    # the three coercing classes and int, Fraction and LaurentPoly, as recorded
    # in the golden file; among them, only a RatFunc divides a number standing
    # to its left (the tower is a ring, and a Gaussian rational takes no
    # reflected division), so 0 / g and 3 / t raise TypeError
    doc = json.loads((goldens / "scalar_operators.json").read_text(encoding="utf-8"))
    assert _operator_outcomes() == doc["outcomes"]


def test_equal_scalars_built_differently_hash_equal():
    g, r, t = (x for name, x in _OPERANDS if name in ("g", "r", "t"))
    same = [
        (g, GaussianRational(Fraction(2, 2), Fraction(4, 2))),
        (GaussianRational(0), GaussianRational(1, 2) - GaussianRational(1, 2)),
        (r, RatFunc(LaurentPoly({2: 3}), LaurentPoly({1: 3, 3: 3}))),
        (RatFunc.zero(), r - r),
        (t, (t + t) / 2),
        (TowerElem.zero(), t - t),
    ]
    for a, b in same:
        assert a == b and hash(a) == hash(b)


def test_equal_operands_of_different_layers_hash_equal():
    # Python's rule for dict and set keys: values that compare equal hash
    # equal, also across types; each value hashes as the equal value of the
    # lowest layer that holds it; the 15 equal pairs are zeros of different classes
    equal = [(a, b, x, y) for (a, x), (b, y) in combinations(_OPERANDS, 2) if x == y]
    assert len(equal) == 15
    assert [(a, b) for a, b, x, y in equal if hash(x) != hash(y)] == []
    p, r = (x for name, x in _OPERANDS if name in ("p", "r"))
    lifted = [(3, v) for v in (GaussianRational(3), RatFunc(3), TowerElem.from_scalar(3))]
    lifted += [(p, RatFunc(p)), (p, TowerElem.from_scalar(p)), (r, TowerElem.from_scalar(r))]
    assert all(a == b and hash(a) == hash(b) for a, b in lifted)


def test_equality_is_transitive_across_the_layers():
    # a constant LaurentPoly equals the number its coefficient equals, as its
    # RatFunc does, so no chain of equal operands ends at an unequal pair
    broken = [(a, b, c) for a, x in _OPERANDS for b, y in _OPERANDS for c, z in _OPERANDS
              if x == y and y == z and x != z]
    assert broken == []
    with pytest.raises(TypeError):
        LaurentPoly.one() + 3  # equality coerces, arithmetic does not


def test_tower_scale_refuses_what_is_not_a_ratfunc_scalar():
    y2 = TowerElem.gen(2)
    for c in ("x", y2):
        with pytest.raises(TypeError):
            y2.scale(c)
    assert y2.scale(0) == TowerElem.zero()
