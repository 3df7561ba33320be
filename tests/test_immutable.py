"""Every value class is immutable, and its unchecked builders (``_raw`` /
``_make``) give the same values as its public constructor."""

from fractions import Fraction

import pytest

from althecke import symgroup
from althecke.combinat import StdTableau
from althecke.hecke import HeckeElem
from althecke.scalars import R_ONE, GaussianRational, LaurentPoly, RatFunc, TowerElem
from althecke.specht import build_rep
from althecke.symgroup import Permutation

THIRD = Fraction(1, 3)

# (public constructor, unchecked builder) of one value per class
PAIRS = {
    "Permutation": (lambda: Permutation([3, 1, 2]), lambda: Permutation._raw((3, 1, 2))),
    "Permutation with length": (lambda: Permutation([3, 1, 2]),
                                lambda: Permutation._raw((3, 1, 2), 2)),
    "LaurentPoly": (lambda: LaurentPoly({-1: GaussianRational(THIRD, THIRD), 2: 2}),
                    lambda: LaurentPoly._raw({-1: (1, 1), 2: (6, 0)}, 3)),
    "RatFunc": (lambda: RatFunc(LaurentPoly({1: 2}), LaurentPoly({0: 2, 2: 2})),
                lambda: RatFunc._make(LaurentPoly._raw({1: (1, 0)}),
                                      LaurentPoly._raw({0: (1, 0), 2: (1, 0)}))),
    "TowerElem": (lambda: TowerElem({frozenset({2, 3}): 1}),
                  lambda: TowerElem._raw({frozenset({2, 3}): R_ONE})),
    "HeckeElem": (lambda: HeckeElem(3, {Permutation([2, 1, 3]): 1}),
                  lambda: HeckeElem._raw(3, {Permutation._raw((2, 1, 3), 1): R_ONE})),
    "StdTableau": (lambda: StdTableau([[1, 3], [2]]), lambda: StdTableau._raw(((1, 3), (2,)))),
}

VALUES = [GaussianRational(1, 2), build_rep((2, 1))] + [make() for make, _ in PAIRS.values()]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_no_slot_can_be_assigned(value):
    for name in type(value).__slots__ + ("unknown",):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        assert getattr(value, name, None) is before


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_no_slot_can_be_deleted(value):
    message = f"^{type(value).__name__} is immutable$"
    for name in type(value).__slots__ + ("unknown",):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
        assert getattr(value, name, None) is before


@pytest.mark.parametrize("public, raw", PAIRS.values(), ids=PAIRS.keys())
def test_unchecked_builders_give_the_public_value(public, raw):
    a, b = public(), raw()
    assert type(a) is type(b)
    assert a == b and b == a
    assert hash(a) == hash(b)


def test_length_fills_its_cache_on_the_first_call_only(monkeypatch):
    filled = []
    set_len = symgroup._set_len
    monkeypatch.setattr(symgroup, "_set_len", lambda p, v: (filled.append(v), set_len(p, v)))
    w = Permutation([3, 1, 4, 2])
    assert filled == [None]
    assert w.length() == 3 and filled == [None, 3]
    assert w.length() == 3 and filled == [None, 3]
