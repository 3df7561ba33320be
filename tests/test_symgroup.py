import json

import pytest
from hypothesis import given, settings, strategies as st

from althecke.symgroup import (
    ConjClass,
    Drop2Step,
    FlatStep,
    MalformedCompositionError,
    MalformedWordError,
    OddPermutationClassError,
    Permutation,
    all_permutations,
    alt_classes,
    an_class_of,
    bruhat_leq,
    column_plan,
    composition_of,
    from_word,
    identity,
    increasing_word,
    is_min_length,
    is_split_type,
    reduce_to_composition,
    split_class_reps,
    w_of_composition,
)
from althecke.combinat import partitions_of

from conftest import compositions_of


def test_from_word_examples():
    assert from_word([1, 2], 3).one_line == (2, 3, 1)
    assert Permutation([2, 1, 4, 3]).length() == 2
    assert Permutation([2, 3, 1, 4]).cycle_type() == (3, 1)
    with pytest.raises(MalformedWordError):
        from_word([3], 3)


@st.composite
def permutations_st(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    word = draw(st.lists(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=10))
    return from_word([i for i in word if i < n], n)


@settings(max_examples=80, deadline=None)
@given(permutations_st())
def test_reduced_word_roundtrip(w):
    word = w.reduced_word()
    assert from_word(word, w.n) == w
    assert len(word) == w.length()


@settings(max_examples=50, deadline=None)
@given(permutations_st(), permutations_st())
def test_multiplication_and_inverse(u, v):
    if u.n != v.n:
        return
    prod = u * v
    for i in range(1, u.n + 1):
        assert prod(i) == u(v(i))
    assert (u * u.inverse()).is_identity()
    assert u.inverse().length() == u.length()


def test_w_of_composition_examples():
    assert w_of_composition((2, 2)).one_line == (2, 1, 4, 3)
    assert w_of_composition((1, 3)).one_line == (1, 3, 4, 2)
    assert w_of_composition((1, 1, 1, 1)).is_identity()
    with pytest.raises(MalformedCompositionError):
        w_of_composition((2, 0, 1))


def test_w_of_composition_is_increasing_word_product():
    for n in range(1, 8):
        for kappa in compositions_of(n):
            w = w_of_composition(kappa)
            assert w == from_word(increasing_word(kappa), n)
            assert w.length() == n - len(kappa)
            assert is_min_length(w)
            assert composition_of(w) == kappa


def test_is_min_length():
    assert not is_min_length(from_word([1, 2, 1], 3))
    assert is_min_length(identity(4))


def test_split_class_reps_examples():
    wp, wm = split_class_reps((3,))
    assert wp.reduced_word() == (1, 2)
    assert wm == from_word([2, 1], 3)
    assert wm == wp.conj_s(1)

    wp, wm = split_class_reps((2, 2))
    assert wm is None

    wp, wm = split_class_reps((5, 3, 1))
    assert wm == wp.conj_s(1)
    assert wm.length() == wp.length()
    assert wm.cycle_type() == wp.cycle_type()

    with pytest.raises(OddPermutationClassError):
        split_class_reps((2, 1))


def test_alt_classes_small():
    got3 = [(cc.cycle_type, cc.alt_sign) for cc, _ in alt_classes(3)]
    assert got3 == [((1, 1, 1), "whole"), ((3,), "plus"), ((3,), "minus")]
    got4 = [(cc.cycle_type, cc.alt_sign) for cc, _ in alt_classes(4)]
    assert got4 == [((1, 1, 1, 1), "whole"), ((2, 2), "whole"),
                    ((3, 1), "plus"), ((3, 1), "minus")]
    got5 = [(cc.cycle_type, cc.alt_sign) for cc, _ in alt_classes(5)]
    assert got5 == [((1, 1, 1, 1, 1), "whole"), ((2, 2, 1), "whole"),
                    ((3, 1, 1), "whole"), ((5,), "plus"), ((5,), "minus")]


def test_alt_classes_counts():
    # number of even-class entries equals the alternating class count
    import math

    for n in (2, 3, 4, 5, 6):
        entries = alt_classes(n)
        # every representative is even and of minimal length
        for cc, rep in entries:
            assert rep.is_even()
            assert is_min_length(rep)
            assert rep.cycle_type() == cc.cycle_type
        # degenerate guard
        assert len({(cc.cycle_type, cc.alt_sign) for cc, _ in entries}) == len(entries)


def test_conj_class_invariant():
    with pytest.raises(ValueError):
        ConjClass((2, 2), "plus")


def test_an_class_of_representatives():
    for n in (3, 4, 5, 6):
        for cc, rep in alt_classes(n):
            assert an_class_of(rep) == cc


def test_split_classes_not_alternating_conjugate():
    # exhaustively for n <= 6: no even conjugator links w+ and w-
    for kappa, n in (((3,), 3), ((3, 1), 4), ((5,), 5), ((5, 1), 6)):
        wp, wm = split_class_reps(kappa)
        assert wp.length() == wm.length()
        assert wp.cycle_type() == wm.cycle_type()
        for g in all_permutations(n):
            if g.is_even():
                assert g * wp * g.inverse() != wm
        assert an_class_of(wp).alt_sign == "plus"
        assert an_class_of(wm).alt_sign == "minus"


def test_is_split_type():
    assert is_split_type((5, 3, 1))
    assert not is_split_type((3, 3, 1))
    assert not is_split_type((4, 2))
    assert not is_split_type((1,))


def _replay(w, path):
    cur = w
    for step in path:
        assert step.source == cur
        assert step.target == cur.conj_s(step.s)
        if isinstance(step, FlatStep):
            assert step.target.length() == cur.length()
            assert step.witness.length() == cur.length() - 1
            expect = cur.left_mult_s(step.s) if step.side == "sw" else cur.right_mult_s(step.s)
            assert step.witness == expect
        else:
            assert step.target.length() == cur.length() - 2
        cur = step.target
    return cur


def test_reduce_to_composition_examples():
    w = from_word([1, 2, 1], 3)
    sigma, path = reduce_to_composition(w)
    assert sorted(sigma, reverse=True) == [2, 1]
    assert len([s for s in path if isinstance(s, Drop2Step)]) == 1
    assert _replay(w, path) == w_of_composition(sigma)

    w = w_of_composition((3, 1))
    sigma, path = reduce_to_composition(w)
    assert sigma == (3, 1) and path == []

    w = from_word([2, 1], 3)
    sigma, path = reduce_to_composition(w)
    assert sigma == (3,)
    assert all(isinstance(s, FlatStep) for s in path)


def test_reduce_to_composition_replay_exhaustive():
    for n in (3, 4, 5):
        for w in all_permutations(n):
            sigma, path = reduce_to_composition(w)
            assert w_of_composition(sigma).cycle_type() == w.cycle_type()
            assert _replay(w, path) == w_of_composition(sigma)


def test_bruhat_order():
    e = identity(3)
    s1 = from_word([1], 3)
    w0 = from_word([1, 2, 1], 3)
    assert bruhat_leq(e, s1) and bruhat_leq(s1, w0)
    assert not bruhat_leq(w0, s1)
    assert bruhat_leq(from_word([2, 1], 3), w0)
    # reflexive and antisymmetric on S_4
    for u in all_permutations(4):
        assert bruhat_leq(u, u)


def test_reduce_to_composition_paths_pinned(goldens):
    # the steps every recursion and `tau-char` walk, recorded for a seeded
    # sample of S_7 spanning all lengths
    doc = json.loads((goldens / "paths_n7.json").read_text())
    assert len(doc["cases"]) >= 60
    for case in doc["cases"]:
        w = Permutation(case["w"])
        sigma, path = reduce_to_composition(w)
        assert list(sigma) == case["kappa"]
        steps = [["DROP2" if isinstance(st, Drop2Step) else "FLAT", st.s,
                  list(st.source.one_line), list(st.target.one_line),
                  None if isinstance(st, Drop2Step) else list(st.witness.one_line)]
                 for st in path]
        assert steps == case["steps"], case["w"]


def test_generator_actions_carry_length():
    # every generator action on S_n, n <= 6, from a source whose length is
    # cached (sorting all_permutations counts it) and from a fresh one; the
    # canonical class representatives are built with their length
    for n in range(2, 7):
        for kappa in compositions_of(n):
            w = w_of_composition(kappa)
            assert w.length() == Permutation(w.one_line).length()
        for w in all_permutations(n):
            fresh = Permutation(w.one_line)
            for src in (fresh, w):
                for i in range(1, n):
                    for v in (src.conj_s(i), src.left_mult_s(i), src.right_mult_s(i)):
                        assert v.length() == Permutation(v.one_line).length()
                    assert src.conj_s(i) == src.left_mult_s(i).right_mult_s(i)
                assert src.inverse().length() == w.length()
            assert from_word(w.reduced_word(), n).length() == w.length()


def test_column_plan_lists_the_even_types_with_their_representatives():
    # the cycle types with n - len(kappa) even, increasing; a split type gives
    # its plus and then its minus class; the one-line tuples are those of
    # split_class_reps and of alt_classes
    for n in range(13):
        plan = column_plan(n)
        types = [kappa for kappa, sign, _ in plan if sign != "minus"]
        assert types == sorted(k for k in partitions_of(n) if (n - len(k)) % 2 == 0), n
        want = []
        for kappa in types:
            plus, minus = split_class_reps(kappa)
            if is_split_type(kappa):
                want += [(kappa, "plus", plus.one_line), (kappa, "minus", minus.one_line)]
            else:
                want.append((kappa, "whole", plus.one_line))
        assert plan == want, n
        assert [ol for _, _, ol in plan] == [rep.one_line for _, rep in alt_classes(n)], n
