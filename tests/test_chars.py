import cmath
import gc
import json
import math
import random
from fractions import Fraction
from functools import lru_cache, reduce

import pytest

from althecke import chars
from althecke.chars import (
    DIAG,
    NEXT_OPP,
    PREV_OPP,
    alt_class_polys,
    char_table,
    char_via_class_polys,
    class_polys,
    cute_identity,
    delta_coefficients,
    equiv_class_check,
    gamma_of_tableau,
    greene_identity,
    plain_char,
    resolve_sigma,
    split_char_values,
    table_json,
    table_rows,
    technical_partner,
    twisted_char,
    twisted_char_by_tableaux,
    twisted_char_closed,
)
from althecke.combinat import (
    NotSymmetricError,
    StdTableau,
    added_strips,
    conjugate,
    diagonal_hooks,
    eps_kappa,
    partitions_of,
    self_conjugate_partitions,
    std_tableaux,
    transposable_tableaux,
)
from althecke.hecke import HeckeElem, a_elem, b_elem, b_in_a, expand_in_a, t_in_b
from althecke.scalars import (
    GaussianRational,
    LaurentPoly,
    RatFunc,
    TowerElem,
    _add_term,
    alpha_coeff,
    q_minus_qinv,
    qint,
    specialize_numeric,
    tower_from_obj,
)
from althecke.specht import char_alt, char_T, twisted_trace
from althecke.symgroup import (
    Drop2Step,
    FlatStep,
    MalformedCompositionError,
    Permutation,
    all_permutations,
    alt_classes,
    from_word,
    identity,
    reduce_to_composition,
    split_class_reps,
    w_of_composition,
)

from conftest import compositions_of, compositions_with_length


def test_gamma_factors_hand_example():
    t = StdTableau([[1, 2], [3]])
    rpt = gamma_of_tableau(t, (3,))
    assert [(i, tag) for i, tag, _ in rpt.factors] == [(1, DIAG), (2, NEXT_OPP)]
    q = TowerElem.from_scalar(RatFunc.q_power(1))
    assert rpt.factors[0][2] == q
    assert rpt.factors[1][2] == alpha_coeff(2)
    assert rpt.product == alpha_coeff(2).scale(RatFunc.q_power(1))

    t2 = StdTableau([[1, 3], [2]])
    rpt2 = gamma_of_tableau(t2, (3,))
    assert rpt2.product == alpha_coeff(2).scale(RatFunc.q_power(-1))

    assert gamma_of_tableau(t, (1, 1, 1)) is None


def test_gamma_prev_opp_case_appears():
    seen = set()
    for lam in self_conjugate_partitions(6):
        for kappa in compositions_of(6):
            for t in std_tableaux(lam):
                rpt = gamma_of_tableau(t, kappa)
                if rpt is not None:
                    seen.update(tag for _, tag, _ in rpt.factors)
    assert seen == {DIAG, PREV_OPP, NEXT_OPP}


def test_twisted_sum_examples():
    i = GaussianRational(0, 1)
    expect = TowerElem.gen(3).scale(RatFunc.q_power(-1) * RatFunc(i))
    assert twisted_char_by_tableaux((2, 1), (3,)) == expect
    assert twisted_char_by_tableaux((2, 1), (1, 1, 1)).is_zero()
    assert twisted_char_by_tableaux((3, 3, 3), (9,)).is_zero()


def test_sigma_is_plus_one():
    assert resolve_sigma() == 1


def test_oracle_cases_catch_a_flipped_sigma(monkeypatch):
    # resolve_sigma is a constant; the oracle comparison is what pins it
    from althecke.verify import oracle_cases

    monkeypatch.setattr(chars, "resolve_sigma", lambda: -1)
    failed = [case for case, ok in oracle_cases(3) if not ok]
    assert failed == [((2, 1), (3,))]


def test_closed_examples():
    i = GaussianRational(0, 1)
    expect = TowerElem.gen(3).scale(RatFunc.q_power(-1) * RatFunc(i))
    assert twisted_char_closed((2, 1), (3,)) == expect
    # the literal published constant flips by (-1)^((n-d)/2)
    assert twisted_char_closed((2, 1), (3,), "paper") == -expect
    assert twisted_char_closed((3, 3, 3), (7, 2)).is_zero()
    val = twisted_char_closed((4, 3, 3, 1), (3, 1, 7))
    coeff = RatFunc.q_power(-4) * RatFunc(eps_kappa((3, 1, 7)))
    assert val == TowerElem.monomial([7, 3], coeff)
    assert eps_kappa((3, 1, 7)) == 1


@pytest.mark.parametrize("call", [
    lambda c: twisted_char_closed((2, 1), (3,), convention=c),
    lambda c: twisted_char_closed((2, 1), (2, 1), convention=c),  # zero under either sign
    lambda c: twisted_char((2, 1), from_word([1, 2], 3), convention=c),
    lambda c: twisted_char((2, 1), from_word([1], 3), convention=c),  # zero under either sign
    lambda c: split_char_values((2, 1), from_word([1, 2], 3), convention=c),
    lambda c: split_char_values((2, 1), from_word([1, 2], 3), "B", convention=c),
], ids=["closed", "closed-zero", "twisted", "twisted-zero", "split-A", "split-B"])
def test_an_unknown_convention_is_refused(call):
    call("oracle")
    call("paper")
    with pytest.raises(ValueError, match="'orcale'"):
        call("orcale")


@pytest.mark.parametrize("call, error", [
    (lambda: char_via_class_polys((2, 1), from_word([1], 4)), ValueError),
    (lambda: char_via_class_polys((1, 2), from_word([1], 3)), ValueError),
    (lambda: twisted_char((2, 1), from_word([1, 2], 4)), ValueError),
    (lambda: twisted_char((2, 2), from_word([1, 2], 3)), ValueError),
    (lambda: twisted_char((3, 1), from_word([1, 2], 4)), NotSymmetricError),
    (lambda: split_char_values((2, 1), from_word([1, 2], 4)), ValueError),
    (lambda: split_char_values((2, 1), from_word([1, 2], 4), "B"), ValueError),
    (lambda: plain_char((2, 1), (0, 3)), MalformedCompositionError),
    (lambda: plain_char((2, 1), (4, -1)), MalformedCompositionError),
    (lambda: plain_char((1, 2), (3,)), ValueError),
    (lambda: plain_char((2, 1), (2, 2)), ValueError),
], ids=["via-degree", "via-not-a-partition", "twisted-degree-low", "twisted-degree-high",
        "twisted-not-self-conjugate", "split-A-degree", "split-B-degree", "plain-part-zero",
        "plain-part-negative", "plain-not-a-partition", "plain-size"])
def test_value_functions_refuse_bad_input_before_any_search(call, error):
    searches = (chars._f_vector, chars._twisted_value, b_elem, added_strips)
    before = [f.cache_info() for f in searches]
    with pytest.raises(error):
        call()
    assert [f.cache_info() for f in searches] == before


def test_technical_partner_pairing():
    # wherever two diagonal entries share a cycle block, the partner
    # cancels the whole factor product
    checked = 0
    for lam in self_conjugate_partitions(6):
        for kappa in compositions_of(6):
            for t in transposable_tableaux(lam, kappa):
                hit = technical_partner(t, kappa)
                if hit is None:
                    continue
                a, b, partner = hit
                checked += 1
                assert partner != t
                back = technical_partner(partner, kappa)
                assert back is not None and back[2] == t
                gt = gamma_of_tableau(t, kappa)
                gs = gamma_of_tableau(partner, kappa)
                assert gs is not None
                assert (gt.product + gs.product).is_zero()
    assert checked > 0


def test_greene_examples():
    one_chain = greene_identity((1,), (0, 1))
    assert one_chain[0] == one_chain[1]
    assert one_chain[1] == RatFunc.q_power(2) / qint(1)

    anti = greene_identity((0,), (2, 5))
    assert anti[0] == anti[1]
    assert anti[1].is_zero()

    vee = greene_identity((-1, 1), (3, -1, 4))
    assert vee[0] == vee[1]


@pytest.mark.parametrize("m", range(6))
def test_cute_identity(m):
    lhs, rhs = cute_identity(m)
    assert lhs == rhs
    if m == 0:
        assert lhs == RatFunc(1)
    if m == 1:
        assert lhs == RatFunc.q_power(-1) * qint(2) / qint(1)


def test_class_polys_examples():
    w = w_of_composition((2, 1))
    assert class_polys(w).as_dict() == {(2, 1): RatFunc(1)}
    assert class_polys(identity(4)).as_dict() == {(1, 1, 1, 1): RatFunc(1)}
    f = class_polys(from_word([1, 2, 1], 3)).as_dict()
    assert f == {(2, 1): RatFunc(1), (3,): q_minus_qinv()}


def _assert_class_polys_symmetric(n, perms=None):
    """f_(w^-1) = f_w (a character takes one value at T_w and T_(w^-1)) and
    f_(w0 w w0) = f_w (T_(w0) T_i T_(w0)^-1 = T_(n-i)) over ``perms``, all of
    S_n by default; the searches from the three permutations take different
    paths."""
    w0 = Permutation(range(n, 0, -1))
    for w in all_permutations(n) if perms is None else perms:
        f = chars._f_vector(w)
        assert chars._f_vector(w.inverse()) == f, w
        assert chars._f_vector(w0 * w * w0) == f, w


def test_class_polys_are_symmetric_up_to_degree_7():
    # the plain class polynomials only: split classes swap under inversion,
    # so the twisted and alternating ones move
    for n in range(1, 8):
        _assert_class_polys_symmetric(n)


def test_alt_class_polys_examples():
    for cc, rep in alt_classes(4):
        g = alt_class_polys(rep).as_dict()
        assert g == {(cc.cycle_type, cc.alt_sign): RatFunc(1)}
    g = alt_class_polys(identity(4)).as_dict()
    assert g == {((1, 1, 1, 1), "whole"): RatFunc(1)}


def test_alt_class_polys_reconstruction():
    for n in (3, 4):
        for w in all_permutations(n):
            if not w.is_even():
                continue
            g = alt_class_polys(w).as_dict()
            for lam in partitions_of(n):
                lhs = char_alt(lam, a_elem(w))
                rhs = TowerElem.zero()
                for (ctype, sign), c in g.items():
                    wp, wm = split_class_reps(ctype)
                    rep = wm if sign == "minus" else wp
                    rhs = rhs + char_alt(lam, a_elem(rep)).scale(c)
                assert lhs == rhs


def test_min_rep_vector_once_per_odd_cycle_type():
    chars._g_vector.cache_clear()
    chars._min_rep_vector.cache_clear()
    evens = [w for w in all_permutations(6) if w.is_even()]
    for w in evens:
        alt_class_polys(w)
    odd_types = {ctype for w in evens for ctype, _ in chars._f_vector(w)
                 if not w_of_composition(ctype).is_even()}
    info = chars._min_rep_vector.cache_info()
    assert odd_types and info.misses == len(odd_types)
    assert info.hits > 0


def test_min_rep_vector_matches_the_parity_triangular_route():
    # the even part of T_w through the B basis, each even B_y back in the
    # averaged basis: the route the averaged expansion alone replaced
    for n in range(2, 9):
        for ctype in partitions_of(n):
            w = w_of_composition(ctype)
            if w.is_even():
                continue
            acc = {}
            for y, s in t_in_b(w):
                if y.is_even():
                    for x, r in b_in_a(y):
                        for key, g in chars._g_vector(x):
                            _add_term(acc, key, s * r * g)
            assert chars._min_rep_vector(ctype) == tuple(sorted(acc.items()))


def test_drop_coeff_is_the_identity_coefficient_of_the_averaged_expansion():
    # T at s_1...s_k: the empty subword drops all k letters
    for k in range(1, 8):
        n = k + 1
        expansion = expand_in_a(HeckeElem.t_word(range(1, n), n))
        assert expansion.get(identity(n), RatFunc(0)) == chars._drop_coeff(k)


def test_drop_coeff_by_the_tangent_numbers():
    # c_k = (-1)^((k-1)/2) T_k (delta/2)^k for odd k, zero for even k > 0
    tangent = {1: 1, 3: 2, 5: 16, 7: 272, 9: 7936, 11: 353792}
    half_delta = q_minus_qinv() * Fraction(1, 2)
    assert chars._drop_coeff(0) == RatFunc(1)
    for k in range(1, 12):
        expect = RatFunc(0)
        if k % 2:
            expect = RatFunc((-1) ** (k // 2) * tangent[k])
            for _ in range(k):
                expect = expect * half_delta
        assert chars._drop_coeff(k) == expect


def test_twisted_char_examples():
    lam = (2, 1)
    wp, wm = split_class_reps((3,))
    vp, _ = twisted_char(lam, wp)
    vm, _ = twisted_char(lam, wm)
    assert vm == -vp
    # even part in the cycle type forces zero
    v, a = twisted_char((2, 2), from_word([1], 4).conj_s(2))
    assert v.is_zero() and a.is_zero()


def test_twisted_char_matches_oracle_small():
    # odd permutations included: they appear as recursion intermediates
    for n in (3, 4):
        for lam in self_conjugate_partitions(n):
            for w in all_permutations(n):
                value, a_poly = twisted_char(lam, w)
                assert value == twisted_trace(lam, w)
                coeffs = delta_coefficients(a_poly)
                assert coeffs is not None
                if coeffs:
                    h, d = diagonal_hooks(lam)
                    assert max(coeffs) <= w.length() - w_of_composition(h).length()


def _folded(ws):
    """Every permutation a fold of ws visits: ws and, recursively, the
    witnesses of their FLAT steps."""
    seen, stack = set(), list(ws)
    while stack:
        w = stack.pop()
        if w not in seen:
            seen.add(w)
            stack += [st.witness for st in reduce_to_composition(w)[1]
                      if isinstance(st, FlatStep)]
    return seen


@pytest.mark.parametrize("n, sample", [(6, None), (8, 150)])
def test_twisted_value_folds_once_per_permutation(n, sample):
    # one fold serves every self-conjugate shape of the degree: one at
    # degree 6, (4,2,1,1) and (3,3,2) at degree 8
    evens = [w for w in all_permutations(n) if w.is_even()]
    if sample:
        evens = random.Random(n).sample(evens, sample)
    shapes = self_conjugate_partitions(n)
    chars._twisted_value.cache_clear()
    for lam in shapes:
        for w in evens:
            twisted_char(lam, w)
    assert chars._twisted_value.cache_info().misses == len(_folded(evens))


def test_twisted_class_polys_keys_and_degrees():
    # the degree bound is the one a skip of short FLAT witnesses relies on
    for n in (6, 7):
        for w in all_permutations(n):
            for h, a in chars._twisted_value(w):
                assert sum(h) == n and list(h) == sorted(set(h), reverse=True)
                assert all(k % 2 for k in h)
                coeffs = delta_coefficients(a)
                assert coeffs, (w, h)
                assert max(coeffs) <= w.length() - (n - len(h)), (w, h)


def test_equiv_class_example_two_singletons():
    rpt = equiv_class_check((2, 1), (3,), 1)
    assert rpt.passed and rpt.applicable
    assert rpt.class_count == 2
    assert rpt.class_sizes == (1, 1)


def test_equiv_class_not_applicable():
    rpt = equiv_class_check((2, 2), (4,), 1)
    assert not rpt.applicable
    assert rpt.passed


def test_equiv_class_disconnected_blocks_vanish():
    rpt = equiv_class_check((3, 2, 1), (3, 3), 2)
    assert rpt.applicable and rpt.passed
    assert 0 in rpt.eps_x_values


def test_equiv_class_product_sign_matches_inversions():
    # on hook-sorted compositions the poset signs multiply to the
    # inversion-count sign of the composition
    for n in range(3, 8):
        for lam in self_conjugate_partitions(n):
            h, d = diagonal_hooks(lam)
            for kappa in compositions_with_length(n, d):
                if tuple(sorted(kappa, reverse=True)) != h:
                    continue
                total = 1
                for z in range(1, d + 1):
                    rpt = equiv_class_check(lam, kappa, z)
                    assert rpt.applicable and rpt.passed
                    eps_set = set(rpt.eps_x_values)
                    assert len(eps_set) == 1
                    total *= eps_set.pop()
                assert total == eps_kappa(kappa)


def test_table_rows_plan():
    assert table_rows(4) == [("pair", (4,)), ("pair", (3, 1)),
                             ("plus", (2, 2)), ("minus", (2, 2))]


def test_char_table_small():
    t2 = char_table(2)
    assert len(t2.rows) == 1 and len(t2.columns) == 1
    assert t2.rows[0].cells[0] == TowerElem.one()

    t3 = char_table(3)
    assert len(t3.rows) == 3 and len(t3.columns) == 3
    assert [cc.label() for cc, _ in t3.columns] == ["(1,1,1)", "(3)+", "(3)-"]

    t4 = char_table(4)
    assert [row.label() for row in t4.rows] == ["[4]", "[3,1]", "[2,2]+", "[2,2]-"]
    assert len(t4.columns) == 4


def test_char_table_cells_match_trace_definitions():
    from althecke.specht import char_split

    t4 = char_table(4)
    for row in t4.rows:
        for (cc, rep), cell in zip(t4.columns, row.cells):
            aw = a_elem(rep)
            if row.kind == "pair":
                assert cell == char_alt(row.shape, aw)
            else:
                assert cell == char_split(row.shape, 1 if row.kind == "plus" else -1, aw)


def test_char_table_json_deterministic():
    a = char_table(3).to_json()
    b = char_table(3).to_json()
    assert a == b and '"sigma":1' in a


def test_char_table_guard():
    # the n <= 12 resource guard is the command line's (test_resource_guard)
    with pytest.raises(ValueError):
        char_table(1)


def test_plain_char_matches_matrix_oracle():
    # partitions up to degree 7; compositions too where they are cheap, since
    # plain_char sorts them before Ram's rule sees them
    for n in range(1, 8):
        kappas = compositions_of(n) if n <= 5 else partitions_of(n)
        for lam in partitions_of(n):
            for kappa in kappas:
                assert plain_char(lam, kappa) == char_T(lam, w_of_composition(kappa)), \
                    (lam, kappa)


# Ram's rule top-down, removing one broken border strip per part from the
# shape: an independent reference for the forward pass of chars._ram_columns


@lru_cache(maxsize=None)
def _broken_strips(lam: tuple, r: int) -> tuple:
    """Every (nu, rows, links) with lam/nu a broken border strip of size r.

    A skew shape lam/nu has no 2x2 block iff nu_i >= lam_(i+1) - 1 in every
    row.  ``rows`` counts its non-empty rows and ``links`` the adjacent rows
    that share a column (nu_i < lam_(i+1)), so it has rows - links
    edge-connected components.
    """
    below = lam[1:] + (0,)
    room = [0] * (len(lam) + 1)  # the most cells rows i, i+1, ... can give up
    for i in range(len(lam) - 1, -1, -1):
        room[i] = room[i + 1] + lam[i] - max(below[i] - 1, 0)
    out = []

    def walk(i, prev, left, nu, rows, links):
        if i == len(lam):
            out.append((tuple(p for p in nu if p), rows, links))
            return
        for v in range(min(lam[i], prev), max(below[i] - 1, 0) - 1, -1):
            cut = lam[i] - v
            if cut > left:
                break
            if left - cut <= room[i + 1]:
                walk(i + 1, v, left - cut, nu + (v,), rows + (cut > 0),
                     links + (v < below[i]))

    if r <= room[0]:
        walk(0, lam[0], r, (), 0, 0)
    return tuple(out)


@lru_cache(maxsize=None)
def _ram_by_removal(lam: tuple, kappa: tuple) -> tuple:
    """The value of shape lam at w_kappa as ((exp, int), ...) in q.

    Removing a broken border strip of size r = kappa[-1] with cc components
    and height ht = rows - cc weighs (-1)^ht Q^(r-cc-ht) (Q-1)^(cc-1) for
    T'_i = q T_i and Q = q^2; the factor q^-(r-1) converts to T_i.
    """
    if not kappa:
        return ((0, 1),)
    r = kappa[-1]
    acc = {}
    for nu, rows, links in _broken_strips(lam, r):
        cc = rows - links
        shift = 2 * (r - rows) - (r - 1)
        sign = -1 if links % 2 else 1
        rest = _ram_by_removal(nu, kappa[:-1])
        for j in range(cc):  # expand (Q - 1)^(cc - 1)
            c = sign * math.comb(cc - 1, j) * (-1 if (cc - 1 - j) % 2 else 1)
            for e, v in rest:
                key = shift + 2 * j + e
                acc[key] = acc.get(key, 0) + c * v
    return tuple(sorted((e, v) for e, v in acc.items() if v))


def test_strips_are_the_broken_border_strips_by_their_cells():
    # chars._strips against every shape lam over nu with r more cells, read
    # off the cells of lam/nu: no 2x2 block; rows counts the non-empty rows,
    # links the adjacent row pairs with a common column; the weight is
    # (-1)^links base^(r - rows) (base - 1)^(rows - links - 1)
    for m in range(10):
        for nu in partitions_of(m):
            for r in range(1, 11 - m):
                for base in (3, 1 << 20):
                    want = set()
                    for lam in partitions_of(m + r):
                        if len(lam) < len(nu) or any(a < b for a, b in zip(lam, nu)):
                            continue
                        inner = nu + (0,) * (len(lam) - len(nu))
                        cells = {(i, c) for i, p in enumerate(lam) for c in range(inner[i], p)}
                        if any({(i, c + 1), (i + 1, c), (i + 1, c + 1)} <= cells
                               for i, c in cells):
                            continue
                        rows = len({i for i, _ in cells})
                        links = len({i for i, c in cells if (i + 1, c) in cells})
                        weight = base ** (r - rows) * (base - 1) ** (rows - links - 1)
                        want.add((lam, -weight if links % 2 else weight))
                    got = chars._strips(nu, r, base)
                    assert len(got) == len(set(got)) and set(got) == want, (nu, r)


def test_added_strips_match_the_removal_walk():
    # two independent enumerations: every shape nu grown by added_strips, read
    # backwards as the nu below each lam with their (rows, links), against
    # _broken_strips removing the strips from lam; sizes 1, 2 and >= 3 take
    # three different routes through added_strips
    below = {}
    for m in range(10):
        for nu in partitions_of(m):
            for r in range(1, 11 - m):
                listed = added_strips(nu, r)
                assert len({lam for lam, _, _ in listed}) == len(listed), (nu, r)
                for lam, rows, links in listed:
                    below.setdefault((lam, r), set()).add((nu, rows, links))
    checked = 0
    for n in range(1, 11):
        for lam in partitions_of(n):
            for r in range(1, 11):
                want = _broken_strips(lam, r)
                assert len(set(want)) == len(want)
                assert below.pop((lam, r), set()) == set(want), (lam, r)
                checked += len(want)
    assert not below and checked > 1000


def test_a_warm_strip_cache_gives_cold_bytes():
    # the degrees of one process share the strip shapes of added_strips and
    # nothing else: a table read after other degrees, in a seeded order, must
    # equal the same degree read from an empty cache
    degrees = list(range(2, 15))
    random.Random(2501).shuffle(degrees)
    added_strips.cache_clear()
    warm = {n: "".join(table_json(n)) for n in degrees}
    for n in degrees:
        added_strips.cache_clear()
        assert "".join(table_json(n)) == warm[n], n


def test_a_bounded_pass_keeps_its_filtered_strips_to_itself():
    # plain_char grows only the shapes inside lam; its filtered lists must not
    # reach the shared cache, where an unbounded pass of the same degree would
    # miss shapes, nor may an unbounded pass change a bounded value
    for n in range(1, 8):
        shapes = partitions_of(n)
        for kappa in shapes:
            added_strips.cache_clear()
            (_, full, _, _), = chars._ram_packed([kappa])
            for lam in shapes:
                added_strips.cache_clear()
                cold = plain_char(lam, kappa)
                assert plain_char(lam, kappa) == cold, (lam, kappa)  # before an unbounded pass
                (_, values, _, _), = chars._ram_packed([kappa])
                assert values == full, (lam, kappa)
                assert plain_char(lam, kappa) == cold, (lam, kappa)  # after it


def test_ram_forward_matches_the_removal_walk():
    # every shape at every cycle type up to degree 10, the odd ones too (char
    # reaches them through the class polynomials); plain_char grows only the
    # shapes inside lam and must agree with the unbounded column
    for n in range(11):
        shapes = partitions_of(n)
        for kappa, value in chars._ram_columns(shapes):
            for lam in shapes:
                want = LaurentPoly(dict(_ram_by_removal(lam, kappa)))
                assert value(1, lam) == TowerElem.from_scalar(RatFunc.from_laurent(want)), \
                    (lam, kappa)
                assert plain_char(lam, kappa) == value(1, lam), (lam, kappa)


def test_char_table_keeps_no_per_cell_state():
    caches = [f for f in vars(chars).values()
              if hasattr(f, "cache_info") and f.__module__ == chars.__name__]
    assert caches
    before = [f.cache_info().currsize for f in caches]
    char_table(12)
    assert [f.cache_info().currsize for f in caches] == before


def _oracle_table(n):
    """Rows (kind, shape, cells) of the table taken from the matrix traces."""
    half = RatFunc(1) / 2
    rows = []
    for kind, lam in table_rows(n):
        cells = []
        for _, rep in alt_classes(n):
            plain = char_T(lam, rep)
            if kind == "pair":
                cells.append((plain + char_T(conjugate(lam), rep)).scale(half))
            else:
                tw = twisted_trace(lam, rep)
                cells.append((plain + tw if kind == "plus" else plain - tw).scale(half))
        rows.append((kind, lam, tuple(cells)))
    return rows


def test_char_table_matches_oracle_table():
    for n in range(2, 8):
        table = char_table(n)
        assert [(row.kind, row.shape, row.cells) for row in table.rows] == _oracle_table(n)


def test_char_table_split_rows_match_split_char_values():
    # the recursion route is the reference where the matrix oracle stops
    for n in range(2, 12):
        table = char_table(n)
        rows = iter(row for row in table.rows if row.kind != "pair")
        for plus, minus in zip(rows, rows):
            assert plus.kind == "plus" and minus.kind == "minus" and plus.shape == minus.shape
            for (cc, rep), p_cell, m_cell in zip(table.columns, plus.cells, minus.cells):
                assert (p_cell, m_cell) == split_char_values(plus.shape, rep), (n, plus.shape, cc)


def test_char_table_reads_only_ram_and_the_closed_form(monkeypatch):
    expected = char_table(9).to_json()

    def forbidden(*args, **kwargs):
        raise AssertionError("char_table left Ram's rule and the closed form")

    for name in ("split_char_values", "char_via_class_polys", "twisted_char",
                 "_f_vector", "reduce_to_composition"):
        monkeypatch.setattr(chars, name, forbidden)
    assert char_table(9).to_json() == expected


def test_char_table_radicals_come_only_from_the_hook_columns():
    # pair cells lie in Q(sqrt(-1))(q); a split row of hook type h adds the
    # one monomial prod y_k (k in h, k >= 2), and only at the two classes of
    # cycle type h (ROADMAP item 4, check 1, the radical part)
    for n in range(2, 13):
        table = char_table(n)
        for row in table.rows:
            if row.kind == "pair":
                assert all(set(cell.terms) <= {frozenset()} for cell in row.cells), (n, row)
                continue
            h, _ = diagonal_hooks(row.shape)
            radical = frozenset(k for k in h if k >= 2)
            for (cc, _), cell in zip(table.columns, row.cells):
                assert set(cell.terms) <= {frozenset(), radical}, (n, row.label(), cc)
                assert (radical in cell.terms) == (cc.cycle_type == h), (n, row.label(), cc)


@lru_cache(maxsize=None)
def _mn(beta: frozenset, kappa: tuple) -> int:
    """Classical Murnaghan-Nakayama rule on a beta-set: remove a rim hook of
    size kappa[0] by sliding one bead down, signed by the beads it passes."""
    if not kappa:
        return 1
    r, total = kappa[0], 0
    for b in beta:
        if b >= r and b - r not in beta:
            sign = -1 if sum(b - r < c < b for c in beta) % 2 else 1
            total += sign * _mn(beta - {b} | {b - r}, kappa[1:])
    return total


def _classical_char(lam, kappa) -> int:
    return _mn(frozenset(p + len(lam) - 1 - i for i, p in enumerate(lam)), tuple(kappa))


def test_char_table_at_q_one_matches_classical_values():
    # pair rows: the half sum of the classical characters of lam and its
    # conjugate; split rows: chi/2 off the hook class h, and the two values
    # (eps + sqrt(eps * prod(h)))/2, eps = (-1)^((n-d)/2), swapped between
    # the plus and minus classes of type h (James-Kerber 2.5.13)
    for n in range(2, 13):
        table = char_table(n)
        rows = {(row.kind, row.shape): [specialize_numeric(c, 1) for c in row.cells]
                for row in table.rows}
        for (kind, lam), got in rows.items():
            if kind == "pair":
                for (cc, _), v in zip(table.columns, got):
                    want = (_classical_char(lam, cc.cycle_type)
                            + _classical_char(conjugate(lam), cc.cycle_type)) / 2
                    assert abs(v - want) <= 1e-9, (n, lam, cc)
            elif kind == "plus":
                minus = rows["minus", lam]
                h, d = diagonal_hooks(lam)
                eps = -1 if (n - d) // 2 % 2 else 1
                root = cmath.sqrt(eps * math.prod(h))
                at_h = {}
                for (cc, _), p, m in zip(table.columns, got, minus):
                    if cc.cycle_type == h:
                        at_h[cc.alt_sign] = (p, m)
                    else:
                        want = _classical_char(lam, cc.cycle_type) / 2
                        assert abs(p - want) <= 1e-9 and abs(m - want) <= 1e-9, (n, lam, cc)
                (p, m), (p_minus, m_minus) = at_h["plus"], at_h["minus"]
                assert abs(p_minus - m) <= 1e-9 and abs(m_minus - p) <= 1e-9, (n, lam)
                a, b = (eps + root) / 2, (eps - root) / 2
                assert (max(abs(p - a), abs(m - b)) <= 1e-9
                        or max(abs(p - b), abs(m - a)) <= 1e-9), (n, lam)


def test_char_command_matches_split_oracle():
    import io
    import json
    from contextlib import redirect_stdout

    from althecke.cli import main
    from althecke.scalars import tower_to_obj
    from althecke.specht import char_split

    cases = [((3, 1, 1), (1, 2)), ((3, 1, 1), (2, 1, 3, 2)), ((3, 1, 1), (4, 3, 1, 2, 4, 3)),
             ((3, 2, 1), (1, 3)), ((3, 2, 1), (2, 3, 4, 5)), ((3, 2, 1), (5, 1, 2, 4, 3, 2))]
    half = RatFunc(1) / 2
    for lam, word in cases:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["char", "--shape", ",".join(map(str, lam)),
                         "--word", ",".join(map(str, word))])
        assert code == 0
        doc = json.loads(buf.getvalue())
        w = from_word(word, sum(lam))
        assert w.is_even()
        assert doc["hecke_char"] == tower_to_obj(char_T(lam, w))
        alt = (char_T(lam, w) + char_T(conjugate(lam), w)).scale(half)
        assert doc["alt_char"] == tower_to_obj(alt)
        aw = a_elem(w)
        assert doc["split"]["plus"]["value"] == tower_to_obj(char_split(lam, 1, aw))
        assert doc["split"]["minus"]["value"] == tower_to_obj(char_split(lam, -1, aw))


def test_path_fold_matches_oracles_n6():
    # permutations whose conjugation paths mix at least two DROP2 steps with
    # a FLAT step, so both recursions fold over several steps of one path
    mixed = []
    for w in all_permutations(6):
        path = reduce_to_composition(w)[1]
        drops = sum(isinstance(st, Drop2Step) for st in path)
        if drops >= 2 and drops < len(path):
            mixed.append(w)
    sample = random.Random(6).sample(mixed, 20)
    for w in sample:
        if w.is_even():
            assert twisted_char((3, 2, 1), w)[0] == twisted_trace((3, 2, 1), w), w
        for lam in partitions_of(6):
            assert char_via_class_polys(lam, w) == char_T(lam, w), (lam, w)


def test_ram_packing_width_holds():
    # table_json renders the balanced digits of _ram_packed as they come, so
    # every value it reads, alone or summed with its conjugate's, must have
    # coefficients strictly inside +-2^(bits-1); the columns are grown again
    # at a base 2^64 times wider to read the true coefficients
    for n in range(2, 15):
        shapes, grown = partitions_of(n), {(): {(): 1}}

        def column(kappa):
            if kappa not in grown:
                grown[kappa] = acc = {}
                for nu, x in column(kappa[:-1]).items():
                    for lam, weight in chars._strips(nu, kappa[-1], 1 << wide):
                        acc[lam] = acc.get(lam, 0) + x * weight
            return grown[kappa]

        for kappa, values, bits, e in chars._ram_packed(shapes):
            wide = bits + 64
            exact = column(kappa)
            for group in {tuple(sorted({lam, conjugate(lam)})) for lam in shapes} | {
                    (lam,) for lam in shapes}:
                want = list(chars._digits(sum(exact.get(lam, 0) for lam in group), wide, e))
                assert all(abs(c) < 1 << (bits - 1) for _, c in want), (n, kappa, group)
                got = chars._digits(sum(values.get(lam, 0) for lam in group), bits, e)
                assert list(got) == want, (n, kappa, group)


def test_digits_read_every_balanced_digit():
    # seeded digit lists over the whole range -2^(bits-1) <= c_k < 2^(bits-1),
    # with the most negative digit, a negative top digit and runs of zeros
    rng = random.Random(30)
    for bits in range(1, 71):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        for case in range(12):
            size = rng.randint(1, 9)
            digits = [rng.choice((0, 0, lo, hi, rng.randint(lo, hi))) for _ in range(size)]
            if case == 0:
                digits = [lo] * size
            elif case == 1:
                digits[-1] = lo
            elif case == 2:
                digits = [rng.randint(lo, hi), 0, 0, 0] + digits + [0, 0, -1]
            x = sum(c << (bits * k) for k, c in enumerate(digits))
            e = rng.randint(-20, 20)
            want = [(e + 2 * k, c) for k, c in enumerate(digits) if c]
            assert list(chars._digits(x, bits, e)) == want, (bits, digits)


def test_ram_values_commute_with_conjugation():
    # conjugating the shape is the sign twist of the algebra: at a minimal
    # w_kappa, l(w) = n - len(kappa), chi_lam'(T_w) is (-1)^l(w) times
    # chi_lam(T_w) with q -> q^-1; read from one pass of Ram's rule over all
    # partitions of n, a slip in a strip weight's sign or Q-power, or in the
    # packing, breaks the equality
    pairs = 0
    for n in range(1, 11):
        shapes = partitions_of(n)
        for kappa, values, bits, e in chars._ram_packed(shapes):
            sign = -1 if (n - len(kappa)) % 2 else 1
            for lam in shapes:
                value = dict(chars._digits(values.get(lam, 0), bits, e))
                dual = dict(chars._digits(values.get(conjugate(lam), 0), bits, e))
                assert dual == {-k: sign * c for k, c in value.items()}, (lam, kappa)
                pairs += 1
    assert pairs == 3582


# The Schur relations at generic q (Geck-Pfeiffer 2000, generic degrees and
# Schur elements), in exact Laurent arithmetic.  With Q = q^2, n(lam) =
# sum((i - 1) lam_i) and the generic degree D_lam = Q^n(lam) prod_(i<=n)(Q^i - 1)
# / prod_hooks(Q^h - 1), the trace tau(T_w) = delta_(w,1) is sum(D_lam
# chi_lam(T_w)) / P over the shapes of n, P = prod_(i<=n) (Q^i - 1)/(Q - 1).


def _times_q_minus_one(a: list, k: int) -> list:
    """a(Q) (Q^k - 1), coefficient lists by degree."""
    out = [0] * (len(a) + k)
    for i, c in enumerate(a):
        out[i + k] += c
        out[i] -= c
    return out


def _over_q_minus_one(a: list, k: int) -> list:
    """a(Q) / (Q^k - 1), which must divide exactly."""
    a, out = list(a), [0] * (len(a) - k)
    for i in range(len(a) - 1, k - 1, -1):
        out[i - k], a[i - k], a[i] = a[i], a[i - k] + a[i], 0
    assert not any(a)
    return out


def _generic_degrees(n: int):
    """(P, {lam: D_lam}) as Laurent polynomials in q."""
    def in_q(coeffs):
        return RatFunc.from_laurent(LaurentPoly({2 * k: c for k, c in enumerate(coeffs) if c}))

    top = reduce(_times_q_minus_one, range(1, n + 1), [1])
    degrees = {}
    for lam in partitions_of(n):
        mu = conjugate(lam)
        hooks = [lam[i] - j + mu[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]
        shift = sum(i * part for i, part in enumerate(lam))
        degrees[lam] = in_q([0] * shift + reduce(_over_q_minus_one, hooks, top))
    return in_q(reduce(_over_q_minus_one, [1] * n, top)), degrees


def test_plain_values_satisfy_the_generic_schur_relation():
    # sum(D_lam chi_lam(T_w)) = P delta_(w,1) at every cycle type, so a value
    # labelled by the conjugate shape (D_lam' for D_lam) fails off the identity
    for n in range(1, 13):
        p, degrees = _generic_degrees(n)
        shapes = partitions_of(n)
        for kappa, value in chars._ram_columns(shapes):
            total = sum((value(1, lam).scale(degrees[lam]) for lam in shapes), TowerElem.zero())
            want = TowerElem.from_scalar(p) if kappa == (1,) * n else TowerElem.zero()
            assert total == want, (n, kappa)


def _assert_row_schur_relations(n):
    """The Schur relations in row form over all of S_n: the dual basis of T_w
    under tau is T_(w^-1), so sum_w chi_lam(T_w) chi_mu(T_(w^-1)) = delta_(lam,mu)
    chi_lam(1) P / D_lam.  With chi_lam(T_w) = sum_C f_(w,C) chi_lam(w_C) (Ram's
    columns) the sum is X G X^T for the Gram matrix G_(C,C') = sum_w f_(w,C)
    f_(w^-1,C') of the class polynomials, so it tests every f-vector of S_n."""
    gram = {}
    for w in all_permutations(n):
        inverse = chars._f_vector(w.inverse())
        for c, a in chars._f_vector(w):
            for c2, b in inverse:
                _add_term(gram, (c, c2), a * b)
    p, degrees = _generic_degrees(n)
    shapes = partitions_of(n)
    chi = {}
    for kappa, value in chars._ram_columns(shapes):
        for lam in shapes:
            terms = value(1, lam).terms
            assert set(terms) <= {frozenset()}  # plain values have no radical
            chi[lam, kappa] = terms.get(frozenset(), RatFunc(0))
    for lam in shapes:
        row = {}  # (X G)_(lam, C')
        for (c, c2), g in gram.items():
            _add_term(row, c2, chi[lam, c] * g)
        for mu in shapes:
            total = sum((row[c2] * chi[mu, c2] for c2 in row), RatFunc(0))
            want = chi[lam, (1,) * n] * p / degrees[lam] if lam == mu else RatFunc(0)
            assert total == want, (n, lam, mu)


def test_class_polys_satisfy_the_row_schur_relations():
    # unlike the symmetry checks, this sees a change made the same way at every
    # DROP2 step: a dropped (q - q^-1) factor, or two class keys swapped
    for n in range(2, 7):
        _assert_row_schur_relations(n)


def test_table_satisfies_the_generic_schur_relation():
    # on the cells of table_json, read back by tower_from_obj: the two rows of
    # a self-conjugate shape sum to its plain value and the pair cells to the
    # half sum of two, so sum((D_lam + D_lam') pair cell) + sum(D_lam (plus +
    # minus)) = P tau(A_w), where tau(A_1) = 1 and otherwise tau(A_w) = (q -
    # q^-1)^length(w) / 2: T_w^# = prod(q - q^-1 - T_i) over a reduced word of
    # distinct letters.  The twisted halves cancel, so the closed-form unit
    # stays with the tableau formula, the oracle and the q = 1 values
    for n in range(2, 15):
        p, degrees = _generic_degrees(n)
        doc = json.loads("".join(chars.table_json(n)))
        cols = alt_classes(n)
        assert doc["column_reps"] == [list(rep.one_line) for _, rep in cols]
        weights = [degrees[tuple(row["shape"])] + degrees[conjugate(tuple(row["shape"]))]
                   if row["kind"] == "pair" else degrees[tuple(row["shape"])]
                   for row in doc["rows"]]
        cells = [[tower_from_obj(cell) for cell in row["cells"]] for row in doc["rows"]]
        for j, (cc, rep) in enumerate(cols):
            total = sum((row[j].scale(w) for row, w in zip(cells, weights)), TowerElem.zero())
            length = rep.length()
            tau = math.prod([q_minus_qinv()] * length, start=RatFunc(1) / 2) if length else RatFunc(1)
            assert total == TowerElem.from_scalar(p * tau), (n, cc.label())


def test_table_json_leaves_no_reference_cycle():
    # the strip lists of Ram's rule are freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for n in range(2, 9):
            "".join(chars.table_json(n))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_closed_value_is_the_product_of_its_hook_generators():
    # the unit is built as one monomial key; multiplying the hook generators
    # in one at a time gives the same element, eps(kappa) (s i)^m q^-m y_h
    from itertools import permutations

    i = GaussianRational(0, 1)
    for n in range(1, 15):
        for lam in self_conjugate_partitions(n):
            h, d = diagonal_hooks(lam)
            m = (n - d) // 2
            for kappa in set(permutations(h)):
                for convention, s in (("oracle", resolve_sigma()), ("paper", -1)):
                    coeff = reduce(lambda a, b: a * b, [i * s] * m,
                                   GaussianRational(eps_kappa(kappa)))
                    expect = TowerElem.monomial([k for k in h if k >= 2],
                                                RatFunc.q_power(-m) * RatFunc(coeff))
                    assert twisted_char_closed(lam, kappa, convention) == expect
