import pytest

from althecke.hecke import (
    HeckeElem,
    _hash_of_t,
    a_elem,
    b_elem,
    b_in_a,
    bar_inv,
    e_elem,
    eps_inv,
    expand_in_a,
    hash_inv,
    hash_inv_via_inverse,
    hecke_from_obj,
    hecke_to_obj,
    is_alternating,
    t_in_b,
)
from althecke.scalars import R_HALF, R_ONE, RatFunc, TowerElem, q_minus_qinv, q_plus_qinv
from althecke.symgroup import all_permutations, bruhat_leq, from_word, identity


def T(word, n):
    return HeckeElem.t_word(word, n)


def delta():
    return q_minus_qinv()


def test_quadratic_relation():
    n = 3
    t1 = T([1], n)
    assert t1 * t1 == HeckeElem.one(n) + t1.scale(delta())


def test_length_additive_products():
    assert T([1], 3) * T([2], 3) == T([1, 2], 3)
    assert T([1], 3) * T([2, 1], 3) == T([1, 2, 1], 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_defining_relations(n):
    for i in range(1, n):
        ti = T([i], n)
        assert ti * ti == HeckeElem.one(n) + ti.scale(delta())
    for i in range(1, n - 1):
        assert T([i], n) * T([i + 1], n) * T([i], n) == \
            T([i + 1], n) * T([i], n) * T([i + 1], n)
    for i in range(1, n):
        for j in range(i + 2, n):
            assert T([i], n) * T([j], n) == T([j], n) * T([i], n)


def test_hash_examples():
    n = 3
    assert hash_inv(T([1], n)) == -T([1], n) + HeckeElem.one(n).scale(delta())
    assert hash_inv(HeckeElem.one(n)) == HeckeElem.one(n)
    d = delta()
    expect = T([1, 2], n) - (T([1], n) + T([2], n)).scale(d) \
        + HeckeElem.one(n).scale(d * d)
    assert hash_inv(T([1, 2], n)) == expect


def test_hash_involutive_and_routes_agree():
    for w in all_permutations(4):
        h = HeckeElem.t_basis(w)
        assert hash_inv(h) == hash_inv_via_inverse(h)
        assert hash_inv(hash_inv(h)) == h


def test_hash_is_algebra_map():
    for u in all_permutations(3):
        for v in all_permutations(3):
            hu, hv = HeckeElem.t_basis(u), HeckeElem.t_basis(v)
            assert hash_inv(hu * hv) == hash_inv(hu) * hash_inv(hv)


def test_semilinear_involutions():
    n = 3
    assert bar_inv(T([1], n)) == T([1], n) - HeckeElem.one(n).scale(delta())
    assert eps_inv(T([1, 2], n)) == T([1, 2], n)
    for w in all_permutations(4):
        h = HeckeElem.t_basis(w)
        assert bar_inv(h) == eps_inv(hash_inv(h))
        assert bar_inv(bar_inv(h)) == h
        assert eps_inv(eps_inv(h)) == h


def test_a_elem_examples():
    n = 3
    s1 = identity(n).right_mult_s(1)
    assert a_elem(s1) == T([1], n) - HeckeElem.one(n).scale(R_HALF * delta())
    assert a_elem(identity(n)) == HeckeElem.one(n)
    d = delta()
    w12 = from_word([1, 2], n)
    expect = T([1, 2], n) - (T([1], n) + T([2], n)).scale(R_HALF * d) \
        + HeckeElem.one(n).scale(R_HALF * d * d)
    assert a_elem(w12) == expect


def test_a_elem_unitriangular():
    for w in all_permutations(4):
        aw = a_elem(w)
        assert aw.coeffs[w] == R_ONE
        for y in aw.coeffs:
            assert bruhat_leq(y, w)
        img = hash_inv(aw)
        assert img == (aw if w.is_even() else -aw)


def test_b_basis_triangular_with_parity():
    for w in all_permutations(5):
        bw = b_elem(w)
        assert bw.coeffs[w] == R_ONE
        for y, c in bw.coeffs.items():
            if y == w:
                continue
            assert bruhat_leq(y, w) and y != w
            assert (y.length() - w.length()) % 2 == 1
        assert hash_inv(bw) == (bw if w.is_even() else -bw)


def test_b_cover_coefficient_is_minus_half_delta():
    expect = -(R_HALF * delta())
    seen = 0
    for n in (3, 4):
        for z in all_permutations(n):
            bz = b_elem(z)
            for r in range(1, n):
                rz = z.left_mult_s(r)
                if rz.length() == z.length() - 1:
                    seen += 1
                    assert bz.coeffs[rz] == expect
    assert seen > 0


def test_bar_and_sign_invariance_of_b_basis():
    for w in all_permutations(4):
        bw = b_elem(w)
        assert bar_inv(bw) == bw
        assert eps_inv(bw) == (bw if w.is_even() else -bw)


def test_b_minus_a_same_parity_in_averaged_coordinates():
    # both bases span the same eigenspace, so their difference expands over
    # averaged elements of the same length parity strictly below
    for w in all_permutations(4):
        diff = b_elem(w) - a_elem(w)
        for x, c in expand_in_a(diff).items():
            assert (x.length() - w.length()) % 2 == 0
            assert bruhat_leq(x, w) and x != w


def b_action_rhs(z, n):
    """Corrected product rule: B_r B_z always contains B_{rz} once, plus the
    half-delta correction over the strictly lower support of B_z."""
    bz = b_elem(z)
    out = {}
    for r in range(1, n):
        corr = HeckeElem.zero(n)
        for y, byz in bz.coeffs.items():
            if y == z:
                continue
            if y.left_mult_s(r).length() < y.length():
                corr = corr + b_elem(y).scale(byz)
            else:
                corr = corr - b_elem(y).scale(byz)
        out[r] = b_elem(z.left_mult_s(r)) + corr.scale(R_HALF * delta())
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_b_action_rule(n):
    for z in all_permutations(n):
        rhs = b_action_rhs(z, n)
        for r in range(1, n):
            br = b_elem(identity(n).right_mult_s(r))
            assert br * b_elem(z) == rhs[r]


def test_b_action_literal_indicator_fails():
    # dropping the leading term when the product shortens contradicts the
    # actual algebra: pinned so the correction stays documented
    n = 3
    s1 = identity(n).right_mult_s(1)
    lhs = b_elem(s1) * b_elem(s1)
    d = delta()
    with_leading = HeckeElem.one(n) + HeckeElem.one(n).scale(R_HALF * d * R_HALF * d)
    assert lhs == with_leading
    assert lhs != with_leading - HeckeElem.one(n)


def test_e_elem_properties():
    for n in (3, 4):
        for i in range(1, n):
            e = e_elem(i, n)
            assert e * e == HeckeElem.one(n)
            assert hash_inv(e) == -e
            rebuilt = e.scale(q_plus_qinv() * R_HALF) \
                + HeckeElem.one(n).scale(R_HALF * delta())
            assert rebuilt == T([i], n)


def test_pair_generator_relations():
    # relations of the even subalgebra generators built from the E elements
    c = delta() / q_plus_qinv()
    for n in (3, 4, 5):
        one = HeckeElem.one(n)
        gens = {i: e_elem(1, n) * e_elem(i, n) for i in range(2, n)}
        gens[1] = one
        for i in gens:
            for j in gens:
                if i != j and abs(i - j) != 1:
                    prod = gens[i] * gens[j]
                    assert prod * prod == one
        for i in range(2, n):
            x = gens[i - 1] * gens[i]
            assert (x * x + (x - one).scale(c * c)) * x == one


def test_even_module_decomposition():
    # every element splits as a + E_1 a' with both parts hash-fixed
    for n in (2, 3, 4):
        e1 = e_elem(1, n)
        for w in all_permutations(n):
            h = HeckeElem.t_basis(w)
            sym = (h + hash_inv(h)).scale(R_HALF)
            rest = e1 * (h - sym)
            assert is_alternating(sym)
            assert is_alternating(rest)
            assert sym + e1 * rest == h


@pytest.mark.parametrize("n", [4, 5])
def test_basis_transitions_invert(n):
    for w in all_permutations(n):
        acc = HeckeElem.zero(n)
        for y, c in t_in_b(w):
            acc = acc + b_elem(y).scale(c)
        assert acc == HeckeElem.t_basis(w)
        expansion = expand_in_a(b_elem(w))
        acc = HeckeElem.zero(n)
        for x, c in expansion.items():
            acc = acc + a_elem(x).scale(c)
            assert x.is_even() == w.is_even()
        assert acc == b_elem(w)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_odd_t_in_a_is_even_below_its_leading_term(n):
    # T_w - A_w = (T_w + T_w^#)/2 is #-fixed, so only even A_x remain
    for w in all_permutations(n):
        if w.is_even():
            continue
        expansion = expand_in_a(HeckeElem.t_basis(w))
        assert expansion.pop(w) == R_ONE
        assert all(x.is_even() for x in expansion)


def test_peeling_leaves_cached_elements_alone():
    # the transitions peel a working dict; the cached A and B elements they
    # subtract must come out as they went in
    perms = all_permutations(5)
    for w in perms:
        t_in_b(w)
        b_in_a(w)
    seen = {w: (dict(a_elem(w).coeffs), dict(b_elem(w).coeffs), t_in_b(w), b_in_a(w))
            for w in perms}
    for fn in (_hash_of_t, a_elem, b_elem, t_in_b, b_in_a):
        fn.cache_clear()
    # recomputed in dependency order, each copied before anything peels it
    fresh_a = {w: dict(a_elem(w).coeffs) for w in perms}
    fresh_b = {w: dict(b_elem(w).coeffs) for w in perms}
    for w in perms:
        assert seen[w] == (fresh_a[w], fresh_b[w], t_in_b(w), b_in_a(w))


def test_hecke_serialization_roundtrip():
    elem = a_elem(from_word([1, 2], 3)) + b_elem(from_word([2, 1], 3)).scale(delta())
    obj = hecke_to_obj(elem)
    assert hecke_from_obj(obj, 3) == elem
    lengths = [from_word([], 3).n and len(t["perm"]) for t in obj]
    assert all(l == 3 for l in lengths)


def test_scale_refuses_what_is_not_a_ratfunc_scalar():
    t1 = T([1], 3)
    for c in ("x", None, TowerElem.gen(2)):
        with pytest.raises(TypeError):
            t1.scale(c)
    assert t1.scale(0) == HeckeElem.zero(3)
    assert t1.scale(2) == t1 + t1
