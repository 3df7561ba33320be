"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact equalities in the tower ring except the q = 1
classical-limit criterion, which uses double precision at 1e-9.
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout

from althecke import verify
from althecke.chars import (
    alt_class_polys,
    char_table,
    class_polys,
    delta_coefficients,
    equiv_class_check,
    split_char_values,
    twisted_char,
)
from althecke.combinat import (
    compositions_of,
    diagonal_hooks,
    partitions_of,
    self_conjugate_partitions,
    transposable_tableaux,
)
from althecke.hecke import HeckeElem, b_elem, bar_inv, e_elem, eps_inv, hash_inv, is_alternating
from althecke.scalars import (
    GaussianRational,
    R_HALF,
    RatFunc,
    TowerElem,
    q_minus_qinv,
    q_plus_qinv,
    specialize_numeric,
    tower_from_obj,
)
from althecke.specht import build_rep, char_T, mat_equal, twisted_trace, word_matrix
from althecke.symgroup import (
    all_permutations,
    alt_classes,
    bruhat_leq,
    from_word,
    identity,
    split_class_reps,
    w_of_composition,
)


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_01_main_theorem_oracle_equivalence():
    checks = [check for n in range(2, 8) for check in verify.oracle_cases(n)]
    failures = [case for case, ok in checks if not ok]
    assert not failures
    _report(1, f"closed form == tableau sum == matrix oracle on {len(checks)} "
               f"(shape, composition) pairs, n = 2..7, exact")


def test_criterion_02_vanishing_branches():
    vanished = 0
    for n in range(2, 8):
        for lam in self_conjugate_partitions(n):
            h, d = diagonal_hooks(lam)
            for kappa in compositions_of(n):
                if tuple(sorted(kappa, reverse=True)) == h:
                    continue
                assert twisted_trace(lam, w_of_composition(kappa)).is_zero(), (lam, kappa)
                vanished += 1
    _report(2, f"twisted character vanishes on all {vanished} compositions "
               f"not sorting to the diagonal hooks, n = 2..7, exact")


def test_criterion_03_golden_degree_nine_examples(goldens):
    lam = (3, 3, 3)
    w = from_word([1, 2, 3, 4, 5, 6, 7, 8], 9)
    v = from_word([8, 5, 1, 2, 3, 4, 6, 7], 9)
    u = from_word([7, 8, 5, 1, 2, 3, 4, 6], 9)
    delta = q_minus_qinv()

    # first example: the published twisted value at v, against the oracle
    oracle_v = twisted_trace(lam, v)
    published = TowerElem.monomial(
        [3, 5],
        RatFunc.q_power(-3) * delta * delta * RatFunc(GaussianRational(0, -1)))
    assert oracle_v == published  # -q^-4 (q-q^-1)^2 sqrt(-1) sqrt[3] sqrt[5]
    value_v, a_v = twisted_char(lam, v)
    assert value_v == oracle_v
    assert a_v == delta * delta
    assert twisted_trace(lam, w).is_zero()
    value_u, a_u = twisted_char(lam, u)
    assert value_u == twisted_trace(lam, u) == -oracle_v
    assert a_u == -(delta * delta)

    # second example: the three-row table over the averaged and
    # parity-triangular bases, frozen as a golden file
    rows = {}
    for name, perm in (("w", w), ("v", v), ("u", u)):
        rows[name] = {
            "A": split_char_values(lam, perm, "A"),
            "B": split_char_values(lam, perm, "B"),
        }
    golden = json.loads((goldens / "second_example_n9.json").read_text())
    for row in golden["rows"]:
        got = rows[row["name"]]
        assert got["A"][0] == tower_from_obj(row["A_plus"])
        assert got["A"][1] == tower_from_obj(row["A_minus"])
        assert got["B"][0] == tower_from_obj(row["B_plus"])
        assert got["B"][1] == tower_from_obj(row["B_minus"])

    # the published headline value 2^8 (q-q^-1)^8 is the unsplit character
    # on the parity-triangular basis element; the split values share it
    # halved, with the twisted part of the v and u rows equal to -+ half
    # the first example's value (the published table omits the halving and
    # flips one column's sign pattern; the oracle values are authoritative)
    headline = RatFunc(256)
    for _ in range(8):
        headline = headline * delta
    half = RatFunc(1) / 2
    common = TowerElem.from_scalar(headline * half)
    for name, perm in (("w", w), ("v", v), ("u", u)):
        b_plus, b_minus = rows[name]["B"]
        assert b_plus + b_minus == TowerElem.from_scalar(headline)
        tw = twisted_trace(lam, b_elem(perm))
        assert b_plus - common == tw.scale(half)
        assert b_minus - common == -(tw.scale(half))
    assert rows["w"]["A"][0].is_zero() and rows["w"]["A"][1].is_zero()
    assert rows["v"]["A"][0] == oracle_v.scale(half)
    assert rows["u"]["A"][0] == -(oracle_v.scale(half))
    _report(3, "degree-9 golden examples reproduced (twisted value, its "
               "coefficient (q-q^-1)^2, and the three-row basis table; "
               "published table relates by a factor 2 and the documented "
               "sign-label swap, oracle values frozen as goldens)")


def test_criterion_04_recursion_soundness_and_kappa_minus():
    checks = [check for n in range(2, 6) for check in verify.recursion_cases(n)]
    failures = [case for case, ok in checks if not ok]
    assert not failures
    flips = 0
    for n in range(3, 8):
        for lam in self_conjugate_partitions(n):
            h, _ = diagonal_hooks(lam)
            for kappa in partitions_of(n):
                wplus, wminus = split_class_reps(kappa) if (n - len(kappa)) % 2 == 0 \
                    else (None, None)
                if wminus is None:
                    continue
                vplus, _ = twisted_char(lam, wplus)
                vminus, _ = twisted_char(lam, wminus)
                assert vminus == -vplus, (lam, kappa)
                assert vminus == twisted_trace(lam, wminus)
                flips += 1
    _report(4, f"length recursion equals the oracle on every even element "
               f"(n <= 5, {len(checks)} values) and negates across all {flips} "
               f"split-class representative pairs, n <= 7")


def test_criterion_05_class_polynomials():
    for n in range(2, 6):
        for w in all_permutations(n):
            table = class_polys(w).as_dict()
            for ctype, poly in table.items():
                w_c = w_of_composition(ctype)
                assert w_c.length() <= w.length()
                coeffs = delta_coefficients(poly)
                assert coeffs, (w.one_line, ctype)  # in Z[q - q^-1] and nonzero
                assert max(coeffs) <= w.length() - w_c.length()
    checks = [check for n in range(2, 6) for check in verify.classpoly_cases(n)]
    failures = [case for case, ok in checks if not ok]
    assert not failures
    from althecke.combinat import conjugate

    def alt_value(lam, x):
        return (char_T(lam, x) + char_T(conjugate(lam), x)).scale(R_HALF)

    alt_checked = 0
    for n in range(2, 6):
        reps = {(cc.cycle_type, cc.alt_sign): rep for cc, rep in alt_classes(n)}
        for w in all_permutations(n):
            if not w.is_even():
                continue
            g = alt_class_polys(w).as_dict()
            for lam in partitions_of(n):
                rhs = TowerElem.zero()
                for key, c in g.items():
                    rhs = rhs + alt_value(lam, reps[key]).scale(c)
                assert alt_value(lam, w) == rhs, (w.one_line, lam)
                alt_checked += 1
    _report(5, f"class polynomials reconstruct every character value "
               f"({len(checks)} plain, {alt_checked} alternating) with the "
               f"degree bounds, n <= 5, exact")


def test_criterion_06_basis_suite():
    delta = q_minus_qinv()
    for n in range(2, 6):
        perms = all_permutations(n)
        for z in perms:
            bz = b_elem(z)
            assert bz.coeffs[z] == RatFunc(1)
            for y in bz.coeffs:
                if y != z:
                    assert bruhat_leq(y, z)
                    assert (y.length() - z.length()) % 2 == 1
            assert bar_inv(bz) == bz
            assert eps_inv(bz) == (bz if z.is_even() else -bz)
        for z in perms:
            bz = b_elem(z)
            for r in range(1, n):
                lhs = b_elem(identity(n).right_mult_s(r)) * bz
                corr = HeckeElem.zero(n)
                for y, byz in bz.coeffs.items():
                    if y == z:
                        continue
                    if y.left_mult_s(r).length() < y.length():
                        corr = corr + b_elem(y).scale(byz)
                    else:
                        corr = corr - b_elem(y).scale(byz)
                rhs = b_elem(z.left_mult_s(r)) + corr.scale(R_HALF * delta)
                assert lhs == rhs, (n, z.one_line, r)
    _report(6, "triangularity with parity, bar/sign invariance, and the "
               "exact product rule hold for every basis element, n <= 5 "
               "(leading term present in both length directions)")


def test_criterion_07_representation_suite():
    failures = [case for n in range(2, 7) for case, ok in verify.relation_cases(n) if not ok]
    assert not failures
    for n in range(2, 7):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert mat_equal(word_matrix(rep, (i, j)),
                                     word_matrix(rep, (j, i)))
    c = q_minus_qinv() / q_plus_qinv()
    for n in range(2, 6):
        one = HeckeElem.one(n)
        for i in range(1, n):
            e = e_elem(i, n)
            assert e * e == one
            assert hash_inv(e) == -e
        gens = {1: one}
        for i in range(2, n):
            gens[i] = e_elem(1, n) * e_elem(i, n)
        for i in gens:
            for j in gens:
                if i != j and abs(i - j) != 1:
                    prod = gens[i] * gens[j]
                    assert prod * prod == one
        for i in range(2, n):
            x = gens[i - 1] * gens[i]
            assert (x * x + (x - one).scale(c * c)) * x == one
    for n in range(2, 5):
        e1 = e_elem(1, n)
        for w in all_permutations(n):
            h = HeckeElem.t_basis(w)
            sym = (h + hash_inv(h)).scale(R_HALF)
            rest = e1 * (h - sym)
            assert is_alternating(sym) and is_alternating(rest)
            assert sym + e1 * rest == h
    _report(7, "quadratic/braid/commutation matrix identities for all "
               "shapes of n <= 6; involution generators and their pair "
               "relations for n <= 5; even-module splitting on the "
               "standard basis for n <= 4")


def test_criterion_08_identity_suites():
    failures = [case for case, ok in verify.greene_cases(200, 7) if not ok]
    failures += [case for case, ok in verify.cute_cases(5) if not ok]
    assert not failures
    reduced = 0
    for n in range(2, 8):
        for lam in self_conjugate_partitions(n):
            _, d = diagonal_hooks(lam)
            for kappa in compositions_of(n):
                if len(kappa) != d or any(k % 2 == 0 for k in kappa):
                    continue
                for z in range(1, d + 1):
                    rpt = equiv_class_check(lam, kappa, z)
                    assert rpt.applicable and rpt.passed, (lam, kappa, z)
                    reduced += 1
    big = (6, 3, 2, 1, 1, 1)
    assert len(transposable_tableaux(big, (7, 7))) == 384
    for z in (1, 2):
        rpt = equiv_class_check(big, (7, 7), z)
        assert rpt.applicable and rpt.passed
    _report(8, f"linearisation identity on 200 seeded posets, hook-content "
               f"identity to m = 5, and {reduced} per-class reductions for "
               f"n <= 7 plus the 14-box worked example (384 transposable "
               f"tableaux), exact")


def test_criterion_09_classical_limit():
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from classical import classical_alt_table

    for n in (3, 4, 5):
        table = char_table(n)
        classes, class_of, chars = classical_alt_table(n)
        col_idx = [class_of[rep.one_line] for _, rep in table.columns]
        matched = set()
        for row in table.rows:
            ours = [specialize_numeric(v, 1) for v in row.cells]
            hit = None
            for k, chi in enumerate(chars):
                if k in matched:
                    continue
                if all(abs(chi[c] - o) <= 1e-9 for c, o in zip(col_idx, ours)):
                    hit = k
                    break
            assert hit is not None, (n, row.label())
            matched.add(hit)
        assert len(matched) == len(table.rows) == len(chars)
        # squared dimensions sum to the group order
        order = math.factorial(n) // 2
        dims = [specialize_numeric(row.cells[0], 1).real for row in table.rows]
        assert abs(sum(d * d for d in dims) - order) <= 1e-9

    t3 = char_table(3)
    split_cells = {}
    for row in t3.rows:
        if row.kind in ("plus", "minus"):
            split_cells[row.kind] = specialize_numeric(row.cells[1], 1)
    omega = complex(-0.5, math.sqrt(3) / 2)
    got = sorted(split_cells.values(), key=lambda z: z.imag)
    want = sorted([omega, omega.conjugate()], key=lambda z: z.imag)
    assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want))
    _report(9, "q = 1 specialization matches the independent brute-force "
               "group character tables for n = 3, 4, 5 at 1e-9; the split "
               "three-cycle values are (-1 +- sqrt(-3))/2")


def test_criterion_10_determinism(goldens):
    from althecke.cli import main

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["table", "-n", "5"])
        assert code == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert outs[0] == (goldens / "table_n5.json").read_text()
    _report(10, "repeated table runs are byte-identical and equal the "
                "golden file")
