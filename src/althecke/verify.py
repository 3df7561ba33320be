"""The checks behind ``althecke verify`` and the acceptance suite.

Each check is a generator over one degree (or one seeded sample) that
yields ``(case, ok)`` for every comparison it makes: ``case`` names the
inputs and ``ok`` says whether the two routes agree exactly.  The command
counts checks and failures; the tests assert that no case fails.

``SUITES`` maps each suite of the command to its cases for the command's
degree ``n``, case count and seed.  The dominance suite only reports: its
``ok`` is False for a nonzero twisted coefficient whose cycle type does not
dominate the shape, an implication suspected but never assumed.
"""

from __future__ import annotations

import random
from itertools import chain

from .chars import (
    char_via_class_polys,
    cute_identity,
    greene_identity,
    twisted_char,
    twisted_char_by_tableaux,
    twisted_char_closed,
)
from .combinat import compositions_of, partitions_of, self_conjugate_partitions
from .scalars import q_minus_qinv
from .specht import (
    build_rep,
    char_T,
    mat_add,
    mat_equal,
    mat_identity,
    mat_mul,
    mat_scale,
    twisted_trace,
    word_matrix,
)
from .symgroup import all_permutations, w_of_composition


def oracle_cases(n: int):
    """Closed form and tableau sum against the matrix oracle, for every
    self-conjugate shape and every composition of n."""
    for lam in self_conjugate_partitions(n):
        for kappa in compositions_of(n):
            oracle = twisted_trace(lam, w_of_composition(kappa))
            yield (lam, kappa), (twisted_char_closed(lam, kappa) == oracle
                                 and twisted_char_by_tableaux(lam, kappa) == oracle)


def relation_cases(n: int):
    """The quadratic and braid relations of every seminormal module of
    degree n."""
    delta = q_minus_qinv()
    for lam in partitions_of(n):
        rep = build_rep(lam)
        ident = mat_identity(rep.dim)
        for i in range(1, n):
            gi = rep.generator_matrix(i)
            yield (lam, "quadratic", i), mat_equal(
                mat_mul(gi, gi), mat_add(ident, mat_scale(gi, delta)))
        for i in range(1, n - 1):
            yield (lam, "braid", i), mat_equal(word_matrix(rep, (i, i + 1, i)),
                                               word_matrix(rep, (i + 1, i, i + 1)))


def classpoly_cases(n: int):
    """Plain values through the class polynomials against the matrix
    oracle, at every permutation of degree n and every shape."""
    for w in all_permutations(n):
        for lam in partitions_of(n):
            yield (lam, w.one_line), char_via_class_polys(lam, w) == char_T(lam, w)


def recursion_cases(n: int):
    """The twisted length recursion against the matrix oracle, at every
    even permutation of degree n and every self-conjugate shape."""
    for w in all_permutations(n):
        if not w.is_even():
            continue
        for lam in self_conjugate_partitions(n):
            value, _ = twisted_char(lam, w)
            yield (lam, w.one_line), value == twisted_trace(lam, w)


def greene_cases(count: int, seed: int):
    """Greene's linearisation identity on ``count`` random semilinear posets
    of at most six elements drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(0, 5)
        rels = tuple(rng.choice((1, -1, 0)) for _ in range(m))
        contents = rng.sample(range(-8, 9), m + 1)
        lhs, rhs = greene_identity(rels, contents)
        yield (rels, contents), lhs == rhs


def cute_cases(m_max: int):
    """The signed hook-content identity for m = 0..m_max."""
    for m in range(m_max + 1):
        lhs, rhs = cute_identity(m)
        yield m, lhs == rhs


def dominates(mu, lam) -> bool:
    """Dominance order on partitions of the same size."""
    total_mu = total_lam = 0
    for i in range(max(len(mu), len(lam))):
        total_mu += mu[i] if i < len(mu) else 0
        total_lam += lam[i] if i < len(lam) else 0
        if total_mu < total_lam:
            return False
    return True


def dominance_cases(n: int):
    """Report only: at every even permutation of degree n and every
    self-conjugate shape, whether the twisted coefficient is zero or the
    cycle type dominates the shape."""
    for lam in self_conjugate_partitions(n):
        for w in all_permutations(n):
            if not w.is_even():
                continue
            _, a_poly = twisted_char(lam, w)
            yield (lam, w.one_line), not a_poly or dominates(w.cycle_type(), lam)


def _degrees(check, lo: int, hi: int):
    return chain.from_iterable(map(check, range(lo, hi + 1)))


# suite name -> cases(n, count, seed), in the order the command runs them
SUITES = {
    "greene": lambda n, count, seed: greene_cases(count, seed),
    "cute": lambda n, count, seed: cute_cases(5),
    "oracle": lambda n, count, seed: _degrees(oracle_cases, 2, n),
    "relations": lambda n, count, seed: _degrees(relation_cases, 2, n),
    "classpoly": lambda n, count, seed: classpoly_cases(min(n, 4)),
    "recursion": lambda n, count, seed: recursion_cases(min(n, 5)),
    "dominance": lambda n, count, seed: _degrees(dominance_cases, 3, min(n, 5)),
}
