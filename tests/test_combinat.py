import pytest

from althecke.combinat import (
    BadIndexError,
    NotSymmetricError,
    StdTableau,
    conjugate,
    diagonal_hooks,
    eps_kappa,
    hook_length_count,
    is_self_conjugate,
    is_w_transposable,
    parse_partition,
    partitions_of,
    self_conjugate_partitions,
    skew_cells,
    std_tableaux,
    symmetric_covering,
    transposable_tableaux,
)
from althecke.symgroup import w_of_composition

from conftest import compositions_of, compositions_with_length


def test_partitions_of():
    assert len(partitions_of(4)) == 5
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert is_self_conjugate((2, 1))
    assert not is_self_conjugate((3, 1))
    for lam in partitions_of(7):
        assert conjugate(conjugate(lam)) == lam


def test_conjugate_counts_the_parts_reaching_each_column():
    # lam'_c = #{i : lam_i >= c}, from any iterable of parts
    assert conjugate([]) == ()
    for n in range(1, 13):
        for lam in partitions_of(n):
            want = tuple(sum(p >= c for p in lam) for c in range(1, lam[0] + 1))
            assert conjugate(lam) == conjugate(list(lam)) == want, lam


def test_skew_cells():
    assert skew_cells((2, 2), (1,)) == [(1, 2), (2, 1), (2, 2)]
    with pytest.raises(ValueError):
        skew_cells((2,), (3,))


def test_diagonal_hooks():
    assert diagonal_hooks((3, 3, 3)) == ((5, 3, 1), 3)
    assert diagonal_hooks((4, 1, 1, 1)) == ((7,), 1)
    assert diagonal_hooks((2, 1)) == ((3,), 1)
    with pytest.raises(NotSymmetricError):
        diagonal_hooks((3, 1))


def test_diagonal_hooks_properties():
    for n in range(1, 10):
        for lam in self_conjugate_partitions(n):
            h, d = diagonal_hooks(lam)
            assert sum(h) == n
            assert all(x % 2 == 1 for x in h)
            assert all(a > b for a, b in zip(h, h[1:]))
            # the canonical hook permutation has length n - d, twice the
            # number of off-diagonal radical factors
            assert w_of_composition(h).length() == n - d
            assert (n - d) % 2 == 0


def test_std_tableaux_counts():
    assert len(std_tableaux((2, 1))) == 2
    assert len(std_tableaux((3, 3, 3))) == 42
    assert len(std_tableaux((5,))) == 1
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert len(std_tableaux(lam)) == hook_length_count(lam)


def test_std_tableaux_are_standard_and_sorted():
    tabs = std_tableaux((3, 2))
    words = [t.row_word() for t in tabs]
    assert words == sorted(words)
    assert len(set(tabs)) == len(tabs)


def test_tableau_queries():
    t = StdTableau([[1, 2], [3]])
    assert t.content(2) == 1
    assert t.content(3) == -1
    assert t.axial(2) == 2
    assert t.conjugate() == StdTableau([[1, 3], [2]])
    swapped, ok = t.apply_s(1)
    assert not ok and swapped is None
    swapped, ok = t.apply_s(2)
    assert ok and swapped == StdTableau([[1, 3], [2]])
    assert t.has_2_in_first_row()
    assert not t.conjugate().has_2_in_first_row()
    with pytest.raises(BadIndexError):
        t.axial(3)


def test_tableau_conjugate_involution():
    for lam in partitions_of(6):
        for t in std_tableaux(lam):
            assert t.conjugate().conjugate() == t
            assert t.conjugate().shape == conjugate(lam)


def test_transposable_examples():
    for t in std_tableaux((2, 1)):
        assert is_w_transposable(t, (3,))
        assert is_w_transposable(t, (1, 2))
        assert not is_w_transposable(t, (2, 1))
        assert not is_w_transposable(t, (1, 1, 1))
    t = StdTableau([[1, 2], [3, 4]])
    assert is_w_transposable(t, (4,))  # opposite pair {2, 3} sits in the 4-cycle
    assert not is_w_transposable(t, (2, 2))  # 2 and 3 fall in different blocks
    t2 = StdTableau([[1, 3], [2, 4]])
    assert is_w_transposable(t2, (4,))
    assert is_w_transposable(t2, (1, 3))  # pair {2, 3} fits inside the 3-block
    assert not is_w_transposable(t2, (2, 2))  # pair {2, 3} straddles the blocks


def test_transposable_pairs_differ_by_one():
    # diagonally opposite entries of any transposable tableau differ by one
    for lam in self_conjugate_partitions(6):
        for kappa in compositions_of(6):
            for t in transposable_tableaux(lam, kappa):
                for r, c in ((r, c) for r in range(1, len(lam) + 1)
                             for c in range(r + 1, lam[r - 1] + 1)):
                    if t.has_cell(c, r):
                        assert abs(t.entry(r, c) - t.entry(c, r)) == 1


def test_transposable_diagonal_counting_premises():
    # each odd cycle block meets the diagonal an odd number of times (so at
    # least once) and each even block an even number of times; with as many
    # odd parts as the diagonal and none even, each block meets it exactly
    # once -- the counting facts behind the vanishing branches
    from althecke.combinat import diagonal_hooks
    from althecke.combinat import orbit_blocks

    for n in (4, 5, 6):
        for lam in self_conjugate_partitions(n):
            _, d = diagonal_hooks(lam)
            for kappa in compositions_of(n):
                for t in transposable_tableaux(lam, kappa):
                    blocks = orbit_blocks(kappa)
                    hits = [0] * len(kappa)
                    for v in t.diagonal_entries():
                        hits[blocks[v]] += 1
                    for z, part in enumerate(kappa):
                        assert hits[z] % 2 == part % 2
                    if len(kappa) == d and all(k % 2 for k in kappa):
                        assert hits == [1] * d


def test_symmetric_covering_examples():
    chain = symmetric_covering((4, 3, 3, 1), (3, 1, 7))
    assert chain == [(), (2, 1), (2, 2), (4, 3, 3, 1)]
    assert symmetric_covering((3, 3, 3), (9,)) is None
    assert symmetric_covering((2, 1), (3,)) == [(), (2, 1)]


def _chain_is_valid(lam, kappa, chain):
    if chain[0] != () or chain[-1] != tuple(lam):
        return False
    total = 0
    for z, part in enumerate(kappa, start=1):
        total += part
        step = chain[z]
        if sum(step) != total or not is_self_conjugate(step):
            return False
        prev = chain[z - 1] + (0,) * (len(step) - len(chain[z - 1]))
        if any(a < b for a, b in zip(step, prev)):
            return False
        contents = sorted(c - r for r, row in enumerate(step, start=1)
                          for c in range(1, row + 1)
                          if not (r <= len(chain[z - 1]) and c <= prev[r - 1]))
        if contents != list(range(min(contents), max(contents) + 1)):
            return False
    return True


def test_symmetric_covering_characterization():
    # existence iff the sorted composition equals the diagonal hooks,
    # exhaustively over compositions with d parts, shapes up to size 9
    for n in range(1, 10):
        for lam in self_conjugate_partitions(n):
            h, d = diagonal_hooks(lam)
            for kappa in compositions_with_length(n, d):
                chain = symmetric_covering(lam, kappa)
                if tuple(sorted(kappa, reverse=True)) == h:
                    assert chain is not None
                    assert _chain_is_valid(lam, kappa, chain)
                else:
                    assert chain is None
    with pytest.raises(NotSymmetricError):
        symmetric_covering((3, 1), (3, 1))


def test_eps_kappa():
    assert eps_kappa((5, 3, 1)) == 1
    assert eps_kappa((1, 3)) == -1
    assert eps_kappa((3, 1, 5)) == 1
    assert eps_kappa(()) == 1


def test_parse_partition():
    assert parse_partition("3,3,3") == (3, 3, 3)
    assert parse_partition("") == ()
    for text in ("2,3", "0", "3,0,0", "2,-1", "1,2,1"):
        with pytest.raises(ValueError):
            parse_partition(text)
