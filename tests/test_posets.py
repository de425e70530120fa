"""Tests for poset enumeration and the exact DAG/essential-DAG counts."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from mecmc.essential import enumerate_dags
from mecmc.graphs import Dag
from mecmc.posets import (
    Poset,
    count_dags_via_posets,
    count_essential_dags_via_posets,
    count_labeled_posets,
    decimal_string,
    enumerate_labeled_posets,
    poset_stats,
    ratio_table,
    reachability_poset,
    robinson_counts,
    steinsky_counts,
)

from oracles import singleton_class_count_bruteforce
from strategies import small_dags

# Labeled posets on 0..6 elements, frozen from the enumeration itself and
# cross-checked against the n <= 4 brute force below.
POSET_COUNTS = [1, 1, 3, 19, 219, 4231, 130023]
DAG_COUNTS = [1, 1, 3, 25, 543, 29281]
ESSENTIAL_DAG_COUNTS = [1, 1, 1, 4, 59, 2616]


def brute_posets(n):
    """Filter all reflexive relation matrices for transitivity and
    antisymmetry; exponential in n^2, so n <= 4 only."""
    import itertools

    out = set()
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((0, 1), repeat=len(offdiag)):
        rel = {p for p, b in zip(offdiag, bits) if b}
        if any((j, i) in rel for i, j in rel):
            continue
        if any(
            (i, k) not in rel
            for i, j in rel
            for j2, k in rel
            if j == j2 and i != k
        ):
            continue
        out.add(frozenset(rel))
    return out


def q_pochhammer(a, q, n):
    """(a; q)_n = prod_{i=0}^{n-1} (1 - a q^i), from scratch in rationals;
    the reference for the integer product that ratio_table carries."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, q = Fraction(a), Fraction(q)
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        out *= 1 - a * power
        power *= q
    return out


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset(2, [0b01, 0b01])  # element 1 not reflexive
    p = Poset(2, [0b11, 0b10])
    assert p.less(0, 1) and not p.less(1, 0) and not p.less(0, 0)


def test_reachability_poset_examples():
    chain = reachability_poset(Dag(3, [(0, 1), (1, 2)]))
    assert chain.relation_pairs() == {(0, 1), (0, 2), (1, 2)}

    antichain = reachability_poset(Dag(3, []))
    assert antichain.relation_pairs() == frozenset()

    collider = reachability_poset(Dag(3, [(0, 2), (1, 2)]))
    assert collider.relation_pairs() == {(0, 2), (1, 2)}


@settings(deadline=None, max_examples=150)
@given(small_dags(max_n=6))
def test_reachability_matches_transitive_closure(d):
    reach = {(u, v) for u, v in d.arcs}
    changed = True
    while changed:
        changed = False
        for a, b in list(reach):
            for c, e in list(reach):
                if b == c and (a, e) not in reach:
                    reach.add((a, e))
                    changed = True
    assert reachability_poset(d).relation_pairs() == reach


def test_poset_stats_chain_and_antichain():
    chain = Poset(3, [0b111, 0b110, 0b100])
    s = poset_stats(chain)
    assert s.downset_sizes == [0, 1, 2]
    assert s.cover_counts == [0, 1, 1]
    assert s.heights == [1, 2, 3]

    antichain = Poset(3, [0b001, 0b010, 0b100])
    s = poset_stats(antichain)
    assert s.downset_sizes == [0, 0, 0]
    assert s.cover_counts == [0, 0, 0]
    assert s.heights == [1, 1, 1]


def test_covers_skip_intermediate_elements():
    chain = Poset(3, [0b111, 0b110, 0b100])
    assert chain.covers(2) == [1]
    assert chain.covers(1) == [0]
    assert chain.covers(0) == []


def test_poset_counts():
    for n, want in enumerate(POSET_COUNTS):
        assert count_labeled_posets(n) == want
    with pytest.raises(ValueError):
        count_labeled_posets(7)


def test_enumeration_matches_brute_force():
    for n in range(5):
        got = {p.relation_pairs() for p in enumerate_labeled_posets(n)}
        assert got == brute_posets(n)
        assert count_labeled_posets(n) == len(got)


def test_n2_posets_explicitly():
    rels = {p.relation_pairs() for p in enumerate_labeled_posets(2)}
    assert rels == {frozenset(), frozenset({(0, 1)}), frozenset({(1, 0)})}


def test_dag_count_three_ways():
    for n in range(6):
        via_posets = count_dags_via_posets(n)
        assert via_posets == DAG_COUNTS[n]
        assert robinson_counts(n)[n] == via_posets
        if n <= 5:
            assert len(enumerate_dags(n)) == via_posets


def test_essential_dag_count_three_ways():
    for n in range(6):
        via_posets = count_essential_dags_via_posets(n)
        assert via_posets == ESSENTIAL_DAG_COUNTS[n]
        assert steinsky_counts(n)[n] == via_posets
        if n <= 5:
            assert singleton_class_count_bruteforce(n) == via_posets


def test_recursion_hand_values():
    assert robinson_counts(2) == [1, 1, 3]
    assert steinsky_counts(2) == [1, 1, 1]


def test_chain_posets_contribute_no_essential_dags():
    # A total order on n elements carries 2^C(n-1,2) DAGs and, because some
    # element has d(v) = c(v) = 1, zero essential DAGs.
    for n in range(2, 8):
        leq = [((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)]
        s = poset_stats(Poset(n, leq))
        dag_prod = 1
        ess_prod = 1
        for d, c in zip(s.downset_sizes, s.cover_counts):
            dag_prod *= 1 << (d - c)
            ess_prod *= (1 << (d - c)) - (1 if c == 1 else 0)
        assert dag_prod == 2 ** math.comb(n - 1, 2)
        assert ess_prod == 0


def test_almost_linear_posets_match_pochhammer():
    # Two incomparable minima under a chain: the essential/DAG ratio within
    # this poset family telescopes to 2 * (1/2; 1/2)_{n-2}.
    for n in range(4, 21):
        leq = [0] * n
        full = (1 << n) - 1
        leq[0] = full & ~(1 << 1)
        leq[1] = full & ~(1 << 0)
        for i in range(2, n):
            leq[i] = full ^ ((1 << i) - 1) | (1 << i)
        s = poset_stats(Poset(n, leq))
        dag_prod = 1
        ess_prod = 1
        for d, c in zip(s.downset_sizes, s.cover_counts):
            dag_prod *= 1 << (d - c)
            ess_prod *= (1 << (d - c)) - (1 if c == 1 else 0)
        want_dags = 1
        want_ess = 1
        for i in range(4, n + 1):
            want_dags *= 1 << (i - 2)
            want_ess *= (1 << (i - 2)) - 1
        assert dag_prod == want_dags
        assert ess_prod == want_ess
        assert Fraction(ess_prod, dag_prod) == 2 * q_pochhammer(
            Fraction(1, 2), Fraction(1, 2), n - 2
        )


def test_q_pochhammer_values():
    assert q_pochhammer(Fraction(1, 2), Fraction(1, 2), 0) == 1
    assert q_pochhammer(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(3, 8)
    with pytest.raises(ValueError):
        q_pochhammer(1, 1, -1)


def test_decimal_string_truncates():
    assert decimal_string(Fraction(1, 3), 5) == "0.33333"
    assert decimal_string(Fraction(2, 3), 3) == "0.666"
    assert decimal_string(Fraction(-1, 8), 2) == "-0.12"
    assert decimal_string(Fraction(7, 2), 0) == "3"
    assert decimal_string(3, 1) == "3.0"


def test_ratio_table_small_rows():
    rows = {r.n: r for r in ratio_table(4)}
    assert rows[2].ratio == Fraction(3, 1)
    assert rows[4].dags == 543 and rows[4].essential_dags == 59
    assert rows[4].ratio == Fraction(543, 59)


def test_ratio_stabilizes_to_published_digits():
    rows = ratio_table(200)
    last = rows[-1]
    assert last.n == 200
    assert decimal_string(last.ratio, 13) == "13.6517978587767"
    assert decimal_string(last.adjusted, 2).startswith("3.94")
    assert last.adjusted < 4
    # successive ratios agree to increasing precision
    r150 = next(r for r in rows if r.n == 150)
    assert decimal_string(r150.ratio, 13) == decimal_string(last.ratio, 13)


def test_ratio_table_cap_and_positivity():
    with pytest.raises(ValueError):
        ratio_table(301)
    for r in ratio_table(30):
        assert r.essential_dags <= r.dags
        assert r.ratio > 0


# ---------------------------------------------------------------------------
# oracle: the recursions and the ratio table as first written, with full
# powers, a from-scratch q_pochhammer per row and reduced Fractions


def oracle_robinson(nmax):
    a = [1]
    for n in range(1, nmax + 1):
        total = 0
        for i in range(1, n + 1):
            term = math.comb(n, i) * (1 << (i * (n - i))) * a[n - i]
            total += term if i % 2 == 1 else -term
        a.append(total)
    return a


def oracle_steinsky(nmax):
    a = [1]
    for n in range(1, nmax + 1):
        total = 0
        for i in range(1, n + 1):
            term = math.comb(n, i) * (2 ** (n - i) - (n - i)) ** i * a[n - i]
            total += term if i % 2 == 1 else -term
        a.append(total)
    return a


@pytest.fixture(scope="module")
def oracle_counts():
    return oracle_robinson(300), oracle_steinsky(300)


def test_recursions_match_oracle_to_300(oracle_counts):
    dags, ess = oracle_counts
    assert robinson_counts(300) == dags
    assert steinsky_counts(300) == ess


def test_ratio_table_matches_oracle_to_300(oracle_counts):
    dags, ess = oracle_counts
    rows = ratio_table(300)
    assert [r.n for r in rows] == list(range(2, 301))
    half = Fraction(1, 2)
    for r in rows:
        ratio = Fraction(dags[r.n], ess[r.n])
        adjusted = ratio * q_pochhammer(half, half, r.n - 2)
        assert (r.dags, r.essential_dags) == (dags[r.n], ess[r.n])
        assert r.ratio == ratio
        assert r.adjusted == adjusted
        ratio_pair = (r.dags, r.essential_dags)
        for digits in (0, 13):
            assert decimal_string(ratio_pair, digits) == decimal_string(ratio, digits)
            assert decimal_string(r.adjusted_pair, digits) == decimal_string(
                adjusted, digits
            )


def test_decimal_string_of_unreduced_pairs():
    for num, den in [(2, 6), (-10, 80), (0, 7), (700, 200), (9, 3)]:
        for digits in (0, 1, 5):
            assert decimal_string((num, den), digits) == decimal_string(
                Fraction(num, den), digits
            )
    assert decimal_string((-3, 6), 2) == "-0.50"
