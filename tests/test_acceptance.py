"""Acceptance gate: one test per headline claim, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Exact claims use rational arithmetic with zero tolerance;
spectral claims use 1e-9; runtime limits are asserted where stated.
"""

import itertools
import time
from fractions import Fraction
from math import comb, cos, pi

from mecmc.amo import build_orientation_space
from mecmc.essential import (
    enumerate_dags,
    enumerate_essential_graphs,
    essential_graph_of_dag,
    is_essential_graph,
    is_strongly_protected,
    protected_directed_only,
)
from mecmc.flipchain import (
    clique_cut_bottlenecks,
    exact_tmix,
    madras_randall_bound,
    spectral_gap,
    transition_matrix,
)
from mecmc.graphs import Pdag, clique_tree, complete_graph, glued_clique_chain
from mecmc.hjy import (
    counterexample_family,
    counterexample_graph,
    emptying_sequence,
    exact_kernel,
    hamming_distance,
    reachable_within,
    two_step_path,
)
from mecmc.posets import (
    count_dags_via_posets,
    count_essential_dags_via_posets,
    decimal_string,
    ratio_table,
    robinson_counts,
    steinsky_counts,
)

from conftest import TREE_NAMES
from oracles import (
    Amo,
    essential_graph_by_intersection,
    kernel_fractions,
    singleton_class_count_bruteforce,
)


def test_c1_counting_crosscheck():
    start = time.monotonic()
    robinson = robinson_counts(5)
    steinsky = steinsky_counts(5)
    for n in range(1, 6):
        dags = count_dags_via_posets(n)
        assert dags == robinson[n]
        assert dags == len(enumerate_dags(n))
        singles = count_essential_dags_via_posets(n)
        assert singles == steinsky[n]
        assert singles == singleton_class_count_bruteforce(n)
    assert robinson[3] == 25 and robinson[4] == 543
    assert time.monotonic() - start < 60


def test_c2_ratio_reproduction():
    start = time.monotonic()
    last = ratio_table(200)[-1]
    assert last.n == 200
    assert decimal_string(last.ratio, 13) == "13.6517978587767"
    assert decimal_string(last.adjusted, 2) == "3.94"
    assert time.monotonic() - start < 60


def test_c3_permutohedron_spectra():
    for n in (3, 4, 5):
        g = complete_graph(n)
        gap = spectral_gap(transition_matrix(build_orientation_space(g)))
        exact = (2 / g.num_edges) * (1 - cos(pi / n))
        assert abs(gap - exact) < 1e-9


def test_c4_slow_mixing_instance():
    g = glued_clique_chain([4, 4], [2])
    space = build_orientation_space(g)
    assert space.size == 88
    face = [s for s in space.nonfollower_masks if s.bit_count() == 2]
    assert len(face) == 8
    closed_form = Fraction(1, g.num_edges * (comb(4, 2) - 1))
    assert closed_form == Fraction(1, 55)
    for rep in clique_cut_bottlenecks(space).values():
        assert rep.phi == closed_form


def test_c5_bound_validity_suite(suite, suite_spaces):
    start = time.monotonic()
    checked = 0
    for name, g in suite.items():
        space = suite_spaces[name]
        tm = transition_matrix(space)
        gap = spectral_gap(tm)
        tmix = exact_tmix(tm)
        multi = len(clique_tree(g).cliques) >= 2
        if multi:
            assert madras_randall_bound(g) <= gap + 1e-12
        cuts = clique_cut_bottlenecks(space)
        if tmix is not None:
            for rep in cuts.values():
                assert Fraction(1, 4) / rep.phi <= tmix
        if multi and cuts and tmix is not None:
            checked += 1
    assert checked >= 10
    assert time.monotonic() - start < 300


def test_c6_structure_invariants(suite, suite_spaces):
    for name, g in suite.items():
        space = suite_spaces[name]
        c_g = len(clique_tree(g).cliques)
        for i, a in enumerate(Amo(g, key) for key in space.keys):
            s = a.source()  # unique source: raises if not exactly one
            dist = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in g.adj[v]:
                        if w not in dist:
                            dist[w] = dist[v] + 1
                            nxt.append(w)
                frontier = nxt
            for u, v in a.arcs:
                assert dist[u] <= dist[v]
            m_v = space.nonfollower_masks[i].bit_count()
            assert space.degree(i) == g.n - c_g + m_v - 1
    for name in TREE_NAMES:
        g = suite[name]
        space = suite_spaces[name]
        assert space.size == g.n
        src = {i: Amo(g, key).source() for i, key in enumerate(space.keys)}
        assert sorted(src.values()) == list(range(g.n))
        for i in range(space.size):
            image = {src[j] for j in space.flip_table[i] if j != i}
            assert image == set(g.adj[src[i]])


def test_c7_essential_graph_oracle_equivalence():
    dags4 = enumerate_dags(4)
    assert len(dags4) == 543
    for d in dags4:
        assert essential_graph_of_dag(d) == essential_graph_by_intersection(d)
        p = Pdag(d.n, d.arcs, [])
        for arc in d.arcs:
            assert protected_directed_only(d, arc) == is_strongly_protected(
                p, arc
            )
    assert len(enumerate_essential_graphs(3)) == 11
    assert len(enumerate_essential_graphs(4)) == 185


def test_c8_hjy_chain():
    states3 = enumerate_essential_graphs(3)
    reached, K = kernel_fractions(exact_kernel(Pdag(3, [], [])))
    m = len(reached)
    assert m == 11
    assert {s.key() for s in reached} == {s.key() for s in states3}
    for i in range(m):
        assert sum(K[i].values()) == Fraction(1)
        for j in range(m):  # a missing entry reads as 0
            assert K[i].get(j, 0) == K[j].get(i, 0)

    states4 = enumerate_essential_graphs(4)
    for s in states4:
        moves = emptying_sequence(s)  # raises on a rejected move
        assert len(moves) >= len(s.arcs) + len(s.lines)

    for states in (enumerate_essential_graphs(2), states3, states4):
        for e1, e2 in itertools.combinations(states, 2):
            if hamming_distance(e1, e2) == 1:
                assert 1 <= len(two_step_path(e1, e2)) <= 2


def test_c9_counterexample_family():
    for k in (1, 2, 3):
        eg1, eg2 = counterexample_family(k)
        assert eg1.n == eg2.n == 5 * k + 4
        for eg in (eg1, eg2):
            assert len(eg.arcs) + len(eg.lines) == 12 * k + 5
            assert is_essential_graph(eg)
        assert hamming_distance(eg1, eg2) == 2
        assert not is_essential_graph(counterexample_graph(k, True, True))
        assert not is_essential_graph(counterexample_graph(k, False, False))
    # no path of length <= 3: the depth-1 ball around one endpoint misses
    # the depth-2 ball around the other (meet in the middle)
    eg1, eg2 = counterexample_family(1)
    assert not set(reachable_within(eg1, 1)) & set(reachable_within(eg2, 2))
