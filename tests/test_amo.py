import itertools
from math import factorial

import pytest
from hypothesis import given, settings

from mecmc.amo import (
    build_orientation_space,
    count_amos,
    enumerate_amos,
    peo_orientation,
)
from mecmc.graphs import (
    CapExceededError,
    UndirectedGraph,
    clique_tree,
    complete_graph,
    glued_clique_chain,
    path_graph,
    star_graph,
)
from conftest import TREE_NAMES
from oracles import (
    Amo,
    count_amos_by_recursion,
    flip_candidates,
    is_amo,
    non_follower_cliques,
    orient_from_source_sequence,
)
from strategies import chordal_graphs


def amos(g):
    """The oracle objects of every AMO of ``g``, in canonical order."""
    return [Amo(g, key) for key in enumerate_amos(g)]


def brute_amos(g):
    """All orientations passing is_amo, by 2^|E| filtering."""
    edges = sorted(g.edges)
    out = set()
    for mask in range(2 ** len(edges)):
        arcs = frozenset(
            (u, v) if mask >> i & 1 else (v, u)
            for i, (u, v) in enumerate(edges)
        )
        if is_amo(g, arcs):
            out.add(arcs)
    return out


def test_is_amo_examples():
    p3 = path_graph(3)
    assert is_amo(p3, {(0, 1), (1, 2)})
    assert not is_amo(p3, {(0, 1), (2, 1)})
    assert not is_amo(complete_graph(3), {(0, 1), (1, 2), (2, 0)})


def test_non_chordal_graphs_have_no_amos():
    c4 = UndirectedGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    assert not brute_amos(c4)
    c5 = UndirectedGraph(5, {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})
    assert not brute_amos(c5)


def test_unique_source_examples():
    k3 = complete_graph(3)
    a = orient_from_source_sequence(k3, (2, 0, 1))
    assert a.source() == 2
    p = orient_from_source_sequence(path_graph(3), (0, 1, 2))
    assert p.source() == 0
    s = orient_from_source_sequence(star_graph(4), (0, 1, 2, 3))
    assert s.source() == 0


def test_orient_from_source_sequence_examples():
    k3 = complete_graph(3)
    a = orient_from_source_sequence(k3, (0, 1, 2))
    assert a.arcs == frozenset({(0, 1), (0, 2), (1, 2)})
    p = orient_from_source_sequence(path_graph(3), (1, 0, 2))
    assert p.arcs == frozenset({(1, 0), (1, 2)})


def test_orient_from_source_sequence_rejects_non_source():
    # after removing 0 from the path 0-1-2, vertex 2 is not a source of the
    # rest once 1 must point at it
    with pytest.raises(ValueError):
        orient_from_source_sequence(complete_graph(3), (0, 0, 1))
    with pytest.raises(ValueError):
        orient_from_source_sequence(star_graph(4), (1, 2, 0, 3))


def test_complete_graph_bijection_with_permutations():
    for n in (3, 4, 5):
        g = complete_graph(n)
        keys = enumerate_amos(g)
        assert len(keys) == factorial(n)
        for perm in itertools.permutations(range(n)):
            assert orient_from_source_sequence(g, perm).key() in keys


def test_flip_adjacency_on_k4_is_adjacent_transposition():
    g = complete_graph(4)
    space = build_orientation_space(g)

    def to_perm(a):
        order = sorted(range(4), key=lambda v: len(a.parents[v]))
        return tuple(order)

    states = [Amo(g, key) for key in space.keys]
    for i, a in enumerate(states):
        pa = to_perm(a)
        for j in {j for j in space.flip_table[i] if j != i}:
            pb = to_perm(states[j])
            diff = [k for k in range(4) if pa[k] != pb[k]]
            assert len(diff) == 2 and diff[1] == diff[0] + 1
            assert pa[diff[0]] == pb[diff[1]] and pa[diff[1]] == pb[diff[0]]


def test_enumerate_counts():
    assert len(enumerate_amos(complete_graph(3))) == 6
    assert len(enumerate_amos(glued_clique_chain([4, 4], [2]))) == 88
    assert count_amos(glued_clique_chain([4, 4], [2])) == 88


@given(chordal_graphs(min_n=1, max_n=5))
@settings(max_examples=80, deadline=None)
def test_enumeration_matches_bruteforce(g):
    found = enumerate_amos(g)
    keys = set(found)
    assert len(keys) == len(found)
    assert keys == {tuple(sorted(b)) for b in brute_amos(g)}
    assert count_amos(g) == len(found)


def assert_search_finds_every_amo(g):
    keys = enumerate_amos(g)
    assert len(keys) == count_amos(g)
    assert keys == sorted(set(keys))
    assert all(is_amo(g, key) for key in keys)


def test_search_finds_every_amo_on_suite(suite):
    for g in suite.values():
        assert_search_finds_every_amo(g)


@given(chordal_graphs(min_n=1, max_n=7))
@settings(max_examples=60, deadline=None)
def test_search_finds_every_amo(g):
    assert_search_finds_every_amo(g)


@given(chordal_graphs(min_n=1, max_n=9))
@settings(max_examples=150, deadline=None)
def test_count_matches_recursion(g):
    assert count_amos(g) == count_amos_by_recursion(g)


def test_count_matches_recursion_on_suite(suite):
    for g in suite.values():
        assert count_amos(g) == count_amos_by_recursion(g)


# the smallest graphs found where a count needs the forcing rule to chain
# inside a layer, and needs a forced line dropped from both endpoints
@pytest.mark.parametrize(
    "edges, count",
    [
        ([(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 5)], 18),
        ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)], 40),
    ],
)
def test_count_follows_forcing_inside_a_layer(edges, count):
    g = UndirectedGraph(6, edges)
    assert count_amos(g) == count_amos_by_recursion(g) == count


def test_count_exact_values():
    assert count_amos(complete_graph(20)) == factorial(20)
    assert count_amos(path_graph(1000)) == 1000
    glued = glued_clique_chain([6, 6], [4])
    assert count_amos(glued) == count_amos_by_recursion(glued) == 2784


@given(chordal_graphs(min_n=1, max_n=6))
@settings(max_examples=60, deadline=None)
def test_count_multiplies_over_components(g):
    total = count_amos(g)
    prod = 1
    for comp in g.connected_components():
        comp = sorted(comp)
        relabel = {v: i for i, v in enumerate(comp)}
        sub = UndirectedGraph(
            len(comp),
            {
                (relabel[u], relabel[v])
                for u, v in g.edges
                if u in relabel and v in relabel
            },
        )
        prod *= count_amos(sub)
    assert total == prod


def test_every_amo_has_unique_source(suite):
    for g in suite.values():
        for a in amos(g):
            sources = [v for v in range(g.n) if not a.parents[v]]
            assert sources == [a.source()]


def test_edges_orient_away_from_source(suite):
    for g in suite.values():
        for a in amos(g):
            s = a.source()
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
                if dist[u] < dist[v]:
                    assert (v, u) not in a.arcs


def test_flip_candidates_examples():
    k3 = complete_graph(3)
    a = orient_from_source_sequence(k3, (0, 1, 2))
    assert len(flip_candidates(a)) == 2
    # tree: flippable edges are exactly those at the source
    star = star_graph(5)
    b = orient_from_source_sequence(star, (2, 0, 1, 3, 4))
    assert flip_candidates(b) == [(0, 2)]


def test_flip_candidates_are_exactly_amo_preserving(suite):
    for name in ("k3", "path4", "two_k3_edge", "two_k4_share3"):
        g = suite[name]
        for a in amos(g):
            legal = set(flip_candidates(a))
            for u, v in sorted(g.edges):
                uu, vv = (u, v) if (u, v) in a.arcs else (v, u)
                flipped = frozenset(a.arcs - {(uu, vv)} | {(vv, uu)})
                assert ((u, v) in legal) == is_amo(g, flipped)


def test_degree_formula(suite, suite_spaces):
    # loop-free degree in the flip graph: |G| - C(G) + M(v) - 1 with |G| the
    # vertex count and C(G) the number of maximal cliques
    for name, g in suite.items():
        space = suite_spaces[name]
        c_g = len(clique_tree(g).cliques)
        degs = []
        for i in range(space.size):
            m_v = space.nonfollower_masks[i].bit_count()
            assert space.degree(i) == g.n - c_g + m_v - 1
            degs.append(space.degree(i))
        assert min(degs) == g.n - c_g


def test_trees_give_isomorphic_flip_graph(suite):
    for name in TREE_NAMES:
        g = suite[name]
        space = build_orientation_space(g)
        assert space.size == g.n
        src = {i: Amo(g, key).source() for i, key in enumerate(space.keys)}
        assert sorted(src.values()) == list(range(g.n))
        for i in range(space.size):
            image = {src[j] for j in space.flip_table[i] if j != i}
            assert image == set(g.adj[src[i]])


def test_non_follower_cliques_examples():
    k4 = complete_graph(4)
    ct = clique_tree(k4)
    a = Amo(k4, peo_orientation(k4))
    assert non_follower_cliques(a, ct.cliques) == frozenset({0})

    p3 = path_graph(3)
    ct3 = clique_tree(p3)
    chain = orient_from_source_sequence(p3, (0, 1, 2))
    nf = non_follower_cliques(chain, ct3.cliques)
    assert {tuple(sorted(ct3.cliques[i])) for i in nf} == {(0, 1)}


def test_gluing_face_size():
    space = build_orientation_space(glued_clique_chain([4, 4], [2]))
    face = [s for s in space.nonfollower_masks if s.bit_count() == 2]
    assert space.size == 88
    assert len(face) == 8


def test_peo_orientation_is_amo(suite):
    for g in suite.values():
        assert is_amo(g, peo_orientation(g))


def test_state_cap_enforced():
    with pytest.raises(CapExceededError):
        build_orientation_space(complete_graph(5), cap=100)
    with pytest.raises(CapExceededError):
        enumerate_amos(complete_graph(5), cap=100)
