"""The array-backed OrientationSpace against a per-Amo reference build."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import SUITE
from mecmc.amo import build_orientation_space, enumerate_amos, peo_orientation
from mecmc.graphs import (
    UndirectedGraph,
    complete_graph,
    glued_clique_chain,
    maximal_cliques,
    path_graph,
    star_graph,
)
from oracles import Amo, flip_candidates, non_follower_cliques
from strategies import chordal_graphs


def oracle_space(g):
    """Keys, flip table, adjacency and non-follower masks from Amo objects."""
    states = [Amo(g, key) for key in enumerate_amos(g)]
    index = {a.key(): i for i, a in enumerate(states)}
    table, adjacency = [], []
    for i, a in enumerate(states):
        moves = {e: index[a.flip(e).key()] for e in flip_candidates(a)}
        table.append([moves.get(e, i) for e in sorted(g.edges)])
        adjacency.append(sorted(moves.values()))
    cliques = maximal_cliques(g)
    nonfollowers = [
        sum(1 << k for k in non_follower_cliques(a, cliques)) for a in states
    ]
    return [a.key() for a in states], table, adjacency, nonfollowers


def assert_matches_oracle(g, space):
    keys, table, adjacency, nonfollowers = oracle_space(g)
    assert list(space.keys) == keys
    assert space.keys[space.start] == peo_orientation(g)
    # keys_of names any states, in the order asked
    assert space.keys_of(np.arange(space.size)[::-2]) == keys[::-2]
    assert space.keys_of(np.arange(0)) == []
    assert space.flip_table.shape == (len(keys), g.num_edges)
    # sample_many walks a ravel() view of the table, a copy unless contiguous
    assert space.flip_table.flags.c_contiguous
    assert space.flip_table.tolist() == table
    rows = enumerate(space.flip_table.tolist())
    assert [sorted(j for j in row if j != i) for i, row in rows] == adjacency
    assert space.nonfollower_masks == nonfollowers


def test_suite_spaces_match_oracle(suite_spaces):
    for name, g in SUITE.items():
        assert_matches_oracle(g, suite_spaces[name])


@settings(max_examples=40, deadline=None)
@given(chordal_graphs(min_n=1, max_n=6, connected=True))
def test_random_chordal_spaces_match_oracle(g):
    assert_matches_oracle(g, build_orientation_space(g))


def test_space_holds_no_state_objects():
    g = SUITE["two_k3_edge"]
    space = build_orientation_space(g)
    removed = ("parents", "adjacency", "index", "nonfollower_counts")
    for name in ("states", "nonfollower_sets") + removed:
        assert not hasattr(space, name)
    assert all(type(key) is tuple for key in space.keys)
    assert [Amo(g, key).key() for key in space.keys] == list(space.keys)


def test_path_beyond_64_vertices():
    g = path_graph(70)
    space = build_orientation_space(g)
    assert space.size == 70
    # the last edge, 68-69, points down where 69 is the source
    assert any((69, 68) in key for key in space.keys)
    # the source's one or two out-arcs are the only covered edges
    assert sum(space.degree(i) for i in range(space.size)) == 2 * 69
    assert_matches_oracle(g, space)


def flip_distances(space):
    """Flip distance from ``start`` to each state, by breadth-first search
    over the table."""
    dist = {space.start: 0}
    frontier = [space.start]
    for i in frontier:  # the loop reaches states appended below
        for j in space.flip_table[i].tolist():
            if j not in dist:
                dist[j] = dist[i] + 1
                frontier.append(j)
    return dist


@pytest.mark.parametrize(
    "g, size",
    [
        # a 35-vertex spine with one leg per spine vertex: 70 vertices and 69
        # edges; a tree has one AMO per root
        (
            UndirectedGraph(70, [(i, i + 1) for i in range(34)] + [(i, 35 + i) for i in range(35)]),
            70,
        ),
        # 33 triangles, each sharing an edge with the next: 67 edges, and
        # every inner edge has common neighbours, whose arc pairs span words
        (glued_clique_chain([3] * 33, [2] * 32), 134),
    ],
    ids=["caterpillar70", "triangle_strip67"],
)
def test_codes_spanning_two_words(g, size):
    assert g.num_edges > 64
    space = build_orientation_space(g)
    assert space.size == size
    assert_matches_oracle(g, space)


def test_one_vertex_and_one_edge():
    one = build_orientation_space(path_graph(1))
    assert one.keys == [()]
    assert (one.start, one.flip_table.shape, one.nonfollower_masks) == (0, (1, 0), [1])
    assert_matches_oracle(path_graph(1), one)
    edge = build_orientation_space(path_graph(2))
    assert edge.keys == [((0, 1),), ((1, 0),)]
    assert edge.flip_table.tolist() == [[1], [0]]
    assert_matches_oracle(path_graph(2), edge)


def test_long_path_searches_n_minus_1_levels():
    # the start is rooted at one end of the path, so the search runs n - 1
    # levels deep, one or two states each; 129 edges take three words
    n = 130
    space = build_orientation_space(path_graph(n))
    assert max(flip_distances(space).values()) == n - 1
    assert_matches_oracle(path_graph(n), space)


@settings(max_examples=60, deadline=None)
@given(chordal_graphs(min_n=1, max_n=8, connected=True))
def test_array_search_keys_equal_python_search(g):
    assert build_orientation_space(g).keys == enumerate_amos(g)


def test_fan_with_uneven_common_neighbours():
    # edge 0-1 has six common neighbours and every other edge one, plus a
    # path tail with none, so the common-neighbour counts run to uneven depths
    fan = [(0, 1)] + [(c, x) for c in range(2, 8) for x in (0, 1)]
    g = UndirectedGraph(11, fan + [(7, 8), (8, 9), (9, 10)])
    assert_matches_oracle(g, build_orientation_space(g))


def test_star_build_memory():
    # a hub of degree 999: the covered test costs each row its edges, not its
    # hub's degree per edge; the per-state Python search that this build
    # replaced peaked at 41.4 MB, keys included
    tracemalloc.start()
    space = build_orientation_space(star_graph(1000))
    assert len(space.keys) == 1000
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 41.4e6
    # one AMO per root: from the hub every edge is covered, from a leaf one
    table = space.flip_table
    degrees = (table != np.arange(len(table))[:, None]).sum(axis=1)
    assert sorted(degrees.tolist()) == [1] * 999 + [999]


def test_k8_build_memory():
    # 40,320 states: the per-state Python search that this build replaced
    # peaked at 48.5 MB, keys included
    tracemalloc.start()
    space = build_orientation_space(complete_graph(8))
    assert len(space.keys) == 40320
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 48.5e6
