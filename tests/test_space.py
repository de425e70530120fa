"""The array-backed OrientationSpace against a per-Amo reference build."""

from hypothesis import given, settings

from conftest import SUITE
from mecmc.amo import build_orientation_space, enumerate_amos, peo_orientation
from mecmc.graphs import maximal_cliques, path_graph
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
    # bit 69 of a parent mask is set where 69 is the source and parent of 68
    assert any((69, 68) in key for key in space.keys)
    # the source's one or two out-arcs are the only covered edges
    assert sum(space.degree(i) for i in range(space.size)) == 2 * 69
    assert_matches_oracle(g, space)
