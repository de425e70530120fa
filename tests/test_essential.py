"""Tests for Markov equivalence and essential graphs."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecmc import essential
from mecmc.essential import (
    class_members,
    class_size,
    classification_sweep,
    enumerate_dags,
    enumerate_essential_graphs,
    essential_graph_of_dag,
    is_essential_graph,
    is_strongly_protected,
    mec_of_dag,
    protected_directed_only,
)
from mecmc.graphs import (
    Dag,
    NotChordalError,
    Pdag,
    edge_key,
    has_partially_directed_cycle,
    immoralities,
)
from mecmc.hjy import MaskState

from oracles import (
    essential_graph_by_fixed_point,
    essential_graph_by_intersection,
    markov_equivalent,
)
from strategies import small_dags, small_pdags

# Distinct essential graphs on n vertices, frozen from the exhaustive
# classification of all DAGs (equivalently the Pdag filter).
ESSENTIAL_COUNTS = {1: 1, 2: 2, 3: 11, 4: 185}
# Labeled DAG counts (Robinson's recurrence gives the same numbers).
DAG_COUNTS = {1: 1, 2: 3, 3: 25, 4: 543}


def test_markov_equivalent_examples():
    assert markov_equivalent(Dag(2, [(0, 1)]), Dag(2, [(1, 0)]))
    collider = Dag(3, [(0, 2), (1, 2)])
    chain = Dag(3, [(0, 2), (2, 1)])
    assert not markov_equivalent(collider, chain)
    assert markov_equivalent(collider, collider)
    assert not markov_equivalent(Dag(2, []), Dag(3, []))


def test_mec_of_dag_examples():
    assert len(mec_of_dag(Dag(2, [(0, 1)]))) == 2
    assert len(mec_of_dag(Dag(3, [(0, 2), (1, 2)]))) == 1
    k3 = Dag(3, [(0, 1), (0, 2), (1, 2)])
    assert len(mec_of_dag(k3)) == 6


def test_mec_members_are_equivalent():
    d = Dag(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
    members = mec_of_dag(d)
    assert d in members
    assert all(markov_equivalent(d, m) for m in members)
    assert len(set(members)) == len(members)


def test_essential_graph_examples():
    eg = essential_graph_of_dag(Dag(2, [(0, 1)]))
    assert eg.arcs == frozenset() and eg.lines == frozenset({(0, 1)})

    eg = essential_graph_of_dag(Dag(3, [(0, 2), (1, 2)]))
    assert eg.arcs == frozenset({(0, 2), (1, 2)}) and eg.lines == frozenset()

    k3 = Dag(3, [(0, 1), (0, 2), (1, 2)])
    eg = essential_graph_of_dag(k3)
    assert eg.arcs == frozenset()
    assert eg.lines == frozenset({(0, 1), (0, 2), (1, 2)})


def _check_protection_examples(is_protected):
    # (a) chain w->u->v with w, v nonadjacent
    chain = Pdag(3, [(0, 1), (1, 2)], [])
    assert is_protected(chain, (1, 2))
    # (b) collider u->v<-w with u, w nonadjacent
    collider = Pdag(3, [(0, 2), (1, 2)], [])
    assert is_protected(collider, (0, 2))
    # (c) u->w->v alongside u->v
    tri = Pdag(3, [(0, 1), (1, 2), (0, 2)], [])
    assert is_protected(tri, (0, 2))
    # (d) two undirected neighbors of u pointing at v, mutually nonadjacent
    wheel = Pdag(
        4, [(1, 3), (2, 3), (0, 3)], [(0, 1), (0, 2)]
    )
    assert is_protected(wheel, (0, 3))
    # isolated arc: no configuration
    assert not is_protected(Pdag(2, [(0, 1)], []), (0, 1))


def test_strong_protection_examples():
    _check_protection_examples(is_strongly_protected)
    with pytest.raises(ValueError):
        is_strongly_protected(Pdag(2, [(0, 1)], []), (1, 0))


def test_strong_protection_examples_on_masks():
    _check_protection_examples(lambda p, arc: MaskState(p)._protected(*arc))


def test_protected_directed_only_examples():
    collider = Dag(3, [(0, 2), (1, 2)])
    assert protected_directed_only(collider, (0, 2))
    assert not protected_directed_only(Dag(2, [(0, 1)]), (0, 1))
    with pytest.raises(ValueError):
        protected_directed_only(Dag(2, [(0, 1)]), (1, 0))


def test_protected_directed_only_agrees_with_configurations():
    # On all-directed graphs configuration (d) cannot fire, so the
    # parent-set test must match the full check arc by arc.
    for d in enumerate_dags(4):
        p = Pdag(d.n, d.arcs, [])
        for arc in d.arcs:
            assert protected_directed_only(d, arc) == is_strongly_protected(
                p, arc
            )


def test_is_essential_graph_examples():
    assert is_essential_graph(Pdag(3, [], []))
    assert is_essential_graph(Pdag(2, [], [(0, 1)]))
    # forbidden induced a -> b - c with a, c nonadjacent
    assert not is_essential_graph(Pdag(3, [(0, 1)], [(1, 2)]))
    # lone arc is not strongly protected
    assert not is_essential_graph(Pdag(2, [(0, 1)], []))
    # undirected part must be chordal
    assert not is_essential_graph(
        Pdag(4, [], [(0, 1), (1, 2), (2, 3), (0, 3)])
    )


def test_class_size_examples():
    assert class_size(Pdag(3, [(0, 2), (1, 2)], [])) == 1
    assert class_size(Pdag(3, [], [(0, 1), (0, 2), (1, 2)])) == 6
    assert class_size(Pdag(4, [], [(0, 1), (2, 3)])) == 4


@pytest.mark.parametrize(
    "count",
    [class_size, lambda p: list(class_members(p))],
    ids=["class_size", "class_members"],
)
def test_class_of_non_chordal_lines_names_the_true_cycle(count):
    # the lines 1-2-3-4-1 are relabelled 0..3 for the count; the error
    # names the vertices of the Pdag, not those labels
    with pytest.raises(NotChordalError) as info:
        count(Pdag(6, [], [(1, 2), (2, 3), (3, 4), (4, 1)]))
    assert sorted(info.value.cycle) == [1, 2, 3, 4]
    assert str(info.value).endswith("-".join(map(str, info.value.cycle)))


@settings(deadline=None, max_examples=150)
@given(small_dags(max_n=5))
def test_fixpoint_matches_intersection(d):
    assert essential_graph_of_dag(d) == essential_graph_by_intersection(d)


def test_fixpoint_matches_intersection_exhaustive():
    for n in (1, 2, 3, 4):
        for d in enumerate_dags(n):
            assert essential_graph_of_dag(d) == essential_graph_by_intersection(d)


@settings(deadline=None, max_examples=150)
@given(small_dags(max_n=12))
def test_worklist_matches_fixed_point(d):
    assert essential_graph_of_dag(d) == essential_graph_by_fixed_point(d)


def test_worklist_matches_fixed_point_exhaustive():
    dags = enumerate_dags(4)
    assert len(dags) == 543
    for d in dags:
        assert essential_graph_of_dag(d) == essential_graph_by_fixed_point(d)


def test_labelling_matches_fixed_point_on_every_dag_on_five_vertices():
    dags = enumerate_dags(5)
    assert len(dags) == 29_281
    for d in dags:
        assert essential_graph_of_dag(d) == essential_graph_by_fixed_point(d)


def test_labelling_runs_no_protection_test(monkeypatch):
    # the labelling reads parent sets only; on a directed path, running up
    # or down the labels, every arc becomes a line
    def called(p, arc):
        raise AssertionError(f"protection tested at {arc}")

    monkeypatch.setattr(essential, "is_strongly_protected", called)
    n = 2000
    for arcs in ([(i, i + 1) for i in range(n - 1)], [(i + 1, i) for i in range(n - 1)]):
        eg = essential_graph_of_dag(Dag(n, arcs))
        assert eg.arcs == frozenset()
        assert eg.lines == {(i, i + 1) for i in range(n - 1)}


def test_essential_graph_respects_equivalence():
    # d1 ~ d2 iff they map to the same essential graph; checking that the
    # (skeleton, immoralities) signature and the essential-graph key induce
    # the same partition of all DAGs covers every pair at once.
    for n in (2, 3, 4):
        by_signature = {}
        for d in enumerate_dags(n):
            sig = (d.skeleton().edges, immoralities(d))
            by_signature.setdefault(sig, set()).add(
                essential_graph_of_dag(d).key()
            )
        keys = list(by_signature.values())
        assert all(len(ks) == 1 for ks in keys)
        distinct = {next(iter(ks)) for ks in keys}
        assert len(distinct) == len(keys)


def _check_mask_protection(p):
    s = MaskState(p)
    for a, b in p.arcs:
        assert s._protected(a, b) == is_strongly_protected(p, (a, b))


def test_mask_protection_matches_set_test_exhaustive():
    # every Pdag on four vertices, the fewest on which configuration (d)
    # fits, with or without cycles: the chain's mask test and the set test
    # agree arc by arc
    pairs = list(itertools.combinations(range(4), 2))
    outcomes = set()
    for marks in itertools.product(range(4), repeat=len(pairs)):
        lines = [pair for pair, m in zip(pairs, marks) if m == 1]
        arcs = [(u, v) if m == 2 else (v, u) for (u, v), m in zip(pairs, marks) if m > 1]
        p = Pdag(4, arcs, lines)
        _check_mask_protection(p)
        outcomes.update(is_strongly_protected(p, arc) for arc in arcs)
    assert outcomes == {True, False}


@settings(deadline=None, max_examples=300)
@given(small_pdags(max_n=12))
def test_mask_protection_matches_set_test(p):
    _check_mask_protection(p)


@settings(deadline=None, max_examples=150)
@given(small_dags(min_n=2, max_n=12), st.data())
def test_mask_protection_matches_set_test_after_one_edit(d, data):
    # one pair of the essential graph of d gets another mark: nothing, a
    # line, or an arc either way
    eg = essential_graph_of_dag(d)
    u, v = data.draw(st.sampled_from(list(itertools.combinations(range(d.n), 2))))
    arcs, lines = eg.arcs - {(u, v), (v, u)}, eg.lines - {(u, v)}
    mark = data.draw(st.sampled_from(["none", "line", ">", "<"]))
    if mark == "line":
        lines |= {(u, v)}
    elif mark != "none":
        arcs |= {(u, v) if mark == ">" else (v, u)}
    _check_mask_protection(Pdag(d.n, arcs, lines))


def test_essential_graphs_pass_their_own_characterization():
    for d in enumerate_dags(4):
        assert is_essential_graph(essential_graph_of_dag(d))


def test_essential_graph_counts():
    for n, want in ESSENTIAL_COUNTS.items():
        egs = enumerate_essential_graphs(n)
        assert len(egs) == want
        # the filter and the classification sweep agree on the class count
        from_dags = {essential_graph_of_dag(d).key() for d in enumerate_dags(n)}
        assert {p.key() for p in egs} == from_dags


def test_dag_counts():
    for n, want in DAG_COUNTS.items():
        assert len(enumerate_dags(n)) == want


def test_class_sizes_partition_dags():
    for n in (3, 4):
        total = sum(class_size(p) for p in enumerate_essential_graphs(n))
        assert total == DAG_COUNTS[n]


def test_class_size_matches_brute_class():
    picks = [
        Dag(4, [(0, 1), (1, 2), (2, 3)]),
        Dag(4, [(0, 2), (1, 2), (2, 3)]),
        Dag(4, [(0, 1), (0, 2), (1, 2), (1, 3)]),
    ]
    for d in picks:
        assert class_size(essential_graph_of_dag(d)) == len(mec_of_dag(d))


def test_classification_sweep_shape():
    rows = classification_sweep(3)
    assert len(rows) == DAG_COUNTS[3]
    assert [r[0] for r in rows] == list(range(DAG_COUNTS[3]))
    ids = {r[1] for r in rows}
    assert ids == set(range(ESSENTIAL_COUNTS[3]))
    assert sum({r[1]: r[2] for r in rows}.values()) == DAG_COUNTS[3]


@settings(deadline=None, max_examples=100)
@given(small_dags(max_n=5))
def test_essential_graph_skeleton_preserved(d):
    eg = essential_graph_of_dag(d)
    kept = {edge_key(u, v) for u, v in eg.arcs} | set(eg.lines)
    assert kept == set(d.skeleton().edges)
    assert is_essential_graph(eg)


@settings(deadline=None, max_examples=60)
@given(small_dags(max_n=5))
def test_class_members_equal_brute_force_class(d):
    eg = essential_graph_of_dag(d)
    members = list(class_members(eg))
    assert len(members) == class_size(eg)
    assert set(members) == {tuple(sorted(m.arcs)) for m in mec_of_dag(d)}


def test_class_members_of_a_large_skeleton():
    # an out-tree has no immorality: one member per root, 2^29 orientations
    tree = Dag(30, [((v - 1) // 2, v) for v in range(1, 30)])
    members = list(class_members(essential_graph_of_dag(tree)))
    assert len(members) == 30
    assert len(set(members)) == 30
    assert tuple(sorted(tree.arcs)) in members


def test_class_members_cost_does_not_grow_with_isolated_vertices():
    # one K5 of lines among 200,000 vertices: the search runs on the five
    # vertices with lines, not on one 200,000-entry state per member
    spots = [3, 1_000, 50_000, 123_456, 199_999]
    big = Pdag(200_000, [(0, 7)], itertools.combinations(spots, 2))
    small = Pdag(5, (), itertools.combinations(range(5), 2))
    tracemalloc.start()
    members = list(class_members(big))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2_000_000
    relabel = [
        tuple(sorted([(0, 7)] + [(spots[u], spots[v]) for u, v in key]))
        for key in class_members(small)
    ]
    assert members == relabel
    assert len(set(members)) == 120
    # the count runs on the same five vertices
    tracemalloc.start()
    size = class_size(big)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert size == 120
    assert peak < 2_000_000


def test_essential_test_cost_does_not_grow_with_isolated_vertices():
    # a K5 of lines among 200,000 vertices, once with one line made an arc:
    # the partially directed cycle search visits only the five vertices
    spots = [3, 1_000, 50_000, 123_456, 199_999]
    lines = list(itertools.combinations(spots, 2))
    plain = Pdag(200_000, (), lines)
    cyclic = Pdag(200_000, [(3, 1_000)], lines[1:])
    tracemalloc.start()
    answers = [
        is_essential_graph(plain),
        has_partially_directed_cycle(plain),
        has_partially_directed_cycle(cyclic),
        is_essential_graph(cyclic),
    ]
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert answers == [True, False, True, False]
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "n, arcs, bounds",
    [
        (50_000, [(i, i + 1) for i in range(49_999)], (100_000_000, 50_000_000)),
        (40_000, [(2 * i, 2 * i + 1) for i in range(20_000)], (75_000_000, 35_000_000)),
    ],
    ids=["path", "matching"],
)
def test_essential_graph_memory_follows_the_edges(n, arcs, bounds):
    # a long directed path and a matching: the build and the check peak near
    # 48 and 37 MB on the path, 37 and 27 MB on the matching, where Python-int
    # masks over the vertex labels grow with n^2 (515 and 347 MB on the path)
    d = Dag(n, arcs)
    tracemalloc.start()
    eg = essential_graph_of_dag(d)
    built = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracemalloc.start()
    essential = is_essential_graph(eg)
    checked = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert essential and not eg.arcs and len(eg.lines) == len(arcs)
    assert built < bounds[0] and checked < bounds[1]
