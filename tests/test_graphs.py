import itertools
import tracemalloc
from math import factorial

import pytest
from hypothesis import given, settings

from mecmc.graphs import (
    Dag,
    NotChordalError,
    Pdag,
    UndirectedGraph,
    bfs,
    clique_tree,
    complete_graph,
    find_chordless_cycle,
    format_pdag,
    glued_clique_chain,
    has_partially_directed_cycle,
    immoralities,
    is_acyclic,
    is_chordal,
    maximal_cliques,
    maximum_cardinality_search,
    parse_dag,
    parse_graph_text,
    parse_pdag,
    parse_undirected,
    path_graph,
    perfect_elimination_ordering,
    require_chordal,
    star_graph,
)
from oracles import maximal_cliques_by_inclusion, maximum_cardinality_search_by_scan
from strategies import chordal_graphs, small_dags, small_graphs


def brute_chordal(g):
    """No induced cycle of length >= 4: check every vertex subset."""
    for size in range(4, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            degs = {
                v: sum(1 for w in sub if w != v and g.has_edge(v, w))
                for v in sub
            }
            if any(d != 2 for d in degs.values()):
                continue
            # connected 2-regular induced subgraph = chordless cycle
            seen = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                v = frontier.pop()
                for w in sub:
                    if w not in seen and g.has_edge(v, w):
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == size:
                return False
    return True


def test_undirected_validation():
    with pytest.raises(ValueError):
        UndirectedGraph(3, {(1, 1)})
    with pytest.raises(ValueError):
        UndirectedGraph(2, {(0, 2)})
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        UndirectedGraph(-1)
    g = UndirectedGraph(3, {(0, 1), (1, 0)})
    assert g.num_edges == 1
    # an undirected graph is a Pdag without arcs, equal to and hashing like
    # the Pdag with the same lines
    p = Pdag(3, (), {(0, 1)})
    assert isinstance(g, Pdag) and g.arcs == frozenset()
    assert g == p and p == g and hash(g) == hash(p)
    assert g != Pdag(3, {(0, 1)})
    assert repr(g) == "UndirectedGraph(n=3, arcs=[], lines=[(0, 1)])"


def test_is_acyclic_examples():
    assert is_acyclic(3, set())
    assert not is_acyclic(3, {(0, 1), (1, 2), (2, 0)})
    assert is_acyclic(3, {(0, 1), (0, 2), (1, 2)})


def test_dag_validation():
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        Dag(-2, [])
    with pytest.raises(ValueError, match="^arc set contains a directed cycle$"):
        Dag(3, {(0, 1), (1, 2), (2, 0)})
    with pytest.raises(ValueError, match="^arcs in both directions between 1 and 0$"):
        Dag(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="^self-loop at 1$"):
        Dag(2, [(1, 1)])
    with pytest.raises(ValueError, match="^vertex 2 out of range for n=2$"):
        Dag(2, [(0, 2)])
    d = Dag(3, {(0, 1), (0, 2), (1, 2)})
    order = d.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in d.arcs)
    # a DAG is a Pdag without lines, equal to and hashing like the Pdag
    p = Pdag(3, {(0, 1), (0, 2), (1, 2)})
    assert isinstance(d, Pdag) and d.lines == frozenset()
    assert d == p and p == d and hash(d) == hash(p)
    assert d != Pdag(3, {(0, 1), (0, 2)}, {(1, 2)})
    assert repr(d) == "Dag(n=3, arcs=[(0, 1), (0, 2), (1, 2)], lines=[])"


@pytest.mark.parametrize(
    "cls, tables",
    [
        (UndirectedGraph, ("adj", "parents", "children", "undirected_neighbors")),
        (Pdag, ("parents", "children", "undirected_neighbors")),
        (Dag, ("parents", "children", "undirected_neighbors")),
    ],
    ids=["UndirectedGraph", "Pdag", "Dag"],
)
def test_isolated_vertices_share_one_empty_set(cls, tables):
    graph = cls(100_000)
    for name in tables:
        table = getattr(graph, name)
        assert len(table) == 100_000
        assert len({id(s) for s in table}) == 1
        assert table[0] == frozenset()


def test_edgeless_dag_parse_peak_memory():
    # per-vertex tables are filled only for vertices with edges; an edgeless
    # header holds three shared-empty tuples and peaked at 200 MB when every
    # vertex got its own empty set first
    tracemalloc.start()
    d = parse_dag("n 300000")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert d.n == 300_000 and not d.arcs
    assert peak < 50_000_000


def test_pdag_validation():
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        Pdag(-1)
    with pytest.raises(ValueError):
        Pdag(3, {(0, 1)}, {(0, 1)})
    p = Pdag(3, {(0, 1)}, {(1, 2)})
    assert p.adjacent(0, 1) and p.adjacent(1, 2) and not p.adjacent(0, 2)


def test_skeleton_examples():
    assert Dag(2, {(0, 1)}).skeleton().edges == frozenset({(0, 1)})
    assert Dag(2, set()).skeleton().edges == frozenset()
    assert Dag(3, {(0, 2), (1, 2)}).skeleton().edges == frozenset(
        {(0, 2), (1, 2)}
    )


def test_immoralities_examples():
    assert immoralities(Dag(3, {(0, 2), (1, 2)})) == frozenset({(0, 1, 2)})
    assert immoralities(Dag(3, {(0, 2), (1, 2), (0, 1)})) == frozenset()
    assert immoralities(Dag(3, {(0, 1), (1, 2)})) == frozenset()


@given(small_dags())
@settings(max_examples=150, deadline=None)
def test_immoralities_match_triple_scan(d):
    brute = set()
    for a, b in itertools.combinations(range(d.n), 2):
        for c in range(d.n):
            if c in (a, b):
                continue
            if (
                (a, c) in d.arcs
                and (b, c) in d.arcs
                and (a, b) not in d.arcs
                and (b, a) not in d.arcs
            ):
                brute.add((a, b, c))
    assert immoralities(d) == frozenset(brute)


def test_is_chordal_examples():
    assert not is_chordal(UndirectedGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}))
    assert is_chordal(complete_graph(4))
    assert is_chordal(glued_clique_chain([3, 3], [2]))


def test_chordality_exhaustive_up_to_5():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
            g = UndirectedGraph(n, edges)
            assert is_chordal(g) == brute_chordal(g)


@given(small_graphs(max_n=7))
@settings(max_examples=200, deadline=None)
def test_chordality_matches_brute(g):
    assert is_chordal(g) == brute_chordal(g)


@given(small_graphs(max_n=8))
@settings(max_examples=200, deadline=None)
def test_search_order_matches_scan(g):
    assert maximum_cardinality_search(g) == maximum_cardinality_search_by_scan(g)


@given(small_graphs(max_n=7))
@settings(max_examples=200, deadline=None)
def test_chordless_cycle_witness(g):
    cycle = find_chordless_cycle(g)
    if cycle is None:
        assert is_chordal(g)
        return
    k = len(cycle)
    assert k >= 4
    assert len(set(cycle)) == k
    for i in range(k):
        assert g.has_edge(cycle[i], cycle[(i + 1) % k])
    for i, j in itertools.combinations(range(k), 2):
        if (j - i) % k not in (1, k - 1):
            assert not g.has_edge(cycle[i], cycle[j])


# exact witnesses: each starts at the first vertex failing the elimination
# test on the MCS order, then runs along the shortest path that tries
# neighbours in increasing order
PINNED_CYCLES = [
    (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)], [4, 3, 2, 1, 0]),
    (6, [(0, 3), (3, 5), (5, 1), (1, 4), (4, 2), (2, 0)], [5, 1, 4, 2, 0, 3]),
    (6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 3)], [5, 4, 2, 3]),
    (
        7,
        [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (4, 5), (5, 6), (6, 3), (3, 1)],
        [6, 5, 4, 2, 0, 3],
    ),
]


@pytest.mark.parametrize("n, edges, cycle", PINNED_CYCLES)
def test_chordless_cycle_witness_is_pinned(n, edges, cycle):
    assert find_chordless_cycle(UndirectedGraph(n, edges)) == cycle


def test_bfs_reaches_in_order_with_predecessors():
    g = UndirectedGraph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    prev = bfs(0, lambda v: sorted(g.adj[v]))
    assert list(prev.items()) == [(0, None), (1, 0), (2, 0), (3, 1), (4, 3)]
    assert bfs(5, g.adj.__getitem__) == {5: None}


def test_partially_directed_cycle_examples():
    assert has_partially_directed_cycle(Pdag(3, {(0, 1)}, {(1, 2), (0, 2)}))
    assert not has_partially_directed_cycle(
        Pdag(3, set(), {(0, 1), (1, 2), (0, 2)})
    )
    assert has_partially_directed_cycle(
        Pdag(3, {(0, 1), (1, 2), (2, 0)}, set())
    )


def test_maximal_cliques_examples():
    assert maximal_cliques(complete_graph(4)) == [frozenset(range(4))]
    assert maximal_cliques(path_graph(3)) == [
        frozenset({0, 1}),
        frozenset({1, 2}),
    ]
    two_k4 = maximal_cliques(glued_clique_chain([4, 4], [2]))
    assert len(two_k4) == 2 and all(len(c) == 4 for c in two_k4)


@given(chordal_graphs(max_n=7))
@settings(max_examples=150, deadline=None)
def test_maximal_cliques_properties(g):
    cliques = maximal_cliques(g)
    assert len(cliques) <= max(g.n, 1)
    covered = set()
    for c in cliques:
        for u, v in itertools.combinations(sorted(c), 2):
            assert g.has_edge(u, v)
            covered.add((u, v))
        # maximality: no vertex adjacent to the whole clique
        for v in range(g.n):
            if v not in c:
                assert not all(g.has_edge(v, w) for w in c)
    assert covered == set(g.edges)
    assert len(set(cliques)) == len(cliques)


@given(chordal_graphs(max_n=12))
@settings(max_examples=300, deadline=None)
def test_maximal_cliques_match_inclusion_filter(g):
    # disconnected graphs included
    assert maximal_cliques(g) == maximal_cliques_by_inclusion(g)


@given(chordal_graphs(max_n=8))
@settings(max_examples=150, deadline=None)
def test_perfect_elimination_ordering_valid(g):
    peo = perfect_elimination_ordering(g)
    assert sorted(peo) == list(range(g.n))
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        for u, w in itertools.combinations(later, 2):
            assert g.has_edge(u, w)


def test_peo_none_and_witness_on_non_chordal():
    c4 = UndirectedGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    assert perfect_elimination_ordering(c4) is None
    with pytest.raises(NotChordalError) as exc:
        require_chordal(c4)
    assert len(exc.value.cycle) == 4
    assert "chordless cycle" in str(exc.value)


def test_clique_tree_examples():
    ct = clique_tree(path_graph(3))
    assert len(ct.cliques) == 2
    assert ct.separator_sizes[next(iter(ct.edges))] == 1

    single = clique_tree(complete_graph(5))
    assert len(single.cliques) == 1 and not single.edges
    assert single.dilations == [1]

    two_k4 = clique_tree(glued_clique_chain([4, 4], [2]))
    assert len(two_k4.cliques) == 2
    assert list(two_k4.separator_sizes.values()) == [2]
    assert two_k4.dilations == [2, 2]


def _tree_path(edges, a, b):
    adj = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    prev = {a: None}
    frontier = [a]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = nxt
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


@given(chordal_graphs(min_n=2, max_n=8, connected=True))
@settings(max_examples=100, deadline=None)
def test_clique_tree_invariants(g):
    ct = clique_tree(g)
    k = len(ct.cliques)
    assert len(ct.edges) == k - 1
    for a, b in itertools.combinations(range(k), 2):
        common = ct.cliques[a] & ct.cliques[b]
        for mid in _tree_path(ct.edges, a, b):
            assert common <= ct.cliques[mid]
    # dilation re-derived from the path definition
    for i in range(k):
        prod = 1
        for j in range(k):
            if j == i:
                continue
            path = _tree_path(ct.edges, i, j)
            s_j = ct.cliques[path[-2]]
            prod *= factorial(len(ct.cliques[j] - s_j))
        assert ct.dilations[i] == prod


@given(chordal_graphs(max_n=9, connected=True))
@settings(max_examples=150, deadline=None)
def test_clique_tree_degree_and_diameter(g):
    ct = clique_tree(g)
    k = len(ct.cliques)
    paths = [_tree_path(ct.edges, a, b) for a in range(k) for b in range(k)]
    assert ct.diameter() == max(len(path) - 1 for path in paths)
    # a clique's tree neighbours are the second cliques on its paths
    assert ct.degree() == max(
        len({p[1] for p in paths if p[0] == a and len(p) > 1}) for a in range(k)
    )


def test_clique_tree_rejects_bad_input():
    with pytest.raises(NotChordalError):
        clique_tree(UndirectedGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}))
    with pytest.raises(ValueError):
        clique_tree(UndirectedGraph(4, {(0, 1), (2, 3)}))


def test_generators():
    assert complete_graph(5).num_edges == 10
    assert path_graph(5).num_edges == 4
    assert star_graph(5).num_edges == 4
    assert star_graph(5).adj[0] == frozenset({1, 2, 3, 4})
    g = glued_clique_chain([4, 4], [2])
    assert g.n == 6 and g.num_edges == 11


def test_parse_format_roundtrip_examples():
    text = "n 4\n# a comment\n0 -- 1\n2 -> 3\n"
    p = parse_pdag(text)
    assert p.lines == frozenset({(0, 1)}) and p.arcs == frozenset({(2, 3)})
    assert parse_pdag(format_pdag(p)) == p
    d = parse_dag("n 3\n0 -> 1\n1 -> 2\n")
    assert parse_dag(format_pdag(d)) == d
    g = parse_undirected("n 3\n0 -- 1\n")
    assert g.num_edges == 1


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_pdag("0 -- 1\n")
    with pytest.raises(ValueError):
        parse_pdag("n 3\n0 - 1\n")
    with pytest.raises(ValueError):
        parse_dag("n 3\n0 -- 1\n")
    with pytest.raises(ValueError):
        parse_undirected("n 3\n0 -> 1\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("n x\n", 1),
        ("n 3\n0 -> x\n", 2),
        ("# comment\nn 3\n\n1 -- x\n", 4),
        ("n 3\n1 -- 1\n", 2),
    ],
)
def test_parse_errors_name_the_line(text, lineno):
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        parse_graph_text(text)


@given(small_dags())
@settings(max_examples=100, deadline=None)
def test_format_parse_roundtrip_dags(d):
    assert parse_dag(format_pdag(d)) == d
