"""Hypothesis strategies shared across the test modules."""

import itertools

from hypothesis import strategies as st

from mecmc.graphs import Dag, Pdag, UndirectedGraph, maximal_cliques


@st.composite
def chordal_graphs(draw, min_n=1, max_n=7, connected=False):
    """Random chordal graph built by attaching each new vertex to a clique.

    The reverse vertex order is a perfect elimination ordering by
    construction, so every output is chordal; with ``connected`` each new
    vertex gets at least one neighbor.
    """
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        cliques = maximal_cliques(UndirectedGraph(v, edges))
        clique = sorted(draw(st.sampled_from(cliques)))
        low = 1 if connected else 0
        size = draw(st.integers(low, len(clique)))
        chosen = draw(st.permutations(clique))[:size]
        edges |= {(w, v) for w in chosen}
    return UndirectedGraph(n, edges)


@st.composite
def small_graphs(draw, min_n=1, max_n=6):
    """Arbitrary undirected graph from an edge-subset bitmask."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
    return UndirectedGraph(n, edges)


@st.composite
def small_dags(draw, min_n=1, max_n=6):
    """Random DAG: forward edges of a random order, from a bitmask."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    arcs = {
        (order[i], order[j])
        for k, (i, j) in enumerate(pairs)
        if mask >> k & 1
    }
    return Dag(n, arcs)


@st.composite
def small_pdags(draw, min_n=1, max_n=6):
    """Partially directed graph without a directed cycle: the first m pairs
    of a shuffled pair list, m uniform, each get a line or an arc from the
    earlier to the later vertex of a random order, so each pair gets
    nothing, a line or an arc either way, at any density."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    pairs = draw(st.permutations(list(itertools.combinations(range(n), 2))))
    m = draw(st.integers(0, len(pairs)))
    is_line = draw(st.integers(0, 2 ** m - 1))
    arcs, lines = [], []
    for k, (i, j) in enumerate(pairs[:m]):
        u, v = order[i], order[j]
        if is_line >> k & 1:
            lines.append((min(u, v), max(u, v)))
        else:
            arcs.append((u, v))
    return Pdag(n, arcs, lines)
