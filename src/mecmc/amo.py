"""Acyclic v-configuration-free orientations (AMOs) of chordal graphs.

An AMO is an orientation of an undirected chordal graph that is acyclic and
has no collider a->c<-b with a, b nonadjacent.  The AMOs of a graph are in
bijection with the members of the Markov equivalence class sharing that
skeleton and no immoralities.  ``OrientationSpace`` materializes the flip
graph H_G whose vertices are AMOs and whose edges are single-edge reversals.
"""

from __future__ import annotations

from math import factorial, prod

import numpy as np

from .graphs import CapExceededError, bfs, maximal_cliques, require_chordal

DEFAULT_STATE_CAP = 5_000_000


def _rooted_components(adj, vertices, root):
    """Vertex sets of the line components left when the connected chordal
    graph ``adj`` induced on ``vertices`` is oriented with ``root`` as its
    only source (He, Jia & Yu, JMLR 2015).

    Every edge between breadth-first layers from ``root`` points away from
    ``root``.  Inside a layer, x->y with line y-z and x, z nonadjacent forces
    y->z (otherwise a collider with nonadjacent parents appears at y); a
    worklist propagates the rule.  The components are induced subgraphs.
    """
    # breadth-first layers; a layer is complete before its vertices are
    # scanned, so each scan sees its parents and its lines inside the layer
    depth = {root: 0}
    frontier = [root]
    lines, work = {}, []
    while frontier:
        nxt = []
        for v in frontier:
            d = depth[v]
            for w in adj[v]:
                if w not in vertices:
                    continue
                dw = depth.get(w)
                if dw is None:
                    depth[w] = d + 1
                    nxt.append(w)
                elif dw == d:
                    lines.setdefault(v, set()).add(w)
                elif dw < d:
                    work.append((w, v))
        frontier = nxt
    while work:
        x, y = work.pop()
        for z in [z for z in lines.get(y, ()) if z not in adj[x]]:
            lines[y].discard(z)
            lines[z].discard(y)
            work.append((y, z))
    comps, seen = [], set()
    for s in lines:
        if s not in seen and lines[s]:
            comps.append(frozenset(bfs(s, lines.__getitem__)))
            seen |= comps[-1]
    return comps


def count_amos(g):
    """Number of AMOs of a chordal graph: per connected component, the sum
    over roots of the product of the counts of the rooted line components,
    memoized by vertex set.  A clique K has |K|! AMOs and a tree T has |T|,
    one per root."""
    require_chordal(g)
    memo = {}

    def count(vertices):
        k = len(vertices)
        degrees = sum(len(g.adj[v] & vertices) for v in vertices)
        if degrees == k * (k - 1):
            return factorial(k)
        if degrees == 2 * (k - 1):
            return k
        if vertices not in memo:
            memo[vertices] = sum(
                prod(map(count, _rooted_components(g.adj, vertices, root)))
                for root in vertices
            )
        return memo[vertices]

    return prod(count(frozenset(comp)) for comp in g.connected_components())


def _peo_arcs(g, peo):
    """Each edge oriented toward its earlier-eliminated endpoint in ``peo``."""
    pos = {v: i for i, v in enumerate(peo)}
    return [(u, v) if pos[u] > pos[v] else (v, u) for u, v in g.edges]


def peo_orientation(g):
    """Key of the canonical start state: each edge oriented toward the
    earlier-eliminated endpoint of the MCS perfect elimination ordering."""
    return tuple(sorted(_peo_arcs(g, require_chordal(g))))


def _flip_search(g, cap):
    """Every AMO of a chordal graph and its flips, from one breadth-first
    search over covered-edge flips.

    Covered-edge reversals connect every pair of Markov equivalent DAGs
    (Chickering, UAI 1995), so the search from the PEO orientation reaches
    every AMO, whether the graph is connected or not.  A state is one
    Python-int parent bitmask per vertex, bit u of entry v set for u->v, with
    no limit on the vertex count.  Returns, in discovery order, the keys, the
    flip rows over the sorted edges (entry e of row i is the state reached by
    proposing edge e) and the parent masks.
    """
    peo = require_chordal(g)
    if cap is not None:
        total = count_amos(g)
        if total > cap:
            raise CapExceededError(f"|AMO| = {total} exceeds cap {cap}")
    edges = sorted(g.edges)
    start = [0] * g.n
    for u, v in _peo_arcs(g, peo):
        start[v] |= 1 << u
    states = [tuple(start)]
    index = {states[0]: 0}
    rows = []
    for i, par in enumerate(states):  # the loop reaches states appended below
        row = []
        for u, v in edges:
            a, b = (u, v) if par[v] >> u & 1 else (v, u)
            # a->b is covered, so reversible, when parents(a) = parents(b) - {a}
            if par[a] == par[b] & ~(1 << a):
                flipped = list(par)
                flipped[a], flipped[b] = par[a] | 1 << b, par[a]
                flipped = tuple(flipped)
                j = index.setdefault(flipped, len(states))
                if j == len(states):
                    states.append(flipped)
                row.append(j)
            else:
                row.append(i)
        rows.append(row)
    del index  # the search is done: free the lookup before building keys
    # one shared tuple per arc, tested in sorted order, so keys come out sorted
    arcs = sorted(edges + [(v, u) for u, v in edges])
    tests = [(arc, arc[1], 1 << arc[0]) for arc in arcs]
    keys = [tuple(arc for arc, b, bit in tests if par[b] & bit) for par in states]
    return keys, rows, states


def enumerate_amos(g, cap=DEFAULT_STATE_CAP):
    """Canonical arc tuples (keys) of every AMO of a chordal graph, sorted;
    ``cap`` bounds their number, ``None`` for no bound."""
    return sorted(_flip_search(g, cap)[0])


class OrientationSpace:
    """The flip graph H_G on all AMOs of a connected chordal graph.

    State i, in canonical order, is ``keys[i]``, its sorted arc tuple, and
    ``start`` is the index of the PEO orientation, where the search began.
    ``flip_table[i, e]``, an N x |E| int64 array over the sorted edges, is
    the state reached by proposing edge e: the flip when e is covered, i
    itself otherwise.  Bit k of ``nonfollower_masks[i]`` is set when clique
    k receives no arc from outside itself; their number is M(v) in
    deg(v) = |G| - C(G) + M(v) - 1.
    """

    def __init__(self, graph, keys, start, flip_table, cliques, nonfollower_masks):
        self.graph = graph
        self.keys = keys
        self.start = start
        self.flip_table = flip_table
        self.cliques = cliques
        self.nonfollower_masks = nonfollower_masks

    @property
    def size(self):
        return len(self.keys)

    def degree(self, i):
        """Number of states one legal flip away from state i."""
        return int(np.count_nonzero(self.flip_table[i] != i))


def build_orientation_space(g, cap=DEFAULT_STATE_CAP):
    if not g.is_connected():
        require_chordal(g)  # a chordless cycle is the more useful report
        raise ValueError("input graph must be connected")
    keys, rows, parents = _flip_search(g, cap)
    # canonical order is the sorted keys; the table is relabeled by rank
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    flip_table = rank[np.array(rows, dtype=np.int64)[order]]
    cliques = maximal_cliques(g)
    members = [(1 << k, t, sum(1 << w for w in t)) for k, t in enumerate(cliques)]
    nonfollowers = [
        sum(bit for bit, t, mask in members if all(par[w] & ~mask == 0 for w in t))
        for par in (parents[i] for i in order)
    ]
    keys = [keys[i] for i in order]
    start = int(rank[0])  # the search's first state is the PEO orientation
    return OrientationSpace(g, keys, start, flip_table, cliques, nonfollowers)
