"""Acyclic v-configuration-free orientations (AMOs) of chordal graphs.

An AMO is an orientation of an undirected chordal graph that is acyclic and
has no collider a->c<-b with a, b nonadjacent.  The AMOs of a graph are in
bijection with the members of the Markov equivalence class sharing that
skeleton and no immoralities.  ``OrientationSpace`` materializes the flip
graph H_G whose vertices are AMOs and whose edges are single-edge reversals.
"""

from __future__ import annotations

from functools import cached_property
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


def _capped_peo(g, cap):
    """A perfect elimination ordering of the chordal graph ``g``, once its
    AMO count is checked against ``cap`` (``None`` for no bound)."""
    peo = require_chordal(g)
    if cap is not None:
        total = count_amos(g)
        if total > cap:
            raise CapExceededError(f"|AMO| = {total} exceeds cap {cap}")
    return peo


def _flip_search(g, cap):
    """Keys of every AMO of a chordal graph, in discovery order, from one
    breadth-first search over covered-edge flips.

    Covered-edge reversals connect every pair of Markov equivalent DAGs
    (Chickering, UAI 1995), so the search from the PEO orientation reaches
    every AMO, whether the graph is connected or not.  A state is one
    Python-int parent bitmask per vertex, bit u of entry v set for u->v, with
    no limit on the vertex count.
    """
    start = [0] * g.n
    for u, v in _peo_arcs(g, _capped_peo(g, cap)):
        start[v] |= 1 << u
    states = [tuple(start)]
    seen = {states[0]}
    for par in states:  # the loop reaches states appended below
        for u, v in g.edges:
            a, b = (u, v) if par[v] >> u & 1 else (v, u)
            # a->b is covered, so reversible, when parents(a) = parents(b) - {a}
            if par[a] == par[b] & ~(1 << a):
                flipped = list(par)
                flipped[a], flipped[b] = par[a] | 1 << b, par[a]
                flipped = tuple(flipped)
                if flipped not in seen:
                    seen.add(flipped)
                    states.append(flipped)
    del seen  # the search is done: free the lookup before building keys
    # one shared tuple per arc, tested in sorted order, so keys come out sorted
    arcs = sorted(g.edges | {(v, u) for u, v in g.edges})
    tests = [(arc, arc[1], 1 << arc[0]) for arc in arcs]
    return [tuple(arc for arc, b, bit in tests if par[b] & bit) for par in states]


def enumerate_amos(g, cap=DEFAULT_STATE_CAP):
    """Canonical arc tuples (keys) of every AMO of a chordal graph, sorted;
    ``cap`` bounds their number, ``None`` for no bound.

    The Python search of ``_flip_search`` serves the small graphs this is
    called on (the line components of an essential graph, for ``mec``),
    where it is faster than the array search of ``build_orientation_space``.
    """
    return sorted(_flip_search(g, cap))


class OrientationSpace:
    """The flip graph H_G on all AMOs of a connected chordal graph.

    Row i of ``orientations``, an N x |E| uint8 array over the sorted edges,
    is state i: entry e is 1 when edge e points from its larger endpoint to
    its smaller one.  States are in canonical order, the order of their keys
    (sorted arc tuples), which is the lexicographic order of the rows.
    ``keys`` is built from the rows on first access; ``keys_of`` builds the
    keys of some states only.  ``start`` is the index of the PEO
    orientation, where the search began.  ``flip_table[i, e]``, a
    C-contiguous N x |E| int64 array, is the state reached by proposing edge
    e: the flip when e is covered, i itself otherwise.  ``nonfollowers[i,
    k]``, an N x |cliques| bool array, is set when clique k receives no arc
    from outside itself; ``nonfollower_masks[i]`` is row i as a Python-int
    bitmask, and its popcount is M(v) in deg(v) = |G| - C(G) + M(v) - 1.

    ``build_orientation_space`` fills it from one numpy search, for
    ``sample-amo`` and ``diagnose``; ``enumerate_amos`` keeps a Python
    search, which is faster on the small components that ``mec`` lists.
    """

    def __init__(self, graph, orientations, start, flip_table, cliques, nonfollowers):
        self.graph = graph
        self.orientations = orientations
        self.start = start
        self.flip_table = flip_table
        self.cliques = cliques
        self.nonfollowers = nonfollowers

    @property
    def size(self):
        return self.flip_table.shape[0]

    @cached_property
    def keys(self):
        return self.keys_of(np.arange(self.size))

    def keys_of(self, states):
        """The keys of the states at the indices ``states``, as a list."""
        edges = sorted(self.graph.edges)
        arcs = sorted(edges + [(v, u) for u, v in edges])
        rank = {arc: r for r, arc in enumerate(arcs)}
        # rank of each edge's arc for bits 0 and 1, in the smallest dtype
        arc_of = np.array(
            [[rank[u, v], rank[v, u]] for u, v in edges],
            dtype=np.min_scalar_type(len(arcs)),
        ).reshape(-1, 2)
        columns = np.arange(len(edges))
        # one shared tuple per arc, and rows ranked 65,536 entries at a time:
        # an N x |E| object array in between would raise the peak RSS of
        # sample-amo on K7 by about 1 MB, and so would a list of all ranks
        # at once on a star of 1,000 vertices by 30 MB
        arc = arcs.__getitem__
        step = 1 + (1 << 16) // max(len(edges), 1)
        keys = []
        for block in range(0, len(states), step):
            rows = self.orientations[states[block : block + step]]
            ranks = np.sort(arc_of[columns, rows], axis=1)
            keys.extend(tuple(map(arc, row)) for row in ranks.tolist())
        return keys

    @cached_property
    def nonfollower_masks(self):
        packed = np.packbits(self.nonfollowers, axis=1, bitorder="little")
        return [int.from_bytes(row, "little") for row in packed.tolist()]

    def degree(self, i):
        """Number of states one legal flip away from state i."""
        return int(np.count_nonzero(self.flip_table[i] != i))


def _by_depth(runs):
    """For each depth d, the runs longer than d and item d of each, as
    (runs, items) arrays: one vector operation per depth covers every item,
    however uneven the run lengths, in as many passes as the longest run.
    A pass over every run takes a slice, which adds in place."""
    lengths = np.array([len(run) for run in runs], dtype=np.intp)
    items = np.array([item for run in runs for item in run], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    passes = []
    for d in range(lengths.max(initial=0)):
        longer = lengths > d
        which = slice(None) if longer.all() else np.flatnonzero(longer)
        passes.append((which, items[starts[longer] + d].T))
    return passes


def _sorted_codes(rows):
    """The order that sorts the rows lexicographically, and the sorted rows'
    codes: each row's bits packed into 64-bit words, first column highest,
    so that the words compare as the rows do."""
    packed = np.packbits(rows, axis=1)
    # at least one word, so that a graph without edges has a code too
    words = np.zeros((len(rows), max(1, -(-packed.shape[1] // 8)) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    # read big-endian, held native: sorting the byte-swapped view instead
    # raised the peak RSS of flip-sample's commands by about 0.15 MB
    codes = words.view(">u8").astype(np.uint64)
    order = np.lexsort(codes.T[::-1])
    return order, codes[order]


def build_orientation_space(g, cap=DEFAULT_STATE_CAP):
    """The ``OrientationSpace`` of a connected chordal graph, from one
    breadth-first search over covered-edge flips on edge-orientation rows.

    Each state is one uint8 row over the sorted edges, and both tests read
    its in-degrees, each a sum of arc bits.  Edge u-v is covered,
    whichever way it points, when indeg(u) + indeg(v) - 1 is twice the
    number of common neighbours that point to both endpoints: that count
    is at most indeg(a) and at most indeg(b) - 1 for the arc a->b, with
    equality in both exactly when parents(b) = parents(a) + {a}.  Clique k
    is a non-follower when its in-degrees sum to |k|(|k| - 1)/2, its own
    arcs.  So each level of the search costs its rows times the edges plus
    the common-neighbour pairs, whatever the degrees.  A flip changes one
    bit, so the flip graph is bipartite and a covered flip from level L
    lands in level L - 1 or L + 1.  The flips into L - 1 are those that
    reached L, so the rest give level L + 1, deduplicated by sorting their
    packed codes.  Canonical order is the order of all codes, and the table
    is written once, in that order, from the recorded flips.
    """
    if not g.is_connected():
        require_chordal(g)  # a chordless cycle is the more useful report
        raise ValueError("input graph must be connected")
    peo = _capped_peo(g, cap)
    edges = sorted(g.edges)
    m, n = len(edges), g.n
    column = {edge: e for e, edge in enumerate(edges)}

    def arc(x, y):
        """(column, value) of the arc x->y."""
        return (column[x, y], 0) if x < y else (column[y, x], 1)

    # a row's entry e is 1 when edge e points to its smaller endpoint
    ends = np.array(edges, dtype=np.intp).reshape(m, 2)

    def arc_row(x, y):
        """Row of ``bits`` in ``tests``, a level's columns, then their
        complements, then a row of zeros, that is 1 where the arc x->y is."""
        e, p = arc(x, y)
        return e + m * (1 - p)

    # the arcs into each vertex, run after run, summed by one reduceat call
    # per level, since passes by depth would cost a hub its degree on every
    # level; the vertex of a one-vertex graph reads the zero row, so no run
    # is empty
    into = [[arc_row(u, v) for u in sorted(g.adj[v])] or [2 * m] for v in range(n)]
    into_starts = np.cumsum([0] + [len(run) for run in into[:-1]])
    into = np.array([row for run in into for row in run], dtype=np.intp)
    # for each common neighbour c of each edge u-v, the arcs c->u and c->v
    common = _by_depth(
        [
            [(arc_row(c, u), arc_row(c, v)) for c in sorted(g.adj[u] & g.adj[v])]
            for u, v in edges
        ]
    )
    cliques = maximal_cliques(g)
    inside = _by_depth([sorted(k) for k in cliques])
    own_arcs = np.array([len(k) * (len(k) - 1) // 2 for k in cliques])[:, None]

    def tests(level):
        """|E| x S covered edges and |cliques| x S non-followers of a level."""
        size = len(level)
        bits = np.zeros((2 * m + 1, size), dtype=np.uint8)
        bits[:m] = level.T
        np.bitwise_xor(bits[:m], 1, out=bits[m : 2 * m])
        indeg = np.add.reduceat(bits[into], into_starts, axis=0, dtype=np.int32)
        shared = np.zeros((m, size), dtype=np.int32)
        for run, (cu, cv) in common:
            shared[run] += bits[cu] & bits[cv]
        covered = indeg[ends[:, 0]] + indeg[ends[:, 1]] == 2 * shared + 1
        arcs_in = np.zeros((len(cliques), size), dtype=np.int32)
        for run, w in inside:
            arcs_in[run] += indeg[w]
        return covered, arcs_in == own_arcs

    level = np.zeros((1, m), dtype=np.uint8)
    for x, y in _peo_arcs(g, peo):
        e, bit = arc(x, y)
        level[0, e] = bit
    back = np.zeros((m, 1), dtype=bool)  # the flips that reached each state
    levels, followers, flips, base = [], [], [], 0
    while True:
        covered, nonfollowers = tests(level)
        levels.append(level)
        followers.append(nonfollowers)
        e, s = np.nonzero(covered & ~back)
        if not len(s):
            break
        reached = level[s]
        reached[np.arange(len(s)), e] ^= 1
        order, codes = _sorted_codes(reached)
        first = np.ones(len(order), dtype=bool)
        first[1:] = (codes[1:] != codes[:-1]).any(axis=1)
        child = np.empty(len(order), dtype=np.intp)
        child[order] = np.cumsum(first) - 1
        top = base + len(level)
        flips.append((base + s, e, top + child))
        level = reached[order[first]]
        back = np.zeros((m, len(level)), dtype=bool)
        back[e, child] = True
        base = top
    rows = np.concatenate(levels)
    del levels, level, back
    order = _sorted_codes(rows)[0]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    flip_table = np.empty((len(order), m), dtype=np.int64)
    flip_table[:] = np.arange(len(order))[:, None]
    for s, e, c in flips:
        flip_table[rank[s], e] = rank[c]
        flip_table[rank[c], e] = rank[s]
    orientations = rows[order]
    nonfollowers = np.concatenate(followers, axis=1).T[order]
    start = int(rank[0])  # the search's first state is the PEO orientation
    return OrientationSpace(g, orientations, start, flip_table, cliques, nonfollowers)
