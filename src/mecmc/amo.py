"""Acyclic v-configuration-free orientations (AMOs) of chordal graphs.

An AMO is an orientation of an undirected chordal graph that is acyclic and
has no collider a->c<-b with a, b nonadjacent.  The AMOs of a graph are in
bijection with the members of the Markov equivalence class sharing that
skeleton and no immoralities.  ``OrientationSpace`` materializes the flip
graph H_G whose vertices are AMOs and whose edges are single-edge reversals.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property

import numpy as np

from .graphs import (
    CapExceededError,
    UndirectedGraph,
    edge_key,
    is_acyclic,
    maximal_cliques,
    require_chordal,
)

DEFAULT_STATE_CAP = 5_000_000


class Amo:
    """One acyclic v-configuration-free orientation of a chordal base graph."""

    def __init__(self, graph, arcs):
        self.graph = graph
        arcs = frozenset(arcs)
        if {edge_key(u, v) for u, v in arcs} != graph.edges:
            raise ValueError("orientation must cover exactly the base edges")
        self.arcs = arcs
        par = [set() for _ in range(graph.n)]
        for u, v in arcs:
            par[v].add(u)
        self.parents = tuple(frozenset(s) for s in par)

    def key(self):
        return tuple(sorted(self.arcs))

    def source(self):
        """The unique vertex of in-degree zero (unique for connected bases)."""
        sources = [v for v in range(self.graph.n) if not self.parents[v]]
        if len(sources) != 1:
            raise ValueError(f"expected a unique source, found {sources}")
        return sources[0]

    def flip(self, edge):
        u, v = edge
        if (u, v) not in self.arcs:
            u, v = v, u
        if (u, v) not in self.arcs:
            raise ValueError(f"{edge} is not an edge of the orientation")
        return Amo(self.graph, (self.arcs - {(u, v)}) | {(v, u)})

    def __eq__(self, other):
        return (
            isinstance(other, Amo)
            and self.graph == other.graph
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.graph, self.arcs))

    def __repr__(self):
        return f"Amo({sorted(self.arcs)!r})"


def is_amo(g, arcs):
    """Check a candidate arc set: covers the edges, acyclic, no v-configuration."""
    arcs = set(arcs)
    if {edge_key(u, v) for u, v in arcs} != g.edges or len(arcs) != len(g.edges):
        return False
    if not is_acyclic(g.n, arcs):
        return False
    parents = [set() for _ in range(g.n)]
    for u, v in arcs:
        parents[v].add(u)
    for v in range(g.n):
        for a, b in itertools.combinations(sorted(parents[v]), 2):
            if not g.has_edge(a, b):
                return False
    return True


def _rooted_closure(adj, root):
    """Orient edges away from ``root`` and close under the forcing rules.

    Rule 1: x->y with line y-z and x, z nonadjacent forces y->z (otherwise a
    collider with nonadjacent parents appears at y).  Rule 2: x->y->z with
    line x-z forces x->z (otherwise a directed cycle).  Returns the forced
    arcs and the remaining undirected pairs.
    """
    arcs = {}
    und = set()
    for v, nb in adj.items():
        for w in nb:
            if v < w:
                und.add((v, w))
    for w in adj[root]:
        und.discard(edge_key(root, w))
        arcs[edge_key(root, w)] = (root, w)
    changed = True
    while changed:
        changed = False
        for pair in sorted(und):
            y, z = pair
            forced = None
            for x, h in list(arcs.values()):
                if h == y and z not in adj[x] and x != z:
                    forced = (y, z)
                elif h == z and y not in adj[x] and x != y:
                    forced = (z, y)
                elif h == y and x == z:
                    forced = (z, y)  # rule 2: z->y plus line y-z would cycle
                elif h == z and x == y:
                    forced = (y, z)
                if forced:
                    break
            if forced:
                und.discard(pair)
                arcs[pair] = forced
                changed = True
    return list(arcs.values()), und


def _pair_components(pairs):
    """Connected components of an edge set, as adjacency dicts."""
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = set()
    comps = []
    for s in sorted(adj):
        if s in seen:
            continue
        comp = {}
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            comp[x] = adj[x]
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _amo_arcsets(adj):
    """Yield the arc tuples of every AMO of a connected adjacency dict.

    Recursive source-peeling: each AMO has a unique source, fixing the source
    forces the closure arcs, and the leftover undirected components can be
    oriented independently.
    """
    if all(not nb for nb in adj.values()):
        yield ()
        return
    for root in sorted(adj):
        forced, und = _rooted_closure(adj, root)
        comps = _pair_components(und)
        for combo in itertools.product(*[list(_amo_arcsets(c)) for c in comps]):
            out = list(forced)
            for part in combo:
                out.extend(part)
            yield tuple(out)


def _amo_count(adj):
    if all(not nb for nb in adj.values()):
        return 1
    total = 0
    for root in sorted(adj):
        forced, und = _rooted_closure(adj, root)
        prod = 1
        for comp in _pair_components(und):
            prod *= _amo_count(comp)
        total += prod
    return total


def count_amos(g):
    """Number of AMOs of a chordal graph (product over connected components)."""
    require_chordal(g)
    total = 1
    for comp in g.connected_components():
        adj = {v: set(g.adj[v]) for v in comp}
        total *= _amo_count(adj)
    return total


def _amo_keys(g, cap):
    """Canonical arc tuples of every AMO of a connected chordal graph, sorted."""
    require_chordal(g)
    if not g.is_connected():
        raise ValueError("enumerate_amos expects a connected graph")
    if cap is not None:
        total = count_amos(g)
        if total > cap:
            raise CapExceededError(f"|AMO| = {total} exceeds cap {cap}")
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    return sorted(tuple(sorted(arcs)) for arcs in _amo_arcsets(adj))


def enumerate_amos(g, cap=DEFAULT_STATE_CAP):
    """All AMOs of a connected chordal graph, sorted by canonical key."""
    return [Amo(g, key) for key in _amo_keys(g, cap)]


def orient_from_source_sequence(g, seq):
    """Orient by repeatedly removing the named source.

    Each vertex in ``seq`` orients its still-undirected incident edges
    outward and leaves the graph.  The sequence is rejected when a removal
    would give some later vertex two nonadjacent already-removed neighbors,
    which is exactly when the construction stops describing an AMO.
    """
    if sorted(seq) != list(range(g.n)):
        raise ValueError("sequence must be a permutation of the vertices")
    removed = [set() for _ in range(g.n)]  # earlier neighbors per vertex
    arcs = []
    gone = set()
    for v in seq:
        for a, b in itertools.combinations(sorted(removed[v]), 2):
            if not g.has_edge(a, b):
                raise ValueError(
                    f"vertex {v} is not a valid source: earlier neighbors "
                    f"{a} and {b} are nonadjacent"
                )
        gone.add(v)
        for w in g.adj[v]:
            if w not in gone:
                arcs.append((v, w))
                removed[w].add(v)
    return Amo(g, arcs)


def peo_orientation(g):
    """The canonical start state: orient each edge toward the earlier-eliminated
    endpoint of the MCS perfect elimination ordering."""
    peo = require_chordal(g)
    pos = {v: i for i, v in enumerate(peo)}
    return Amo(g, ((u, v) if pos[u] > pos[v] else (v, u) for u, v in g.edges))


def flip_candidates(a):
    """Edges whose reversal is again an AMO.

    An arc u->v can be reversed exactly when it is covered:
    parents(u) == parents(v) - {u}.
    """
    out = []
    for u, v in a.arcs:
        if a.parents[u] == a.parents[v] - {u}:
            out.append(edge_key(u, v))
    return sorted(out)


def non_follower_cliques(a, cliques):
    """Indices of cliques receiving no arc from outside themselves."""
    out = []
    for i, t in enumerate(cliques):
        if all(a.parents[w] <= t for w in t):
            out.append(i)
    return frozenset(out)


class OrientationSpace:
    """The flip graph H_G on all AMOs of a connected chordal graph.

    State i, in canonical order, is ``keys[i]`` (its sorted arc tuple) and
    ``parents[i]`` (one Python-int bitmask per vertex, bit u of entry v set
    for u->v; no limit on the vertex count).  ``flip_table[i, e]``, an
    N x |E| int64 array over the sorted edges, is the state reached by
    proposing edge e: the flip when e is covered, i itself otherwise.
    ``adjacency[i]`` lists the states one legal flip away; ``nonfollower_counts``
    gives M(v) in deg(v) = |G| - C(G) + M(v) - 1.  ``index`` maps keys to
    states; ``states``, the ``Amo`` objects, are built only on first access.
    """

    def __init__(self, graph, keys, parents, flip_rows, cliques, nonfollower_sets):
        self.graph = graph
        self.keys = keys
        self.parents = parents
        self.flip_table = np.array(flip_rows, dtype=np.int64)
        self.adjacency = [
            sorted(j for j in row if j != i) for i, row in enumerate(flip_rows)
        ]
        self.cliques = cliques
        self.nonfollower_sets = nonfollower_sets
        self.nonfollower_counts = [len(s) for s in nonfollower_sets]
        self.index = {key: i for i, key in enumerate(keys)}

    @cached_property
    def states(self):
        return [Amo(self.graph, key) for key in self.keys]

    @property
    def size(self):
        return len(self.keys)

    def degree(self, i):
        return len(self.adjacency[i])

    def to_json(self):
        """Adjacency-list export for external spectrum tooling."""
        payload = {
            "n": self.graph.n,
            "edges": sorted(map(list, self.graph.edges)),
            "states": [[list(arc) for arc in key] for key in self.keys],
            "adjacency": [list(nbrs) for nbrs in self.adjacency],
        }
        return json.dumps(payload, sort_keys=True)


def build_orientation_space(g, cap=DEFAULT_STATE_CAP):
    keys = _amo_keys(g, cap)
    parents = []
    for key in keys:
        par = [0] * g.n
        for u, v in key:
            par[v] |= 1 << u
        parents.append(tuple(par))
    lookup = {par: i for i, par in enumerate(parents)}
    edges = sorted(g.edges)
    flip_rows = []
    for i, par in enumerate(parents):
        row = []
        for u, v in edges:
            a, b = (u, v) if par[v] >> u & 1 else (v, u)
            # a->b is covered, so reversible, when parents(a) = parents(b) - {a}
            if par[a] == par[b] & ~(1 << a):
                flipped = list(par)
                flipped[a], flipped[b] = par[a] | 1 << b, par[a]
                row.append(lookup[tuple(flipped)])
            else:
                row.append(i)
        flip_rows.append(row)
    cliques = maximal_cliques(g)
    members = [(k, t, sum(1 << w for w in t)) for k, t in enumerate(cliques)]
    nonfollowers = [
        frozenset(k for k, t, mask in members if all(par[w] & ~mask == 0 for w in t))
        for par in parents
    ]
    return OrientationSpace(g, keys, parents, flip_rows, cliques, nonfollowers)
