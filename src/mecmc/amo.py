"""Acyclic v-configuration-free orientations (AMOs) of chordal graphs.

An AMO is an orientation of an undirected chordal graph that is acyclic and
has no collider a->c<-b with a, b nonadjacent.  The AMOs of a graph are in
bijection with the members of the Markov equivalence class sharing that
skeleton and no immoralities.  ``OrientationSpace`` materializes the flip
graph H_G whose vertices are AMOs and whose edges are single-edge reversals.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graphs import CapExceededError, edge_key, maximal_cliques, require_chordal

DEFAULT_STATE_CAP = 5_000_000


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


def enumerate_amos(g, cap=DEFAULT_STATE_CAP):
    """Canonical arc tuples (keys) of every AMO of a connected chordal graph,
    sorted; ``cap`` bounds their number, ``None`` for no bound."""
    require_chordal(g)
    if not g.is_connected():
        raise ValueError("enumerate_amos expects a connected graph")
    if cap is not None:
        total = count_amos(g)
        if total > cap:
            raise CapExceededError(f"|AMO| = {total} exceeds cap {cap}")
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    return sorted(tuple(sorted(arcs)) for arcs in _amo_arcsets(adj))


def peo_orientation(g):
    """Key of the canonical start state: each edge oriented toward the
    earlier-eliminated endpoint of the MCS perfect elimination ordering."""
    peo = require_chordal(g)
    pos = {v: i for i, v in enumerate(peo)}
    return tuple(sorted((u, v) if pos[u] > pos[v] else (v, u) for u, v in g.edges))


class OrientationSpace:
    """The flip graph H_G on all AMOs of a connected chordal graph.

    State i, in canonical order, is ``keys[i]`` (its sorted arc tuple) and
    ``parents[i]`` (one Python-int bitmask per vertex, bit u of entry v set
    for u->v; no limit on the vertex count).  ``flip_table[i, e]``, an
    N x |E| int64 array over the sorted edges, is the state reached by
    proposing edge e: the flip when e is covered, i itself otherwise.
    ``adjacency[i]`` lists the states one legal flip away; ``nonfollower_counts``
    gives M(v) in deg(v) = |G| - C(G) + M(v) - 1.  ``index`` maps keys to
    states.
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

    @property
    def size(self):
        return len(self.keys)

    def degree(self, i):
        return len(self.adjacency[i])


def build_orientation_space(g, cap=DEFAULT_STATE_CAP):
    keys = enumerate_amos(g, cap)
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
