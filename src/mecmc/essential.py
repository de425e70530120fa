"""Markov equivalence and essential graphs (CPDAGs).

Two DAGs are Markov equivalent iff they share skeleton and immoralities.
The essential graph of a class keeps an arc exactly where every member
orients the edge the same way.  A partially directed graph is an essential
graph iff it has no partially directed cycle, its undirected part is chordal,
no induced subgraph a -> b - c has a, c nonadjacent, and every arc is
strongly protected (Andersson, Madigan & Perlman 1997).  The essential
graph of a DAG comes from Chickering's labelling of its compelled arcs in
one pass, with no protection test.  Protection is tested here, for
``is_essential_graph``, on per-vertex sets, whose size follows the edges;
``hjy.MaskState._protected`` is the same test on the chain's bitmasks,
which are as wide as the largest vertex label, so on a long path they
would take memory quadratic in its length.
"""

from __future__ import annotations

import itertools

from . import amo as amo_mod
from .graphs import (
    CapExceededError,
    Dag,
    NotChordalError,
    Pdag,
    _kahn_order,
    has_partially_directed_cycle,
    immoralities,
    is_acyclic,
    is_chordal,
)

MEC_ENUM_CAP = 1 << 22


def mec_of_dag(d):
    """All DAGs Markov equivalent to ``d``, by brute-force reorientation.

    Enumerates the 2^m orientations of the skeleton and keeps the acyclic
    ones with the same immoralities.  This is the reference oracle; use
    ``class_size`` for counting and ``class_members`` for listing.
    """
    edges = sorted(d.skeleton().edges)
    if 2 ** len(edges) > MEC_ENUM_CAP:
        raise CapExceededError(f"2^{len(edges)} orientations exceed cap {MEC_ENUM_CAP}")
    target = immoralities(d)
    out = []
    for bits in itertools.product((0, 1), repeat=len(edges)):
        arcs = [(u, v) if b else (v, u) for (u, v), b in zip(edges, bits)]
        if not is_acyclic(d.n, arcs):
            continue
        cand = Dag(d.n, arcs)
        if immoralities(cand) == target:
            out.append(cand)
    return out


def is_strongly_protected(p, arc):
    """Whether the arc u->v sits in one of the four protecting configurations:

    (a) w->u->v with w, v nonadjacent;
    (b) u->v<-w with u, w nonadjacent;
    (c) some w with u->w->v alongside u->v;
    (d) undirected neighbors w1-u, w2-u with w1->v, w2->v, w1, w2 nonadjacent.
    """
    u, v = arc
    if (u, v) not in p.arcs:
        raise ValueError(f"{arc} is not an arc of the graph")
    for w in p.parents[u]:
        if w != v and not p.adjacent(w, v):
            return True  # (a)
    for w in p.parents[v]:
        if w != u and not p.adjacent(w, u):
            return True  # (b)
    for w in p.children[u]:
        if w != v and (w, v) in p.arcs:
            return True  # (c)
    candidates = [
        w for w in p.undirected_neighbors[u] if (w, v) in p.arcs
    ]
    for w1, w2 in itertools.combinations(sorted(candidates), 2):
        if not p.adjacent(w1, w2):
            return True  # (d)
    return False


def protected_directed_only(d, arc):
    """Parent-set test for fully directed graphs: u->v is protected iff
    parents(u) != parents(v) - {u}."""
    u, v = arc
    if (u, v) not in d.arcs:
        raise ValueError(f"{arc} is not an arc of the graph")
    return d.parents[u] != d.parents[v] - {u}


def essential_graph_of_dag(d):
    """Essential graph by Chickering's compelled-arc labelling (UAI 1995).

    Visits the vertices with arcs in a topological order, so every arc into
    a vertex's parents is labelled before its own.  At a vertex y with
    parents, let x be the last of them in that order.  If some compelled
    w->x has w not a parent of y, or some other parent of y is not a parent
    of x, every arc into y is compelled; otherwise exactly the arcs w->y
    with w->x compelled are.  Compelled arcs stay arcs, the rest become
    lines.  Only the vertices with arcs are relabelled and ordered, so the
    cost follows the arcs, not n.
    """
    verts = sorted({v for arc in d.arcs for v in arc})
    label = {v: i for i, v in enumerate(verts)}
    order = _kahn_order(len(verts), [(label[u], label[v]) for u, v in d.arcs])
    pos = {verts[i]: t for t, i in enumerate(order)}
    compelled = {}  # y -> the w with w->y compelled
    arcs, lines = [], []
    for y in pos:  # in topological order
        par = d.parents[y]
        if not par:
            continue
        x = max(par, key=pos.__getitem__)
        kept = compelled.get(x, frozenset())  # the w with w->x compelled
        if not kept <= par or not par - {x} <= d.parents[x]:
            kept = par
        compelled[y] = kept
        arcs.extend((w, y) for w in kept)
        lines.extend((w, y) for w in par - kept)
    return Pdag(d.n, arcs, lines)


def is_essential_graph(p):
    """The four-condition characterization of essential graphs."""
    if has_partially_directed_cycle(p):
        return False
    if not is_chordal(p.undirected_part()[1]):
        return False
    # no induced a -> b - c with a, c nonadjacent
    for a, b in p.arcs:
        for c in p.undirected_neighbors[b]:
            if c != a and not p.adjacent(a, c):
                return False
    return all(is_strongly_protected(p, arc) for arc in p.arcs)


def _original_cycle(verts, err):
    """``err``'s chordless cycle renamed from ``undirected_part``'s labels
    back to the vertices of the Pdag."""
    return NotChordalError([verts[v] for v in err.cycle])


def class_size(p):
    """Number of DAGs in the class of an essential graph: the product over
    undirected components of their AMO counts, over the vertices with
    lines."""
    verts, sub = p.undirected_part()
    try:
        return amo_mod.count_amos(sub)
    except NotChordalError as err:
        raise _original_cycle(verts, err) from None


def class_members(p):
    """Yield the sorted arc tuple (key) of every DAG in the class of the
    essential graph ``p``: its arcs plus one AMO of its lines, all found by
    one flip search over the vertices with lines, since covered-edge flips
    connect a whole class (Chickering, UAI 1995).  Yields ``class_size(p)``
    keys, so callers check that size first."""
    verts, sub = p.undirected_part()
    try:
        keys = amo_mod.enumerate_amos(sub, None)
    except NotChordalError as err:
        raise _original_cycle(verts, err) from None
    for key in keys:
        yield tuple(sorted(p.arcs.union((verts[u], verts[v]) for u, v in key)))


def enumerate_essential_graphs(n):
    """All essential graphs on n vertices, by filtering every Pdag.

    Each vertex pair independently carries nothing, a line, or an arc either
    way; 4^(n choose 2) candidates, so desk scale only.  This is the test
    oracle for ``hjy.exact_kernel``, whose search from the empty graph finds
    the same states.
    """
    pairs = list(itertools.combinations(range(n), 2))
    if 4 ** len(pairs) > MEC_ENUM_CAP:
        raise CapExceededError(f"4^{len(pairs)} candidates exceed cap {MEC_ENUM_CAP}")
    out = []
    for choice in itertools.product(range(4), repeat=len(pairs)):
        marks = list(zip(pairs, choice))
        arcs = [(u, v) if c == 2 else (v, u) for (u, v), c in marks if c > 1]
        cand = Pdag(n, arcs, [pair for pair, c in marks if c == 1])
        if is_acyclic(n, arcs) and is_essential_graph(cand):
            out.append(cand)
    out.sort(key=lambda p: p.key())
    return out


def enumerate_dags(n):
    """All labeled DAGs on n vertices (3^(n choose 2) candidates filtered)."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for choice in itertools.product(range(3), repeat=len(pairs)):
        arcs = [(u, v) if c == 1 else (v, u) for (u, v), c in zip(pairs, choice) if c]
        if is_acyclic(n, arcs):
            out.append(Dag(n, arcs))
    return out


def classification_sweep(n):
    """Rows (dag_id, essential_graph_id, class_size) over all DAGs on n vertices.

    DAGs are numbered in enumeration order; essential graphs are numbered by
    first appearance.
    """
    eg_ids = {}
    rows = []
    for dag_id, d in enumerate(enumerate_dags(n)):
        eg = essential_graph_of_dag(d)
        key = eg.key()
        if key not in eg_ids:
            eg_ids[key] = (len(eg_ids), class_size(eg))
        eg_id, size = eg_ids[key]
        rows.append((dag_id, eg_id, size))
    return rows
