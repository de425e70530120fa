"""Graph containers and the chordal-graph machinery shared across the package.

Vertices are integers 0..n-1 throughout.  Undirected edges are stored as
sorted pairs, arcs as ordered pairs.  All containers are immutable after
construction so they can be hashed and used as chain states.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field


class NotChordalError(ValueError):
    """Raised when an operation requires chordality; carries a witness cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        msg = "graph is not chordal; chordless cycle " + "-".join(map(str, self.cycle))
        super().__init__(msg)


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured state cap, or a vertex
    count the index-sized tables cannot hold."""


def _check_vertex(v, n):
    if not isinstance(v, int) or not 0 <= v < n:
        raise ValueError(f"vertex {v!r} out of range for n={n}")


_NONE = frozenset()  # the one empty set every vertex without neighbours shares


def _freeze(n, sets):
    """Per-vertex neighbour table over n vertices as a tuple of frozensets,
    from a mapping that holds only the vertices with neighbours; the others
    share the one empty set."""
    table = [_NONE] * n
    for v, s in sets.items():
        table[v] = frozenset(s)
    return tuple(table)


def bfs(start, neighbours):
    """Breadth-first search from ``start``: a dict of the vertices reached,
    in the order they were reached, each mapped to the vertex it was reached
    from (``None`` for ``start``).  ``neighbours(v)`` gives the vertices one
    step from v in the order they are tried."""
    prev = {start: None}
    order = [start]
    for v in order:  # the loop also visits the vertices appended below
        for w in neighbours(v):
            if w not in prev:
                prev[w] = v
                order.append(w)
    return prev


def edge_key(u, v):
    """Sorted vertex pair used as the canonical undirected edge."""
    if u == v:
        raise ValueError(f"self-loop at {u}")
    return (u, v) if u < v else (v, u)


class Pdag:
    """A partially directed graph: a set of arcs plus a set of lines.
    ``Dag`` (no lines) and ``UndirectedGraph`` (no arcs) are its subclasses."""

    def __init__(self, n, arcs=(), lines=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > sys.maxsize:
            raise CapExceededError(f"vertex count {n} exceeds {sys.maxsize}")
        self.n = n
        arc_set = set()
        for u, v in arcs:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if (v, u) in arc_set:
                raise ValueError(f"arcs in both directions between {u} and {v}")
            arc_set.add((u, v))
        line_set = set()
        for u, v in lines:
            _check_vertex(u, n)
            _check_vertex(v, n)
            line_set.add(edge_key(u, v))
        self.arcs = frozenset(arc_set)
        self.lines = frozenset(line_set)
        par, chi, und = defaultdict(set), defaultdict(set), defaultdict(set)
        for u, v in self.arcs:
            if edge_key(u, v) in self.lines:
                raise ValueError(f"pair {u},{v} is both an arc and a line")
            par[v].add(u)
            chi[u].add(v)
        for u, v in self.lines:
            und[u].add(v)
            und[v].add(u)
        self.parents = _freeze(n, par)
        self.children = _freeze(n, chi)
        self.undirected_neighbors = _freeze(n, und)

    def adjacent(self, u, v):
        return (
            edge_key(u, v) in self.lines or (u, v) in self.arcs or (v, u) in self.arcs
        )

    def skeleton(self):
        pairs = set(self.lines)
        pairs.update(edge_key(u, v) for u, v in self.arcs)
        return UndirectedGraph(self.n, pairs)

    def undirected_part(self):
        """``(verts, g)``: the lines as an ``UndirectedGraph`` ``g`` on the
        vertices that carry them, relabelled in increasing order, so vertex
        i of ``g`` is ``verts[i]``.  Vertices without lines stay out, so the
        cost follows the lines, not ``n``."""
        verts = sorted({v for line in self.lines for v in line})
        label = {v: i for i, v in enumerate(verts)}
        return verts, UndirectedGraph(
            len(verts), ((label[u], label[v]) for u, v in self.lines)
        )

    def key(self):
        """Canonical hashable form (sorted arcs, sorted lines)."""
        return (self.n, tuple(sorted(self.arcs)), tuple(sorted(self.lines)))

    def __eq__(self, other):
        return isinstance(other, Pdag) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.n}, arcs={sorted(self.arcs)!r}, "
            f"lines={sorted(self.lines)!r})"
        )


class UndirectedGraph(Pdag):
    """A simple undirected graph: a ``Pdag`` without arcs, whose ``edges`` are
    its lines and whose ``adj`` is its undirected-neighbour table.  It equals,
    and hashes like, the ``Pdag`` with the same lines."""

    def __init__(self, n, edges=()):
        super().__init__(n, (), edges)
        self.edges = self.lines
        self.adj = self.undirected_neighbors

    def has_edge(self, u, v):
        return u != v and edge_key(u, v) in self.edges

    def degree(self, v):
        return len(self.adj[v])

    @property
    def num_edges(self):
        return len(self.edges)

    def connected_components(self):
        """Vertex sets of the connected components, each sorted."""
        seen, out = set(), []
        for s in range(self.n):
            if s not in seen:
                comp = bfs(s, self.adj.__getitem__)
                seen.update(comp)
                out.append(sorted(comp))
        return out

    def is_connected(self):
        return self.n <= 1 or len(bfs(0, self.adj.__getitem__)) == self.n


class Dag(Pdag):
    """A directed acyclic graph: a ``Pdag`` without lines (Andersson, Madigan
    & Perlman, 1997) whose construction also rejects directed cycles.  It
    equals, and hashes like, the ``Pdag`` with the same arcs."""

    def __init__(self, n, arcs=()):
        super().__init__(n, arcs)
        if not is_acyclic(n, self.arcs):
            raise ValueError("arc set contains a directed cycle")

    def topological_order(self):
        return _kahn_order(self.n, self.arcs)


def _kahn_order(n, arcs):
    """Kahn's algorithm: the vertices in an order that puts every arc's tail
    before its head, leaving out every vertex that a directed cycle reaches."""
    indeg = [0] * n
    children = {}
    for u, v in arcs:
        indeg[v] += 1
        children.setdefault(u, []).append(v)
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:  # the loop also visits the vertices appended below
        for w in children.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order


def is_acyclic(n, arcs):
    return len(_kahn_order(n, arcs)) == n


def immoralities(d):
    """Triples (a, b, c) with a->c<-b, a < b, and a, b nonadjacent."""
    out = set()
    for c in range(d.n):
        for a, b in itertools.combinations(sorted(d.parents[c]), 2):
            if not d.adjacent(a, b):
                out.add((a, b, c))
    return frozenset(out)


def maximum_cardinality_search(g):
    """MCS visit order; its reverse is a perfect elimination ordering iff chordal.

    Each step visits an unvisited vertex with the most visited neighbors, the
    smallest on ties, from a heap of (-weight, vertex) entries.  Weights only
    grow, so a vertex's newest entry pops before its stale ones, which are
    skipped as visited.
    """
    weight = [0] * g.n
    visited = [False] * g.n
    heap = [(0, v) for v in range(g.n)]  # sorted, so already a heap
    order = []
    while heap:
        _, v = heapq.heappop(heap)
        if visited[v]:
            continue
        visited[v] = True
        order.append(v)
        for w in g.adj[v]:
            if not visited[w]:
                weight[w] += 1
                heapq.heappush(heap, (-weight[w], w))
    return order


def _elimination_conflicts(g, peo):
    """Yield (v, anchor, w) wherever ``peo`` fails the elimination test: w is
    a later neighbor of v not adjacent to anchor, v's first later neighbor."""
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        anchor = min(later, key=pos.__getitem__)
        for w in later:
            if w != anchor and not g.has_edge(anchor, w):
                yield v, anchor, w


def perfect_elimination_ordering(g):
    """A PEO (first vertex eliminated first) or None if the graph is not chordal."""
    peo = list(reversed(maximum_cardinality_search(g)))
    if next(_elimination_conflicts(g, peo), None) is not None:
        return None
    return peo


def is_chordal(g):
    return perfect_elimination_ordering(g) is not None


def find_chordless_cycle(g):
    """A chordless cycle of length >= 4, or None when the graph is chordal.

    Used for error messages: when the MCS ordering fails the elimination test
    at v with nonadjacent later neighbors x, y, a shortest x-y path avoiding
    N[v] closes into a chordless cycle through v.
    """
    peo = list(reversed(maximum_cardinality_search(g)))
    for v, anchor, w in _elimination_conflicts(g, peo):
        banned = (set(g.adj[v]) | {v}) - {anchor, w}
        path = _shortest_path(g, anchor, w, banned)
        if path is not None:
            return [v] + path
    return None


def _shortest_path(g, s, t, banned):
    prev = bfs(s, lambda x: [y for y in sorted(g.adj[x]) if y not in banned])
    if t not in prev:
        return None
    path = [t]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def require_chordal(g):
    """Return a PEO or raise NotChordalError with a witness cycle."""
    peo = perfect_elimination_ordering(g)
    if peo is None:
        cycle = find_chordless_cycle(g)
        raise NotChordalError(cycle)
    return peo


def maximal_cliques(g):
    """Maximal cliques of a chordal graph, sorted lexicographically.

    Derived from a perfect elimination ordering: the candidate clique at v is
    v plus its later neighbors.  A candidate lies in another exactly when
    some u has v as its first later neighbor and one later neighbor more
    than v (Blair & Peyton 1993), so one pass drops the non-maximal ones.
    """
    peo = require_chordal(g)
    pos = {v: i for i, v in enumerate(peo)}
    later = {v: {w for w in g.adj[v] if pos[w] > pos[v]} for v in peo}
    dropped = set()
    for u in peo:
        if later[u]:
            v = min(later[u], key=pos.__getitem__)
            if len(later[u]) == len(later[v]) + 1:
                dropped.add(v)
    cliques = [frozenset({v} | later[v]) for v in peo if v not in dropped]
    return sorted(cliques, key=lambda c: tuple(sorted(c)))


@dataclass
class CliqueTree:
    """A clique tree with the running intersection property.

    ``dilations[i]`` is |D_i|: the product over the other cliques t_j of
    |t_j minus s_j|! where s_j is the clique preceding t_j on the tree path
    from t_i.  ``adj[i]`` lists the cliques next to t_i in the tree, and
    ``separator_sizes`` maps each tree edge to |t_i & t_j|.
    """

    n: int
    cliques: list
    edges: list
    adj: list
    separator_sizes: dict = field(default_factory=dict)
    dilations: list = field(default_factory=list)

    @property
    def num_cliques(self):
        return len(self.cliques)

    def degree(self):
        """Maximum degree of the tree (0 for a single clique)."""
        return max(map(len, self.adj))

    def diameter(self):
        """Longest path length (in edges) of the tree."""
        step = self.adj.__getitem__
        # the clique reached last from any start ends a longest path
        pred = bfs(next(reversed(bfs(0, step))), step)
        v, d = next(reversed(pred)), 0
        while pred[v] is not None:
            v, d = pred[v], d + 1
        return d

    def max_clique_size(self):
        return max(len(c) for c in self.cliques)


def clique_tree(g):
    """Build a clique tree of a connected chordal graph.

    Uses a maximum-weight spanning tree over clique intersection sizes
    (Kruskal with lexicographic tie-breaking), which is guaranteed to have
    the running intersection property.
    """
    if not g.is_connected():
        raise ValueError("clique tree requires a connected graph")
    cliques = maximal_cliques(g)
    k = len(cliques)
    cand = []
    for i, j in itertools.combinations(range(k), 2):
        w = len(cliques[i] & cliques[j])
        if w > 0:
            cand.append((-w, i, j))
    cand.sort()
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for negw, i, j in cand:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
    if len(edges) != k - 1:
        raise ValueError("clique intersection graph is disconnected")
    adj = [[] for _ in range(k)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    tree = CliqueTree(n=g.n, cliques=cliques, edges=sorted(edges), adj=adj)
    for i, j in tree.edges:
        tree.separator_sizes[(i, j)] = len(cliques[i] & cliques[j])
    for i in range(k):
        # pred[j] is the clique before t_j on the tree path from t_i
        pred = bfs(i, adj.__getitem__)
        del pred[i]
        fresh = (len(cliques[j] - cliques[p]) for j, p in pred.items())
        tree.dilations.append(math.prod(map(math.factorial, fresh)))
    return tree


def has_partially_directed_cycle(p):
    """True when some cycle follows lines either way and at least one arc forward.

    Equivalent test: in the digraph with lines doubled in both directions,
    some arc's head reaches its tail back.  The search reads each vertex's
    children and neighbours in place, so it visits only vertices that carry
    an arc or a line, whatever ``n``.
    """

    def step(x):
        return itertools.chain(p.children[x], p.undirected_neighbors[x])

    return any(u in bfs(v, step) for u, v in p.arcs)


# ---------------------------------------------------------------------------
# small graph families used by tests, scripts, and the CLI examples


def complete_graph(n):
    return UndirectedGraph(n, itertools.combinations(range(n), 2))


def path_graph(n):
    return UndirectedGraph(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n):
    """A star on n vertices with center 0."""
    return UndirectedGraph(n, ((0, i) for i in range(1, n)))


def glued_clique_chain(sizes, overlaps):
    """A chain of cliques, consecutive ones sharing the stated vertex counts.

    ``glued_clique_chain([4, 4], [2])`` is two K_4 sharing two vertices.
    """
    if len(overlaps) != len(sizes) - 1:
        raise ValueError("need one overlap per consecutive clique pair")
    for s, t, o in zip(sizes, sizes[1:], overlaps):
        if not 0 < o < min(s, t):
            raise ValueError("overlaps must be strictly between 0 and both sizes")
    edges = set()
    start = 0
    prev_tail = []
    for size, ov in zip(sizes, list(overlaps) + [0]):
        fresh = list(range(start, start + size - len(prev_tail)))
        clique = prev_tail + fresh
        edges.update(itertools.combinations(sorted(clique), 2))
        start += len(fresh)
        prev_tail = clique[len(clique) - ov:] if ov else []
    return UndirectedGraph(start, edges)


# ---------------------------------------------------------------------------
# text format: "n <count>" header, then one edge per line ("u -- v" or "u -> v")


def parse_graph_text(text):
    """Parse the shared edge-list format into (n, lines, arcs)."""
    n = None
    lines = set()
    arcs = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        try:
            if n is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ValueError("expected header 'n <count>'")
                n = int(parts[1])
                if n < 0:
                    raise ValueError("negative vertex count")
                continue
            if len(parts) != 3 or parts[1] not in ("--", "->"):
                raise ValueError("expected 'u -- v' or 'u -> v'")
            u, v = int(parts[0]), int(parts[2])
            if parts[1] == "--":
                lines.add(edge_key(u, v))
            else:
                arcs.add((u, v))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    if n is None:
        raise ValueError("missing 'n <count>' header")
    return n, lines, arcs


def parse_pdag(text):
    n, lines, arcs = parse_graph_text(text)
    return Pdag(n, arcs, lines)


def parse_dag(text):
    n, lines, arcs = parse_graph_text(text)
    if lines:
        raise ValueError("expected a fully directed graph, found undirected edges")
    return Dag(n, arcs)


def parse_undirected(text):
    n, lines, arcs = parse_graph_text(text)
    if arcs:
        raise ValueError("expected an undirected graph, found arcs")
    return UndirectedGraph(n, lines)


def format_graph(n, lines=(), arcs=()):
    out = [f"n {n}"]
    for u, v in sorted(edge_key(a, b) for a, b in lines):
        out.append(f"{u} -- {v}")
    for u, v in sorted(arcs):
        out.append(f"{u} -> {v}")
    return "\n".join(out) + "\n"


def format_pdag(p):
    return format_graph(p.n, p.lines, p.arcs)
