"""Per-object reference implementations, kept only to check the library.

The library holds an AMO as its sorted canonical arc tuple (the key) and the
flip graph as ``OrientationSpace``'s arrays.  The routines here do the same
work one Python object at a time, in the most direct form: an ``Amo`` built
from a key, the covered-edge and non-follower tests on parent sets, the
chain step on one ``Amo``, and the essential graph as the arcs shared by
every member of the class.  The vectorized walk is kept indexing the 2-D
flip table by (state, edge), and ``sample-amo``'s output formatting each
sampled state from its key.  Three whole-graph routines are kept in their
earlier form: the AMO count as the He-Jia-Yu root-peeling recursion that
re-solves every rooted subproblem, maximum cardinality search as a scan
of every unvisited vertex per step, and the maximal cliques of a chordal
graph as the candidates that lie in no other candidate.  Markov
equivalence is tested on the definition (equal skeletons and
immoralities), the flip chain's law after t steps comes from t
vector-matrix products, and its exact mixing time from repeated squaring
of the whole transition matrix, whose entries are picked out of a row
index as large as the flip table.  The HJY chain's
exact kernel is kept as a breadth-first search that builds a ``Move`` per
candidate and a ``Pdag`` per result, with one ``{j: Fraction}`` row per
state, and its proposals as one ``Generator.integers`` call per draw.
"""

import itertools
import json
from fractions import Fraction

import numpy as np

from mecmc.amo import peo_orientation
from mecmc.essential import (
    enumerate_dags,
    is_essential_graph,
    is_strongly_protected,
    mec_of_dag,
)
from mecmc.flipchain import TMIX_EPS, TMIX_MAX_STEPS
from mecmc.graphs import (
    Pdag,
    edge_key,
    format_graph,
    immoralities,
    is_acyclic,
    require_chordal,
)
from mecmc.hjy import (
    MOVE_KINDS,
    MaskState,
    Move,
    _accepted,
    _decode,
    _encode,
    _pairs,
    apply_move,
)


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


def step(a, rng):
    """One chain step from the Amo ``a``: propose a uniform edge, flip if legal."""
    edges = sorted(a.graph.edges)
    u, v = edges[int(rng.integers(len(edges)))]
    if (v, u) in a.arcs:
        u, v = v, u
    if a.parents[u] == a.parents[v] - {u}:
        return a.flip((u, v))
    return a


def sample(g, steps, rng, start=None):
    """Run the chain ``steps`` steps from the canonical PEO orientation."""
    a = start if start is not None else Amo(g, peo_orientation(g))
    for _ in range(steps):
        a = step(a, rng)
    return a


def sample_many_by_rows(space, steps, count, rng):
    """``flipchain.sample_many`` indexing the 2-D flip table by (state, edge)."""
    start = space.keys.index(peo_orientation(space.graph))
    x = np.full(count, start, dtype=np.int64)
    m = space.graph.num_edges
    if m == 0:
        return x
    for _ in range(steps):
        x = space.flip_table[x, rng.integers(0, m, size=count)]
    return x


def arc_string(key):
    return ";".join(f"{u}>{v}" for u, v in key)


def render_sample_amo(space, final, config, fmt):
    """The text ``sample-amo`` writes for the final states ``final`` of its
    walk, each state's label and graph text formatted from its key anew
    (``arc_string`` and ``format_graph``); ``config`` is the RunConfig dict."""
    counts = np.bincount(final, minlength=space.size)
    hist = {arc_string(space.keys[i]): int(c) for i, c in enumerate(counts) if c > 0}
    if fmt == "csv":
        rows = [f"# config {json.dumps(config, sort_keys=True)}"]
        rows.append("orientation,count")
        rows.extend(f"{k},{v}" for k, v in sorted(hist.items()))
        rows.append(f"# n_states {space.size} distinct_sampled {len(hist)}")
        return "\n".join(rows) + "\n"
    payload = {
        "config": config,
        "summary": {
            "n_states": space.size,
            "distinct_sampled": len(hist),
            "samples": config["samples"],
            "steps": config["steps"],
        },
        "histogram": hist,
        "orientations": {
            arc_string(space.keys[i]): format_graph(space.graph.n, (), space.keys[i])
            for i in sorted(set(final.tolist()))
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def essential_graph_by_intersection(d):
    """Reference semantics: arcs oriented identically across the whole class."""
    members = mec_of_dag(d)
    common = frozenset.intersection(*(m.arcs for m in members))
    lines = {
        edge_key(u, v)
        for u, v in d.skeleton().edges
        if (u, v) not in common and (v, u) not in common
    }
    return Pdag(d.n, common, lines)


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


def count_amos_by_recursion(g):
    """Number of AMOs of a chordal graph (product over connected components)."""
    require_chordal(g)
    total = 1
    for comp in g.connected_components():
        adj = {v: set(g.adj[v]) for v in comp}
        total *= _amo_count(adj)
    return total


def maximum_cardinality_search_by_scan(g, start=0):
    """MCS visit order; its reverse is a perfect elimination ordering iff chordal."""
    if g.n == 0:
        return []
    weight = [0] * g.n
    visited = [False] * g.n
    order = []
    current = start
    for _ in range(g.n):
        if current is None:
            best = max(
                (w, -v) for v, w in enumerate(weight) if not visited[v]
            )
            current = -best[1]
        visited[current] = True
        order.append(current)
        for w in g.adj[current]:
            if not visited[w]:
                weight[w] += 1
        current = None
    return order


def maximal_cliques_by_inclusion(g):
    """``graphs.maximal_cliques`` testing each candidate clique, a vertex
    and its later neighbours in a perfect elimination ordering, against
    every other."""
    peo = require_chordal(g)
    pos = {v: i for i, v in enumerate(peo)}
    cands = [frozenset({v} | {w for w in g.adj[v] if pos[w] > pos[v]}) for v in peo]
    cliques = [c for c in cands if not any(c < other for other in cands)]
    return sorted(set(cliques), key=lambda c: tuple(sorted(c)))


def _edit(state, move):
    """The literal edit of ``move`` on ``state`` as a Pdag, or None when a
    precondition fails: a repeated vertex, an insert on an adjacent pair, a
    delete of a missing edge, an immorality whose outer vertices are
    adjacent or whose two edges are not both lines (make) or both arcs into
    the middle vertex (remove)."""
    kind = move.kind
    arcs = set(state.arcs)
    lines = set(state.lines)
    if "immorality" in kind:
        a, b, c = move.vertices
        if len({a, b, c}) != 3 or state.adjacent(a, c):
            return None
        pair_lines = {edge_key(a, b), edge_key(b, c)}
        pair_arcs = {(a, b), (c, b)}
        if kind == "make-immorality":
            if not pair_lines <= lines:
                return None
            lines -= pair_lines
            arcs |= pair_arcs
        else:
            if not pair_arcs <= arcs:
                return None
            arcs -= pair_arcs
            lines |= pair_lines
    else:
        u, v = move.vertices
        if u == v:
            return None
        if kind.startswith("insert"):
            if state.adjacent(u, v):
                return None
            if kind == "insert-arc":
                arcs.add((u, v))
            else:
                lines.add(edge_key(u, v))
        elif kind == "delete-arc":
            if (u, v) not in arcs:
                return None
            arcs.remove((u, v))
        else:
            if edge_key(u, v) not in lines:
                return None
            lines.remove(edge_key(u, v))
    return Pdag(state.n, arcs, lines)


def apply_move_by_full_test(state, move):
    """The HJY chain's acceptance rule, tested on the whole edited graph:
    the literal edit when all four conditions of ``is_essential_graph``
    hold, None otherwise."""
    edited = _edit(state, move)
    if edited is None or not is_essential_graph(edited):
        return None
    return edited


def legal_moves(state):
    """All (move, result) pairs with a precondition-satisfying tuple that are
    accepted from ``state``, line and immorality tuples in sorted order
    only."""
    pairs, shift = _pairs(state.n)
    code = _encode(state, shift)
    return [
        (Move(MOVE_KINDS[k], vs), _decode(state.n, code ^ change, pairs))
        for k, vs, change in _accepted(MaskState(state), shift)
    ]


def pair_mark(p, u, v):
    """The mark of the pair u, v: "line", ">" for u->v, "<" for v->u, or None."""
    if edge_key(u, v) in p.lines:
        return "line"
    if (u, v) in p.arcs:
        return ">"
    if (v, u) in p.arcs:
        return "<"
    return None


def propose(n, rng):
    """Draw a uniformly random move, one ``rng.integers`` call per draw: the
    law ``hjy.proposals`` decodes in blocks of raw words.

    Returns None when the drawn kind has no valid tuple (immorality kinds
    need three vertices, edge kinds two); the step counts as a rejection.
    Each later vertex is a uniform index into the vertices not yet drawn,
    in increasing order.  ``rng`` is a numpy Generator or a ``RawDraws``.
    """
    k = int(rng.integers(6))
    if n < (3 if k >= 4 else 2):
        return None
    if k >= 4:
        b = int(rng.integers(n))
        i = int(rng.integers(n - 1))
        j = int(rng.integers(n - 2))
        a = i + (i >= b)
        lo, hi = (a, b) if a < b else (b, a)
        c = j + (j >= lo)
        c += c >= hi
        return Move(MOVE_KINDS[k], (a, b, c) if a < c else (c, b, a))
    u = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    v = j + (j >= u)
    if k >= 2 and v < u:
        u, v = v, u
    return Move(MOVE_KINDS[k], (u, v))


class RawDraws:
    """``numpy.random.Generator(bits).integers(high)``, one call at a time,
    from the raw 64-bit words of the bit generator ``bits``:

    - ``high == 1`` returns 0 and draws nothing;
    - ``high <= 2**32`` draws 32-bit halves, the low half of a word first
      and its high half on the next such draw (PCG64's ``next_uint32``);
    - a larger ``high`` takes a whole word and leaves a pending half
      pending;
    - each draw x of w bits is scaled by Lemire's method: m = x * high,
      retried while ``m mod 2**w < 2**w mod high``, and the result is
      ``m >> w``.
    """

    def __init__(self, bits):
        self._raw = bits.random_raw
        self._half = None

    def integers(self, high):
        if high == 1:
            return 0
        if high > 1 << 32:
            threshold = (1 << 64) % high
            while True:
                m = int(self._raw()) * high
                if m & 0xFFFFFFFFFFFFFFFF >= threshold:
                    return m >> 64
        threshold = (1 << 32) % high
        while True:
            x = self._half
            if x is None:
                x = int(self._raw())
                self._half = x >> 32
                x &= 0xFFFFFFFF
            else:
                self._half = None
            m = x * high
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


def propose_by_lists(n, rng):
    """``propose`` with each later vertex picked from an explicit list of
    the vertices not yet drawn; the same draws give the same move."""
    kind = MOVE_KINDS[int(rng.integers(6))]
    if n < (3 if "immorality" in kind else 2):
        return None
    if "immorality" in kind:
        b = int(rng.integers(n))
        rest = [v for v in range(n) if v != b]
        i = int(rng.integers(len(rest)))
        j = int(rng.integers(len(rest) - 1))
        a = rest[i]
        c = [v for v in rest if v != a][j]
        a, c = min(a, c), max(a, c)
        return Move(kind, (a, b, c))
    u = int(rng.integers(n))
    v = [x for x in range(n) if x != u][int(rng.integers(n - 1))]
    if "line" in kind:
        u, v = min(u, v), max(u, v)
    return Move(kind, (u, v))


def _mask_bits(m):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def hjy_candidates(state):
    """Every move whose tuple fits the marks of ``state``, built as a
    ``Move`` each: ordered nonadjacent pairs (insert-arc, then insert-line
    when u < v), the sorted arcs, the sorted lines, then per middle vertex
    the make- and remove-immorality triples with nonadjacent ends."""
    s = MaskState(state)
    n, adj = s.n, s.adj
    moves = []
    for u, v in itertools.permutations(range(n), 2):
        if not adj[u] >> v & 1:
            moves.append(Move("insert-arc", (u, v)))
            if u < v:
                moves.append(Move("insert-line", (u, v)))
    moves += [Move("delete-arc", arc) for arc in sorted(s.arcs)]
    moves += [Move("delete-line", line) for line in sorted(s.lines)]
    for b in range(n):
        for kind, ends in (("make-immorality", s.und[b]), ("remove-immorality", s.par[b])):
            for a, c in itertools.combinations(_mask_bits(ends), 2):
                if not adj[a] >> c & 1:
                    moves.append(Move(kind, (a, b, c)))
    return moves


def hjy_breadth_first(start, depth=None):
    """``hjy``'s breadth-first search over accepted moves from ``start``,
    one ``Pdag`` and one ``apply_move`` per candidate.

    Returns the states in discovery order and, for each state fewer than
    ``depth`` moves from ``start`` (each state when ``depth`` is None), its
    accepted moves as (move, index of the result) pairs.
    """
    states, levels, moves = [start], [0], []
    index = {start.key(): 0}
    while len(moves) < len(states):
        i = len(moves)
        if depth is not None and levels[i] == depth:
            break
        row = []
        for m in hjy_candidates(states[i]):
            result = apply_move(states[i], m)
            if result is None:
                continue
            j = index.setdefault(result.key(), len(states))
            if j == len(states):
                states.append(result)
                levels.append(levels[i] + 1)
            row.append((m, j))
        moves.append(row)
    return states, moves


def hjy_exact_kernel(start):
    """``(states, K)``: the states reachable from ``start`` in discovery
    order and ``K[i]`` a dict ``{j: Fraction}`` holding only the moves that
    exist, with the holding probability at ``K[i][i]``.  Each of the six
    kinds carries weight 1/6 split uniformly over its tuple domain."""
    states, moves = hjy_breadth_first(start)
    n = start.n
    # an empty domain (pairs at n = 1, triples at n = 2) has no moves, so
    # its 1/6 stays on the diagonal
    domains = {"arc": n * (n - 1), "line": n * (n - 1) // 2}
    domains["immorality"] = domains["arc"] * (n - 2) // 2
    weight = {k: Fraction(1, 6 * d) for k, d in domains.items() if d}
    K = []
    for i, accepted in enumerate(moves):
        row = {}
        stay = Fraction(1)
        for move, j in accepted:
            w = weight[move.kind.split("-")[1]]
            row[j] = w
            stay -= w
        row[i] = stay
        K.append(row)
    return states, K


def kernel_fractions(kernel):
    """An ``hjy.Kernel`` in the form of ``hjy_exact_kernel``: the decoded
    states, and each row as ``{j: Fraction}`` in move order with the
    holding probability last."""
    states = [kernel.state(i) for i in range(len(kernel))]
    K = [{} for _ in states]
    for i, j, k in zip(kernel.rows, kernel.cols, kernel.kinds):
        K[i][j] = Fraction(kernel.weights[k], kernel.denominator)
    for i, held in enumerate(kernel.holding()):
        K[i][i] = Fraction(held, kernel.denominator)
    return states, K


def essential_graph_by_fixed_point(d):
    """Essential graph by undirecting the lexicographically smallest arc
    that is not strongly protected, rebuilding the graph and rescanning
    every arc after each one."""
    arcs = set(d.arcs)
    lines = set()
    while True:
        p = Pdag(d.n, arcs, lines)
        weak = None
        for arc in sorted(arcs):
            if not is_strongly_protected(p, arc):
                weak = arc
                break
        if weak is None:
            return p
        arcs.remove(weak)
        lines.add(edge_key(*weak))


def singleton_class_count_bruteforce(n):
    """Count size-1 equivalence classes by grouping DAGs on their class
    signature (skeleton, immoralities).  Desk scale: n <= 5."""
    if n > 5:
        raise ValueError("brute-force singleton count capped at n = 5")
    sizes = {}
    for d in enumerate_dags(n):
        sig = (d.skeleton().edges, immoralities(d))
        sizes[sig] = sizes.get(sig, 0) + 1
    return sum(1 for v in sizes.values() if v == 1)


def markov_equivalent(d1, d2):
    if d1.n != d2.n:
        return False
    return d1.skeleton() == d2.skeleton() and immoralities(d1) == immoralities(d2)


def transition_entries_by_row_index(flip_table):
    """(rows, cols, values) of the flip chain's P, picking the legal flips
    out of a row index as large as the flip table."""
    N, m = flip_table.shape
    rows = np.repeat(np.arange(N), m)
    cols = flip_table.ravel()
    moves = cols != rows
    degrees = np.count_nonzero(moves.reshape(N, m), axis=1)
    stay = np.arange(N)
    return (
        np.concatenate([rows[moves], stay]),
        np.concatenate([cols[moves], stay]),
        np.concatenate([np.full(degrees.sum(), 1.0 / m), 1.0 - degrees / m]),
    )


def exact_distribution(tm, start, steps):
    """Distribution after ``steps`` steps from state ``start`` (matrix powers)."""
    mu = np.zeros(tm.dimension)
    mu[start] = 1.0
    for _ in range(steps):
        mu = mu @ tm.matrix
    return mu


def exact_tmix_by_powers(tm):
    """Smallest t with max-over-starts TV(P^t(x, .), pi) <= ``TMIX_EPS``.

    Computed from literal matrix powers (doubling, then bisection).  Returns
    None when the chain has not mixed within ``TMIX_MAX_STEPS`` (e.g.
    periodic chains such as the single-edge graph).
    """
    N = tm.dimension
    if N == 1:
        return 0
    pi = np.full(N, 1.0 / N)

    def dist(A):
        return float(0.5 * np.max(np.abs(A - pi).sum(axis=1)))

    P = tm.matrix
    if dist(P) <= TMIX_EPS:
        return 1 if dist(np.eye(N)) > TMIX_EPS else 0
    powers = [P]  # powers[j] = P^(2^j)
    t, A = 1, P
    while dist(A) > TMIX_EPS:
        if 2 * t > TMIX_MAX_STEPS:
            return None
        A = A @ A
        t *= 2
        powers.append(A)
    lo_t, lo_A = t // 2, powers[-2]
    hi_t = t
    # invariant: dist at lo_t > TMIX_EPS >= dist at hi_t; hi_t - lo_t is a
    # power of two, so each midpoint is one product with a stored power
    while hi_t - lo_t > 1:
        mid = (lo_t + hi_t) // 2
        M = lo_A @ powers[(mid - lo_t).bit_length() - 1]
        if dist(M) <= TMIX_EPS:
            hi_t = mid
        else:
            lo_t, lo_A = mid, M
    return hi_t
