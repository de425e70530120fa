"""A reversible move chain on essential graphs.

States are essential graphs on a fixed vertex count.  A step proposes one of
six move kinds (insert/delete arc, insert/delete line, make/remove
immorality) with a uniformly chosen vertex tuple, makes the literal edit, and
accepts exactly when the edited graph is itself an essential graph; the new
state is then the edit, nothing more.  A rule that instead repaired the edit
(say, to the essential graph of one of its consistent extensions) and
accepted the repair would move other edges and break reversibility: from
the immorality 0->1<-2, deleting 2->1 repairs to the line 0-1, but
reinserting 2->1 there repairs to the undirected path, so the reverse move
is rejected and detailed balance fails.  With only essential edits
accepted, insert and delete of the same tuple are exact inverses proposed
with equal probability, the kernel is symmetric, and the uniform law is
stationary.  ``emptying_sequence`` realizes the constructive walk from any
essential graph down to the empty graph, which shows the chain is
connected, and every one of its moves is accepted under this rule.

The walk holds its state as a ``MaskState``, edited in place; since the
state before each edit is essential, the test looks only at the vertices
and chain components the edit touches.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Dag, Pdag, edge_key, format_pdag, perfect_elimination_ordering
from .posets import poset_stats, reachability_poset

MOVE_KINDS = (
    "insert-arc",
    "delete-arc",
    "insert-line",
    "delete-line",
    "make-immorality",
    "remove-immorality",
)


@dataclass(frozen=True)
class Move:
    kind: str
    vertices: tuple

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        want = 3 if "immorality" in self.kind else 2
        if len(self.vertices) != want:
            raise ValueError(f"{self.kind} takes {want} vertices")


def state_hash(p):
    """Stable short digest of the canonical text form of a ``Pdag`` or a
    ``MaskState``."""
    return hashlib.sha256(format_pdag(p).encode()).hexdigest()[:12]


def consistent_extension(p):
    """Orient the lines of a Pdag into a DAG without new immoralities.

    Dor-Tarsi: repeatedly find a vertex with no outgoing arcs whose
    undirected neighbors are adjacent to all its other neighbors, point its
    lines inward, and retire it.  Returns None when no extension exists.
    All consistent extensions of a Pdag are Markov equivalent, so callers may
    treat the result as canonical.
    """
    remaining = set(range(p.n))
    arcs_out = {v: set(p.children[v]) for v in range(p.n)}
    arcs_in = {v: set(p.parents[v]) for v in range(p.n)}
    lines = {v: set(p.undirected_neighbors[v]) for v in range(p.n)}
    result = set(p.arcs)
    while remaining:
        chosen = None
        for x in sorted(remaining):
            if arcs_out[x]:
                continue
            adj_x = arcs_in[x] | lines[x]
            ok = True
            for w in lines[x]:
                others = adj_x - {w}
                if any(
                    not (
                        z in lines[w] or z in arcs_in[w] or z in arcs_out[w]
                    )
                    for z in others
                ):
                    ok = False
                    break
            if ok:
                chosen = x
                break
        if chosen is None:
            return None
        x = chosen
        for w in lines[x]:
            result.add((w, x))
            lines[w].discard(x)
        for w in arcs_in[x]:
            arcs_out[w].discard(x)
        remaining.discard(x)
        arcs_out.pop(x)
        arcs_in.pop(x)
        lines.pop(x)
        for v in remaining:
            arcs_in[v].discard(x)
            lines[v].discard(x)
    return Dag(p.n, result)


def _bits(m):
    """The set bits of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class MaskState:
    """An essential graph held for in-place chain moves.

    Bit u of ``par[v]``, ``chi[v]``, ``und[v]`` and ``adj[v]`` is set for
    u->v, v->u, the line u-v and any edge between u and v; ``arcs`` and
    ``lines`` hold the same edges as pairs, so ``format_pdag`` and
    ``state_hash`` read the state as they read a ``Pdag``.  ``try_move``
    makes a move's literal edit, keeps it when the result is essential and
    undoes it otherwise.  The state before an edit is essential, so the test
    covers only what the edit can break (Chickering, JMLR 2002, checks
    operator validity the same way): the state must be built from an
    essential graph.
    """

    def __init__(self, p):
        n = self.n = p.n
        self.par, self.chi, self.und, self.adj = [0] * n, [0] * n, [0] * n, [0] * n
        self.arcs, self.lines = set(), set()
        for u, v in p.arcs:
            self._toggle_arc(u, v)
        for u, v in p.lines:
            self._toggle_line(u, v)

    def key(self):
        """The ``Pdag.key()`` of the state."""
        return (self.n, tuple(sorted(self.arcs)), tuple(sorted(self.lines)))

    def pdag(self):
        return Pdag(self.n, self.arcs, self.lines)

    def try_move(self, move):
        """Apply ``move`` in place and return True when its literal edit is
        an essential graph; otherwise leave the state as it was and return
        False."""
        kind, vs = move.kind, move.vertices
        if not self._fits(kind, vs):
            return False
        self._toggle(kind, vs)
        if self._essential_after(kind, vs):
            return True
        self._toggle(kind, vs)
        return False

    def undo(self, move):
        """Revert an accepted ``move``."""
        self._toggle(move.kind, move.vertices)

    def _toggle_arc(self, u, v):
        bu, bv = 1 << u, 1 << v
        self.chi[u] ^= bv
        self.par[v] ^= bu
        self.adj[u] ^= bv
        self.adj[v] ^= bu
        self.arcs ^= {(u, v)}

    def _toggle_line(self, u, v):
        bu, bv = 1 << u, 1 << v
        self.und[u] ^= bv
        self.und[v] ^= bu
        self.adj[u] ^= bv
        self.adj[v] ^= bu
        self.lines ^= {edge_key(u, v)}

    def _toggle(self, kind, vs):
        """Flip the marks of the pairs a move of ``kind`` edits.  Where the
        move's precondition holds this is its literal edit, and a second
        call undoes it: the inverse kind edits the same marks back."""
        if len(vs) == 3:
            a, b, c = vs
            self._toggle_line(a, b)
            self._toggle_line(b, c)
            self._toggle_arc(a, b)
            self._toggle_arc(c, b)
        elif "arc" in kind:
            self._toggle_arc(*vs)
        else:
            self._toggle_line(*vs)

    def _fits(self, kind, vs):
        """Whether the marks fit the move: no repeated vertex, no insert on
        an adjacent pair, no delete of a missing edge, and an immorality's
        outer vertices nonadjacent with both its edges lines (make) or both
        arcs into the middle vertex (remove)."""
        if len(vs) == 3:
            a, b, c = vs
            if a == b or b == c or a == c or self.adj[a] >> c & 1:
                return False
            ends = self.und[b] if kind == "make-immorality" else self.par[b]
            return ends >> a & ends >> c & 1 == 1
        u, v = vs
        if u == v:
            return False
        if kind.startswith("insert"):
            return not self.adj[u] >> v & 1
        table = self.chi if kind == "delete-arc" else self.und
        return table[u] >> v & 1 == 1

    def _essential_after(self, kind, vs):
        """Whether the state, just edited by a move from an essential graph,
        is essential.  Each of the four conditions is tested only where the
        edit can break it:

        - strong protection of the arcs at the edited vertices.  An arc
          x->y elsewhere can only lose configuration (d), when an insert
          makes its line neighbours u, v adjacent while u->y, v->y.  An
          arc u-v would close a partially directed cycle with x, and after
          a line u-v the tested protection of u->y gives x->y one too;
        - no induced x->y-z with x, z nonadjacent, at each edited vertex y
          and, after a delete, at the common neighbours of the pair;
        - chordality of the lines: nothing after an arc move; after a
          line delete, the common line neighbours form a clique (the line
          then lies in one maximal clique); after a line insert, the common
          line neighbours separate its ends in the graph without it.  A
          make-immorality a->b<-c needs nothing more: the rule at b makes
          each common line neighbour of a and b a line neighbour of c, and
          two nonadjacent ones would have closed a chordless cycle with a
          and c before the edit;
        - no partially directed cycle: one search from the head of each new
          arc, or from the chain component a new line merged.
        """
        par, chi, und, adj = self.par, self.chi, self.und, self.adj
        if kind.startswith("delete"):
            u, v = vs
            if chi[u] & und[v] or chi[v] & und[u]:
                return False
        for y in vs:
            if und[y]:
                for x in _bits(par[y]):
                    if und[y] & ~adj[x]:
                        return False
        for y in vs:
            for x in _bits(par[y]):
                if not self._protected(x, y):
                    return False
            for z in _bits(chi[y]):
                if not self._protected(y, z):
                    return False
        if kind == "insert-arc":
            u, v = vs
            return not self._reach(1 << v, (chi, und), 1 << u) >> u & 1
        if kind == "insert-line":
            u, v = vs
            return self._line_keeps_chordal(u, v) and not self._component_cycle(u)
        if kind == "delete-line":
            u, v = vs
            return self._is_clique(und[u] & und[v])
        if kind == "make-immorality":
            a, b, c = vs
            ends = 1 << a | 1 << c
            return not self._reach(1 << b, (chi, und), ends) & ends
        if kind == "remove-immorality":
            a, b, c = vs
            return (
                self._line_keeps_chordal(a, b)
                and self._line_keeps_chordal(c, b)
                and not self._component_cycle(b)
            )
        return True  # delete-arc

    def _protected(self, x, y):
        """The four strong-protection configurations of x->y, as in
        ``essential.is_strongly_protected``."""
        par, adj = self.par, self.adj
        py = par[y]
        if par[x] & ~adj[y] or py & ~adj[x] & ~(1 << x) or self.chi[x] & py:
            return True  # (a), (b), (c)
        cand = self.und[x] & py
        for w in _bits(cand):
            if cand & ~adj[w] & ~(1 << w):
                return True  # (d)
        return False

    def _reach(self, start, tables, stop=0, block=0):
        """Mask of the vertices reached from mask ``start`` along the
        per-vertex masks in ``tables``, never entering ``block``; the search
        ends early once it reaches a vertex of ``stop``."""
        seen = frontier = start
        while frontier and not seen & stop:
            low = frontier & -frontier
            v = low.bit_length() - 1
            frontier ^= low
            new = 0
            for table in tables:
                new |= table[v]
            new &= ~seen & ~block
            seen |= new
            frontier |= new
        return seen

    def _component_cycle(self, x):
        """Whether a partially directed cycle passes through the chain
        component of ``x``: an arc leaving it leads back into it."""
        comp = self._reach(1 << x, (self.und,))
        out = 0
        for v in _bits(comp):
            out |= self.chi[v]
        return self._reach(out, (self.chi, self.und), comp) & comp != 0

    def _line_keeps_chordal(self, x, y):
        """Whether the line x-y, present now, keeps the lines chordal given
        that they were chordal without it: exactly when no path of lines
        joins x to y around their common line neighbours (its shortest form
        would close a chordless cycle with x-y).  The search avoids y, so it
        never uses x-y or another line new at y."""
        und = self.und
        block = und[x] & und[y] | 1 << y
        target = und[y] & ~block & ~(1 << x)
        return not target or not self._reach(1 << x, (und,), target, block) & target

    def _is_clique(self, m):
        und = self.und
        for v in _bits(m):
            m ^= 1 << v
            if m & ~und[v]:
                return False
        return True


def apply_move(state, move):
    """Apply one chain move to an essential graph.

    Returns the literal edit when it is an essential graph, and None when
    the move is rejected: a precondition fails or the edit is not essential.
    Accepting only essential edits is what makes the kernel symmetric.  This
    is ``MaskState.try_move`` on a fresh copy of ``state``.
    """
    s = MaskState(state)
    return s.pdag() if s.try_move(move) else None


def propose(n, rng):
    """Draw a uniformly random move: kind first, then a uniform tuple.

    Returns None when the drawn kind has no valid tuple (immorality kinds
    need three vertices, edge kinds two); the step counts as a rejection.
    Each later vertex is a uniform index into the vertices not yet drawn,
    in increasing order.  ``rng`` is a numpy Generator or a ``Pcg64Draws``;
    only ``rng.integers(k)`` is called.
    """
    kind = MOVE_KINDS[int(rng.integers(6))]
    if n < (3 if "immorality" in kind else 2):
        return None
    if "immorality" in kind:
        b = int(rng.integers(n))
        i = int(rng.integers(n - 1))
        j = int(rng.integers(n - 2))
        a = i + (i >= b)
        lo, hi = (a, b) if a < b else (b, a)
        c = j + (j >= lo)
        c += c >= hi
        a, c = min(a, c), max(a, c)
        return Move(kind, (a, b, c))
    u = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    v = j + (j >= u)
    if "line" in kind:
        u, v = min(u, v), max(u, v)
    return Move(kind, (u, v))


RAW_BLOCK = 512  # raw PCG64 words read per refill of a ``Pcg64Draws``


class Pcg64Draws:
    """The draws of ``numpy.random.default_rng(seed).integers(high)``,
    reproduced from the generator's raw 64-bit words.

    A scalar ``integers`` call pays numpy's per-call overhead; ``step``
    makes about four per chain step.  This stream reads the words in blocks
    and applies numpy's rules itself, so a sequence of ``integers(high)``
    calls returns what the same calls on the Generator return:

    - ``high == 1`` returns 0 and draws nothing;
    - ``high <= 2**32`` draws 32-bit halves, the low half of a word first
      and its high half on the next such draw (PCG64's ``next_uint32``);
    - a larger ``high`` takes a whole word and leaves a pending half
      pending;
    - each draw x of w bits is scaled by Lemire's method (ACM TOMACS 2019):
      m = x * high, retried while ``m mod 2**w < 2**w mod high``, and the
      result is ``m >> w``.
    """

    def __init__(self, seed):
        import numpy as np

        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self._words = iter(())
        self._half = None

    def _word(self):
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._raw(RAW_BLOCK).tolist())
            return next(self._words)

    def integers(self, high):
        if high == 1:
            return 0
        if high > 1 << 32:
            threshold = (1 << 64) % high
            while True:
                m = self._word() * high
                if m & 0xFFFFFFFFFFFFFFFF >= threshold:
                    return m >> 64
        threshold = (1 << 32) % high
        while True:
            x = self._half
            if x is None:
                x = self._word()
                self._half = x >> 32
                x &= 0xFFFFFFFF
            else:
                self._half = None
            m = x * high
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


def step(state, rng):
    """One lazy chain step on the ``MaskState`` ``state``, in place; the
    state is unchanged when the proposal is rejected."""
    move = propose(state.n, rng)
    if move is None:
        return state, move, False
    return state, move, state.try_move(move)


def _candidates(s):
    """Every move whose tuple fits the marks of the mask state ``s``: line
    and immorality tuples in sorted order only."""
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
            for a, c in itertools.combinations(_bits(ends), 2):
                if not adj[a] >> c & 1:
                    moves.append(Move(kind, (a, b, c)))
    return moves


def _accepted(s):
    """Yield (move, key of the result) for every move accepted from the mask
    state ``s``, which is back as it was after each."""
    for m in _candidates(s):
        if s.try_move(m):
            yield m, s.key()
            s.undo(m)


def legal_moves(state):
    """All (move, result) pairs with a precondition-satisfying tuple that are
    accepted from ``state``."""
    return [(m, Pdag(*key)) for m, key in _accepted(MaskState(state))]


def _breadth_first(start, depth=None):
    """Breadth-first search over accepted moves from ``start``.

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
        for m, key in _accepted(MaskState(states[i])):
            j = index.setdefault(key, len(states))
            if j == len(states):
                states.append(Pdag(*key))
                levels.append(levels[i] + 1)
            row.append((m, j))
        moves.append(row)
    return states, moves


def exact_kernel(start):
    """The states reachable from ``start`` and the chain's exact kernel on them.

    One breadth-first search over accepted moves returns ``(states, K)``:
    ``states`` in discovery order, and ``K[i]`` a dict ``{j: Fraction}``
    holding only the moves that exist, with the holding probability at
    ``K[i][i]``.  Each of the six kinds carries weight 1/6 split uniformly
    over its tuple domain (ordered pairs for arc kinds, unordered pairs for
    line kinds, middle-plus-unordered-outer triples for immorality kinds).
    The chain is connected (see ``emptying_sequence``), so from any start
    the states are all essential graphs on ``start.n`` vertices.
    """
    states, moves = _breadth_first(start)
    n = start.n
    # tuple domain sizes; an empty domain (pairs at n = 1, triples at n = 2)
    # means legal_moves never yields that kind, so its 1/6 stays on the diagonal
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


def _marks(p):
    """The (u, v, mark) triple of each edge of ``p``, u < v, in the
    convention of ``_mark``."""
    out = {(u, v, "line") for u, v in p.lines}
    out.update((u, v, ">") if u < v else (v, u, "<") for u, v in p.arcs)
    return out


def hamming_distance(p1, p2):
    """Number of vertex pairs whose edge mark differs."""
    if p1.n != p2.n:
        raise ValueError("graphs must share a vertex count")
    return len({(u, v) for u, v, _ in _marks(p1) ^ _marks(p2)})


def two_step_path(e1, e2):
    """Moves (at most two) joining essential graphs at Hamming distance one.

    A pair differing by edge presence is joined by a single insert or delete;
    a pair differing by arc direction is joined by deleting the arc and
    reinserting it reversed.  Each returned move is verified by application.
    """
    if hamming_distance(e1, e2) != 1:
        raise ValueError("graphs must be at Hamming distance 1")
    m1, m2 = _marks(e1), _marks(e2)
    gone, new = m1 - m2, m2 - m1
    if {m for *_, m in gone | new} in ({"line", ">"}, {"line", "<"}):
        raise ValueError(
            "an arc cannot face a line at Hamming distance 1 between "
            "essential graphs"
        )

    def edit(verb, triple):
        u, v, mark = triple
        if mark == "line":
            return Move(f"{verb}-line", (u, v))
        return Move(f"{verb}-arc", (u, v) if mark == ">" else (v, u))

    moves = [edit("delete", t) for t in gone] + [edit("insert", t) for t in new]
    s = MaskState(e1)
    for mv in moves:
        if not s.try_move(mv):
            raise ValueError(f"joining move {mv} was rejected")
    if s.key() != e2.key():
        raise ValueError("joining moves did not reach the target")
    return moves


def _mark(p, u, v):
    """The mark of the pair u, v: "line", ">" for u->v, "<" for v->u, or None."""
    if edge_key(u, v) in p.lines:
        return "line"
    if (u, v) in p.arcs:
        return ">"
    if (v, u) in p.arcs:
        return "<"
    return None


def reachable_within(state, depth):
    """Canonical key -> state for every state within ``depth`` accepted moves."""
    return {s.key(): s for s in _breadth_first(state, depth)[0]}


# ---------------------------------------------------------------------------
# constructive emptying


def emptying_sequence(eg):
    """Chain moves taking an essential graph to the empty graph.

    Three stages: delete lines following a perfect elimination ordering of
    each chain component; dismantle incoming arcs of maximal vertices of
    poset height >= 3 (non-cover parents first, the parents a single cover
    shares before the others; then the covers by height, highest last);
    finally prune each remaining collider to two arcs, convert it to lines,
    and delete them.  Every move must be accepted, so every intermediate is
    the literal edit and essential; a rejected move raises.  The moves run
    on one ``MaskState``.
    """
    moves = []
    s = MaskState(eg)

    def play(move):
        if not s.try_move(move):
            raise ValueError(f"emptying move {move} was rejected at {s.pdag()!r}")
        moves.append(move)

    # stage 1: undirected edges, simplicial vertices first
    verts, und = eg.undirected_part()
    eliminated = set()
    for v in perfect_elimination_ordering(und):
        for w in sorted(und.adj[v]):
            if w not in eliminated:
                play(Move("delete-line", edge_key(verts[v], verts[w])))
        eliminated.add(v)

    # stage 2: maximal vertices of height >= 3, found in the poset of the
    # vertices with arcs, relabelled in increasing order (as
    # ``undirected_part`` does), so every order below is the original one
    while True:
        verts = sorted({v for arc in s.arcs for v in arc})
        local = {v: i for i, v in enumerate(verts)}
        dag = Dag(len(verts), [(local[u], local[v]) for u, v in s.arcs])
        poset = reachability_poset(dag)
        heights = poset_stats(poset).heights
        target = None
        for v in range(dag.n):
            if dag.parents[v] and not dag.children[v] and heights[v] >= 3:
                target = v
                break
        if target is None:
            break
        v = target
        covers = sorted(poset.covers(v), key=lambda w: (heights[w], w))
        shared = dag.parents[covers[0]] if len(covers) == 1 else ()
        rest = sorted(
            dag.parents[v] - set(covers), key=lambda x: (x not in shared, x)
        )
        for x in rest + covers:
            play(Move("delete-arc", (verts[x], verts[v])))

    # stage 3: colliders of height two; each vertex's moves touch only its
    # own parents, so the parents of the later vertices stay as they were
    for b in sorted({b for _, b in s.arcs}):
        parents = list(_bits(s.par[b]))
        for x in parents[:-2]:
            play(Move("delete-arc", (x, b)))
        a, c = parents[-2], parents[-1]
        play(Move("remove-immorality", (a, b, c)))
        play(Move("delete-line", edge_key(a, b)))
        play(Move("delete-line", edge_key(b, c)))

    if s.arcs or s.lines:
        raise ValueError("emptying did not reach the empty graph")
    return moves


# ---------------------------------------------------------------------------
# the long-path counterexample family


def counterexample_graph(k, chord_ab=True, chord_cd=False):
    """One member of the family on 5k+4 vertices and 12k+5 edges.

    Hubs a, b, c, d = 0..3 carry the undirected cycle a-c-b-d-a plus the
    chosen chord(s).  Four independent k-sets attach by lines to the four
    cycle-adjacent hub pairs; a fifth receives arcs from all four hubs, so
    each such arc is protected by the hub pair that the chord leaves
    nonadjacent ((b) across the diagonal, (d) through the lines).
    """
    if k < 1:
        raise ValueError("k must be positive")
    a, b, c, d = 0, 1, 2, 3
    lines = {edge_key(a, c), edge_key(c, b), edge_key(b, d), edge_key(d, a)}
    if chord_ab:
        lines.add(edge_key(a, b))
    if chord_cd:
        lines.add(edge_key(c, d))
    hub_pairs = [(a, c), (c, b), (b, d), (d, a)]
    base = 4
    for pair in hub_pairs:
        for i in range(k):
            x = base + i
            lines.add(edge_key(x, pair[0]))
            lines.add(edge_key(x, pair[1]))
        base += k
    arcs = set()
    for i in range(k):
        x = base + i
        for h in (a, b, c, d):
            arcs.add((h, x))
    return Pdag(5 * k + 4, arcs, lines)


def counterexample_family(k):
    """The pair of essential graphs at Hamming distance two that no short
    move path joins: identical except that one has the a-b chord, the other
    the c-d chord."""
    return (
        counterexample_graph(k, chord_ab=True, chord_cd=False),
        counterexample_graph(k, chord_ab=False, chord_cd=True),
    )
