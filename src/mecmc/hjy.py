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
and chain components the edit touches; ``proposals`` decodes its moves
from numpy's PCG64 words a block at a time.  The exact kernel's
breadth-first search codes each state as an int, two bits per vertex pair,
and moves one ``MaskState`` from state to state.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from array import array
from dataclasses import dataclass

from .graphs import Dag, Pdag, edge_key, perfect_elimination_ordering
from .posets import poset_stats, reachability_poset

# A kind's index k is its place here: k & 1 marks a delete or a remove, and
# k >> 1 its tuple domain (0 ordered pairs, 1 unordered pairs, 2 triples).
MOVE_KINDS = (
    "insert-arc",
    "delete-arc",
    "insert-line",
    "delete-line",
    "make-immorality",
    "remove-immorality",
)
_KIND_INDEX = {kind: k for k, kind in enumerate(MOVE_KINDS)}
_ARITY = {kind: 3 if k >= 4 else 2 for k, kind in enumerate(MOVE_KINDS)}


@dataclass(slots=True, unsafe_hash=True)
class Move:
    """One chain move: a kind of ``MOVE_KINDS`` and its vertex tuple.  The
    walk and the exact kernel carry a move as its kind index and tuple."""

    kind: str
    vertices: tuple

    def __post_init__(self):
        if _ARITY.get(self.kind) != len(self.vertices):
            if self.kind not in _ARITY:
                raise ValueError(f"unknown move kind {self.kind!r}")
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} vertices")


class _EdgeLines(dict):
    """Each edge's text line, made on first lookup; emptied at 2**16 edges."""

    def __init__(self, mark):
        self.mark = mark

    def __missing__(self, edge):
        if len(self) >= 1 << 16:
            self.clear()
        line = self[edge] = f"{edge[0]} {self.mark} {edge[1]}\n"
        return line


_LINE_TEXT, _ARC_TEXT = _EdgeLines("--"), _EdgeLines("->")


def state_hash(p):
    """Stable short digest of ``format_pdag`` of a ``Pdag`` or a
    ``MaskState``; both hold lines as sorted pairs, so cached lines serve."""
    text = [f"n {p.n}\n"] + [_LINE_TEXT[e] for e in sorted(p.lines)]
    text += [_ARC_TEXT[e] for e in sorted(p.arcs)]
    return hashlib.sha256("".join(text).encode()).hexdigest()[:12]


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
    tries a move's literal edit and keeps it when the result is essential.
    The state before an edit is essential, so the test covers only what the
    edit can break (Chickering, JMLR 2002, checks operator validity the
    same way): the state must be built from an essential graph.  Below, a
    move is its kind index k and its vertex tuple.
    """

    def __init__(self, p):
        n = self.n = p.n
        self.par, self.chi, self.und, self.adj = [0] * n, [0] * n, [0] * n, [0] * n
        self.arcs, self.lines = set(p.arcs), set(p.lines)
        for u, v in p.arcs:
            self._toggle(0, (u, v))
        for u, v in p.lines:
            self._toggle(2, (u, v))

    def key(self):
        """The ``Pdag.key()`` of the state."""
        return (self.n, tuple(sorted(self.arcs)), tuple(sorted(self.lines)))

    def pdag(self):
        return Pdag(self.n, self.arcs, self.lines)

    def try_move(self, move):
        """``try_edit`` of the ``Move`` ``move``."""
        return self.try_edit(_KIND_INDEX[move.kind], move.vertices)

    def try_edit(self, k, vs):
        """Apply the move of kind index k on the tuple vs in place and return
        True when its literal edit is an essential graph; otherwise leave
        the state as it was and return False."""
        if not (self._fits(k, vs) and self._trial(k, vs)):
            return False
        self._toggle(k, vs)
        self._record(k, vs)
        return True

    def _trial(self, k, vs):
        """Whether the literal edit of a fitting move is essential; the
        state is as it was afterwards.  An inserted arc u->v must be
        strongly protected, and with u, v nonadjacent before the edit its
        protection reads the same before as after, so most insert-arc
        trials end without an edit."""
        if k == 0 and not self._protected(*vs):
            return False
        self._toggle(k, vs)
        essential = self._essential_after(k, vs)
        self._toggle(k, vs)
        return essential

    def _toggle(self, k, vs):
        """Flip the mask bits of the pairs a move edits.  Where the move fits
        this is its literal edit, and a second call undoes it: the inverse
        kind edits the same marks back.  An immorality a->b<-c swaps the
        lines a-b, b-c for arcs and leaves ``adj`` as it was."""
        if k < 4:
            u, v = vs
            bu, bv = 1 << u, 1 << v
            if k < 2:
                self.chi[u] ^= bv
                self.par[v] ^= bu
            else:
                self.und[u] ^= bv
                self.und[v] ^= bu
            self.adj[u] ^= bv
            self.adj[v] ^= bu
        else:
            a, b, c = vs
            bb, ends = 1 << b, 1 << a | 1 << c
            und, chi = self.und, self.chi
            und[a] ^= bb
            und[c] ^= bb
            und[b] ^= ends
            chi[a] ^= bb
            chi[c] ^= bb
            self.par[b] ^= ends

    def _record(self, k, vs):
        """Flip the pairs a move edits in ``arcs`` and ``lines``, as
        ``_toggle`` flips them in the masks."""
        if k < 4:
            u, v = vs
            if k < 2:
                self.arcs ^= {(u, v)}
            else:
                self.lines ^= {(u, v) if u < v else (v, u)}
        else:
            a, b, c = vs
            self.lines ^= {(a, b) if a < b else (b, a), (b, c) if b < c else (c, b)}
            self.arcs ^= {(a, b), (c, b)}

    def _fits(self, k, vs):
        """Whether the marks fit the move: no repeated vertex, no insert on
        an adjacent pair, no delete of a missing edge, and an immorality's
        outer vertices nonadjacent with both its edges lines (make) or both
        arcs into the middle vertex (remove)."""
        if k >= 4:
            a, b, c = vs
            if a == b or b == c or a == c or self.adj[a] >> c & 1:
                return False
            ends = self.par[b] if k & 1 else self.und[b]
            return ends >> a & ends >> c & 1 == 1
        u, v = vs
        if u == v:
            return False
        if not k & 1:
            return not self.adj[u] >> v & 1
        return (self.chi if k == 1 else self.und)[u] >> v & 1 == 1

    def _essential_after(self, k, vs):
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
        if k == 1 or k == 3:
            u, v = vs
            if chi[u] & und[v] or chi[v] & und[u]:
                return False
        protected = self._protected
        for y in vs:
            line_y, m = und[y], par[y]
            while m:
                low = m & -m
                m ^= low
                x = low.bit_length() - 1
                if line_y & ~adj[x] or not protected(x, y):
                    return False
            m = chi[y]
            while m:
                low = m & -m
                m ^= low
                if not protected(y, low.bit_length() - 1):
                    return False
        if k == 0:
            u, v = vs
            return not self._reach(1 << v, True, 1 << u) >> u & 1
        if k == 2:
            u, v = vs
            return self._line_keeps_chordal(u, v) and not self._component_cycle(u)
        if k == 3:
            u, v = vs
            return self._is_clique(und[u] & und[v])
        if k == 4:
            a, b, c = vs
            ends = 1 << a | 1 << c
            return not self._reach(1 << b, True, ends) & ends
        if k == 5:
            a, b, c = vs
            return (
                self._line_keeps_chordal(a, b)
                and self._line_keeps_chordal(c, b)
                and not self._component_cycle(b)
            )
        return True  # delete-arc

    def _protected(self, x, y):
        """Whether the arc x->y is strongly protected: (a) w->x with w, y
        nonadjacent; (b) w->y with w, x nonadjacent; (c) x->w->y; (d) lines
        w1-x, w2-x with w1->y, w2->y and w1, w2 nonadjacent.  This is
        ``essential.is_strongly_protected`` on the masks."""
        par, adj = self.par, self.adj
        py = par[y]
        if par[x] & ~adj[y] or py & ~adj[x] & ~(1 << x) or self.chi[x] & py:
            return True  # (a), (b), (c)
        cand = m = self.und[x] & py
        while m:
            low = m & -m
            m ^= low
            if cand & ~(adj[low.bit_length() - 1] | low):
                return True  # (d)
        return False

    def _reach(self, start, directed, stop=0, block=0):
        """Mask of the vertices reached from mask ``start`` along lines, and
        arcs too when ``directed``, never entering ``block``; the search
        ends early once it reaches a vertex of ``stop``."""
        chi, und = self.chi, self.und
        seen = frontier = start
        while frontier and not seen & stop:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            new = (und[v] | chi[v] if directed else und[v]) & ~(seen | block)
            seen |= new
            frontier |= new
        return seen

    def _component_cycle(self, x):
        """Whether a partially directed cycle passes through the chain
        component of ``x``: an arc leaving it leads back into it."""
        chi = self.chi
        comp = m = self._reach(1 << x, False)
        out = 0
        while m:
            low = m & -m
            m ^= low
            out |= chi[low.bit_length() - 1]
        return self._reach(out, True, comp) & comp != 0

    def _line_keeps_chordal(self, x, y):
        """Whether the line x-y, present now, keeps the lines chordal given
        that they were chordal without it: exactly when no path of lines
        joins x to y around their common line neighbours (its shortest form
        would close a chordless cycle with x-y).  The search avoids y, so it
        never uses x-y or another line new at y."""
        und = self.und
        block = und[x] & und[y] | 1 << y
        target = und[y] & ~block & ~(1 << x)
        return not target or not self._reach(1 << x, False, target, block) & target

    def _is_clique(self, m):
        und = self.und
        while m:
            low = m & -m
            m ^= low
            if m & ~und[low.bit_length() - 1]:
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


RAW_BLOCK = 512  # raw PCG64 words ``proposals`` decodes at a time


def proposals(n, bits):
    """The walk's moves on n vertices, forever: (kind index k, vertex
    tuple), or None when kind k has no tuple on n vertices.  They are the
    moves of one ``numpy.random.Generator(bits).integers`` call per draw:
    integers(6) for k, then x = integers(n), y = integers(n - 1) and, for
    an immorality, z = integers(n - 2), made a tuple by ``_tuple``.

    From 4 to 2**32 vertices every draw is a 32-bit half of the words of
    the ``PCG64`` ``bits``, low half first, scaled by Lemire's rule (ACM
    TOMACS 2019; ``_lemire``), and a rejected draw is retried on the next
    half.  So the words are read ``RAW_BLOCK`` at a time, each high is
    applied to all their halves at once, and a step reads its draws at the
    next three or four halves.  Elsewhere a draw may take a whole word while
    a half waits, or take nothing (integers(1)): there the draws are the
    Generator's own.
    """
    import numpy as np

    if n < 4 or n > 1 << 32:
        draw = np.random.Generator(bits).integers
        while True:
            k = int(draw(6))
            size = 3 if k >= 4 else 2
            xyz = [int(draw(n - i)) for i in range(size)] if n >= size else None
            yield xyz and (k, _tuple(k, *xyz))
    tables, p = ([], [], [], []), 0  # the halves scaled to 6, n, n - 1, n - 2
    kinds, xs, ys, zs = tables
    while True:
        try:
            k, x, y = kinds[p], xs[p + 1], ys[p + 2]
            z = zs[p + 3] if k >= 4 else 0
        except IndexError:  # the step runs past the block: decode the next
            words = bits.random_raw(RAW_BLOCK)
            block = np.stack((words & 0xFFFFFFFF, words >> np.uint64(32)), axis=1)
            for table, high in zip(tables, (6, n, n - 1, n - 2)):
                table[:] = table[p:] + _lemire(block.ravel(), high)
            p = 0
        else:
            if k | x | y | z >= 0:  # a rejected draw reads -1
                p += 4 if k >= 4 else 3
                yield k, _tuple(k, x, y, z)
                continue
            # dropping the half of the first rejected draw retries it on the next
            drop = p + (k, x, y, z).index(-1)
            for table in tables:
                del table[drop]


def _lemire(halves, high):
    """Each 32-bit draw h of ``halves`` scaled to range(high), as a list:
    m >> 32 for m = h * high, or -1, rejected, when m mod 2**32 is below
    2**32 mod high.  ``flipchain._integers`` decodes the flip walk's draws
    by the same rule."""
    import numpy as np

    m = halves * np.uint64(high)
    scaled = (m >> np.uint64(32)).astype(np.int64)
    scaled[m & 0xFFFFFFFF < np.uint64((1 << 32) % high)] = -1
    return scaled.tolist()


def _tuple(k, x, y, z=0):
    """The tuple of a kind-k move drawn as x, y, z: an edge from x to the
    y-th other vertex (a line sorted), or an immorality a->x<-c, a the y-th
    vertex other than x, c the z-th other than a and x, with a < c."""
    if k >= 4:
        b, a = x, y + (y >= x)
        lo, hi = (a, b) if a < b else (b, a)
        c = z + (z >= lo)
        c += c >= hi
        return (a, b, c) if a < c else (c, b, a)
    v = y + (y >= x)
    return (v, x) if k >= 2 and v < x else (x, v)


def step(state, moves):
    """One lazy chain step on the ``MaskState`` ``state``, in place, with
    the next move of the ``proposals`` stream ``moves``; the state is
    unchanged when the move is rejected."""
    move = next(moves)
    return state, move, move is not None and state.try_edit(*move)


# ---------------------------------------------------------------------------
# the exact kernel


def _pairs(n):
    """The vertex pairs u < v in lexicographic order, and ``shift`` with
    ``shift[u][v] == shift[v][u]`` twice the index of the pair {u, v}.

    A state's code holds the mark of pair p in its bits 2p and 2p + 1: 0 for
    no edge, 1 for the line u-v, 2 for u->v and 3 for v->u."""
    pairs = list(itertools.combinations(range(n), 2))
    shift = [[0] * n for _ in range(n)]
    for p, (u, v) in enumerate(pairs):
        shift[u][v] = shift[v][u] = 2 * p
    return pairs, shift


def _encode(p, shift):
    code = 0
    for u, v in p.lines:
        code |= 1 << shift[u][v]
    for u, v in p.arcs:
        code |= (2 if u < v else 3) << shift[u][v]
    return code


def _decode(n, code, pairs):
    arcs, lines = [], []
    while code:
        p = (code & -code).bit_length() - 1 >> 1
        mark = code >> 2 * p & 3
        code ^= mark << 2 * p
        u, v = pairs[p]
        if mark == 1:
            lines.append((u, v))
        else:
            arcs.append((u, v) if mark == 2 else (v, u))
    return Pdag(n, arcs, lines)


def _recode(s, have, want, pairs):
    """Edit the masks of ``s`` from the state coded ``have`` to the state
    coded ``want``, one changed pair at a time.  ``arcs`` and ``lines`` stay
    as they were: the search reads only the masks."""
    diff = have ^ want
    toggle = s._toggle
    while diff:
        p = (diff & -diff).bit_length() - 1 >> 1
        diff &= ~(3 << 2 * p)
        u, v = pairs[p]
        for mark in (have >> 2 * p & 3, want >> 2 * p & 3):
            if mark == 1:
                toggle(2, (u, v))
            elif mark:
                toggle(0, (u, v) if mark == 2 else (v, u))


def _candidates(s, shift):
    """(kind index, vertices, code change) of every move whose tuple fits
    the marks of the mask state ``s``, in a fixed order: each ordered
    nonadjacent pair (insert-arc, then insert-line when u < v), the arcs,
    the lines, then per middle vertex b its make- and remove-immorality
    triples (a, b, c), a < c nonadjacent."""
    n, par, chi, und, adj = s.n, s.par, s.chi, s.und, s.adj
    out = []
    add = out.append
    every = (1 << n) - 1
    for u in range(n):
        at = shift[u]
        m = every & ~adj[u] & ~(1 << u)
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            add((0, (u, v), (2 if u < v else 3) << at[v]))
            if u < v:
                add((2, (u, v), 1 << at[v]))
    for u in range(n):
        at, m = shift[u], chi[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            add((1, (u, v), (2 if u < v else 3) << at[v]))
    for u in range(n):
        at, m = shift[u], und[u] >> u << u
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            add((3, (u, v), 1 << at[v]))
    for b in range(n):
        at = shift[b]
        for k, m in ((4, und[b]), (5, par[b])):
            while m:
                low = m & -m
                m ^= low
                a = low.bit_length() - 1
                ends = m & ~adj[a]
                while ends:
                    low = ends & -ends
                    ends ^= low
                    c = low.bit_length() - 1
                    # a line x-b becomes x->b: mark 1 <-> 2 when x < b, else 3
                    change = (3 if a < b else 2) << at[a] ^ (3 if c < b else 2) << at[c]
                    add((k, (a, b, c), change))
    return out


def _accepted(s, shift):
    """The candidates accepted from the mask state ``s``."""
    trial = s._trial
    return [move for move in _candidates(s, shift) if trial(move[0], move[1])]


def _search(start, depth=None):
    """Breadth-first search over accepted moves from the Pdag ``start``, on
    int-coded states and one ``MaskState`` moved from state to state.

    Returns ``(codes, rows, cols, kinds)``: the state codes in discovery
    order, and for each state fewer than ``depth`` moves from ``start``
    (each state when ``depth`` is None) one entry per accepted move: the
    state's index, the index of the result and the move's kind index.
    """
    pairs, shift = _pairs(start.n)
    s = MaskState(start)
    have = _encode(start, shift)
    codes, index = [have], {have: 0}
    rows, cols, kinds = array("i"), array("i"), array("b")
    i, level, level_end = 0, 0, 1
    while i < len(codes):
        if i == level_end:
            level, level_end = level + 1, len(codes)
        if level == depth:
            break
        code = codes[i]
        _recode(s, have, code, pairs)
        have = code
        for k, _, change in _accepted(s, shift):
            new = code ^ change
            j = index.setdefault(new, len(codes))
            if j == len(codes):
                codes.append(new)
            rows.append(i)
            cols.append(j)
            kinds.append(k)
        i += 1
    return codes, rows, cols, kinds


class Kernel:
    """The chain's exact kernel on the states reachable from a start.

    ``codes[i]`` is state i in the two-bit-per-pair code of ``_pairs``;
    ``state(i)`` decodes it to a ``Pdag``.  Accepted move t leads from state
    ``rows[t]`` to state ``cols[t]`` by a move of kind index ``kinds[t]``,
    with probability ``weights[kinds[t]] / denominator``: each of the six
    kinds carries 1/6 split uniformly over its tuple domain (ordered pairs
    for arc kinds, unordered pairs for line kinds, middle-plus-unordered-
    outer triples for immorality kinds), so ``denominator`` is 6 times the
    lcm of the nonempty domain sizes.  A state holds with what its moves
    leave; an empty domain (pairs at n = 1, triples at n = 2) has no moves,
    so its kind's 1/6 stays there.
    """

    def __init__(self, n, codes, rows, cols, kinds):
        self.n, self.codes = n, codes
        self.rows, self.cols, self.kinds = rows, cols, kinds
        domains = (n * (n - 1), n * (n - 1) // 2, n * (n - 1) * (n - 2) // 2)
        lcm = math.lcm(*(d for d in domains if d))
        self.denominator = 6 * lcm
        self.weights = tuple(
            lcm // domains[k >> 1] if domains[k >> 1] else 0 for k in range(6)
        )
        self._vertex_pairs = _pairs(n)[0]

    def __len__(self):
        return len(self.codes)

    def state(self, i):
        return _decode(self.n, self.codes[i], self._vertex_pairs)

    def holding(self):
        """The numerator of each state's holding probability."""
        stay, weights = [self.denominator] * len(self.codes), self.weights
        for i, k in zip(self.rows, self.kinds):
            stay[i] -= weights[k]
        return stay

    def entries(self):
        """(rows, cols, values) of the kernel as numpy arrays: one entry per
        move, then the diagonal, as ``flipchain._lambda2_sparse`` takes."""
        import numpy as np

        stay = np.arange(len(self.codes))
        w = np.asarray(self.weights)[np.asarray(self.kinds)]
        return (
            np.concatenate([np.asarray(self.rows), stay]),
            np.concatenate([np.asarray(self.cols), stay]),
            np.concatenate([w, self.holding()]) / self.denominator,
        )


def exact_kernel(start):
    """The states reachable from ``start`` and the chain's exact kernel on
    them, as a ``Kernel`` with the states in discovery order.

    The chain is connected (see ``emptying_sequence``), so from any start
    the states are all essential graphs on ``start.n`` vertices.
    """
    return Kernel(start.n, *_search(start))


def _marks(p):
    """The (u, v, mark) triple of each edge of ``p``, u < v: the mark is
    "line", ">" for u->v or "<" for v->u."""
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


def reachable_within(state, depth):
    """Canonical key -> state for every state within ``depth`` accepted moves."""
    kernel = Kernel(state.n, *_search(state, depth))
    return {p.key(): p for p in map(kernel.state, range(len(kernel)))}


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
