"""Tests for the lazy reversible chain on essential graphs."""

import hashlib
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecmc import hjy
from mecmc.essential import (
    enumerate_essential_graphs,
    essential_graph_of_dag,
    is_essential_graph,
)
from mecmc.graphs import Dag, Pdag, edge_key, format_pdag, immoralities
from mecmc.hjy import (
    MOVE_KINDS,
    MaskState,
    Move,
    apply_move,
    consistent_extension,
    counterexample_family,
    counterexample_graph,
    emptying_sequence,
    exact_kernel,
    hamming_distance,
    proposals,
    reachable_within,
    state_hash,
    step,
    two_step_path,
)

from mecmc.flipchain import _lambda2_sparse
from oracles import (
    RawDraws,
    apply_move_by_full_test,
    hjy_breadth_first,
    hjy_exact_kernel,
    kernel_fractions,
    legal_moves,
    pair_mark,
    propose,
    propose_by_lists,
)
from strategies import small_dags


@pytest.fixture(scope="module")
def states3():
    return enumerate_essential_graphs(3)


@pytest.fixture(scope="module")
def states4():
    return enumerate_essential_graphs(4)


def test_move_validation():
    with pytest.raises(ValueError):
        Move("flip-arc", (0, 1))
    with pytest.raises(ValueError):
        Move("insert-arc", (0, 1, 2))
    with pytest.raises(ValueError):
        Move("make-immorality", (0, 1))
    m = Move("make-immorality", (0, 1, 2))
    assert m.kind in MOVE_KINDS


def test_move_equality_hash_and_repr():
    m = Move("insert-arc", (0, 1))
    assert m == Move("insert-arc", (0, 1))
    assert hash(m) == hash(Move("insert-arc", (0, 1)))
    assert m != Move("insert-arc", (1, 0))
    assert m != Move("insert-line", (0, 1))
    assert m != ("insert-arc", (0, 1))
    assert len({m, Move("insert-arc", (0, 1)), Move("delete-arc", (0, 1))}) == 2
    assert repr(m) == "Move(kind='insert-arc', vertices=(0, 1))"
    assert not hasattr(m, "__dict__")


def pdag_immoralities(p):
    """Colliders a->c<-b with a, b nonadjacent across arcs and lines, in the
    (a, b, c) convention of graphs.immoralities."""
    out = set()
    for c in range(p.n):
        for a, b in itertools.combinations(sorted(p.parents[c]), 2):
            if not p.adjacent(a, b):
                out.add((a, b, c))
    return frozenset(out)


def brute_extension_exists(p):
    """Try every orientation of the lines; an extension must be acyclic,
    keep the arcs, and have exactly the immoralities of the mixed graph."""
    from mecmc.graphs import is_acyclic

    lines = sorted(p.lines)
    base = pdag_immoralities(p)
    for bits in itertools.product((0, 1), repeat=len(lines)):
        arcs = set(p.arcs)
        arcs |= {(u, v) if b else (v, u) for (u, v), b in zip(lines, bits)}
        if not is_acyclic(p.n, arcs):
            continue
        if immoralities(Dag(p.n, arcs)) == base:
            return True
    return False


def test_consistent_extension_examples():
    tri = Pdag(3, [], [(0, 1), (0, 2), (1, 2)])
    d = consistent_extension(tri)
    assert d is not None
    assert d.skeleton().edges == tri.lines
    assert immoralities(d) == frozenset()

    forced = Pdag(3, [(0, 1)], [(1, 2)])
    d = consistent_extension(forced)
    assert d is not None and (1, 2) in d.arcs

    four_cycle = Pdag(4, [], [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert consistent_extension(four_cycle) is None

    stuck = Pdag(4, [(0, 1), (3, 2)], [(1, 2)])
    assert consistent_extension(stuck) is None


@settings(deadline=None, max_examples=150)
@given(small_dags(max_n=5), st.randoms(use_true_random=False))
def test_consistent_extension_matches_brute_oracle(d, r):
    # undirect a random subset of arcs to get an arbitrary mixed graph
    arcs = sorted(d.arcs)
    keep = [a for a in arcs if r.random() < 0.5]
    lines = [(min(u, v), max(u, v)) for u, v in arcs if (u, v) not in set(keep)]
    p = Pdag(d.n, keep, lines)
    got = consistent_extension(p)
    assert (got is not None) == brute_extension_exists(p)
    if got is not None:
        assert got.arcs >= p.arcs
        assert got.skeleton().edges == p.skeleton().edges
        assert immoralities(got) == pdag_immoralities(p)


def test_extensions_of_essential_graphs_stay_in_class(states4):
    for eg in states4:
        d = consistent_extension(eg)
        assert d is not None
        assert essential_graph_of_dag(d) == eg


# The marks each move kind needs at its pairs before the edit and leaves
# after it, in the convention of oracles.pair_mark: ">" is an arc from the
# pair's first vertex to its second, "line" a line, None no edge.
def move_marks(move):
    kind = move.kind
    if "immorality" in kind:
        a, b, c = move.vertices
        lines = {(a, b): "line", (c, b): "line", (a, c): None}
        arcs = {(a, b): ">", (c, b): ">", (a, c): None}
        return (lines, arcs) if kind == "make-immorality" else (arcs, lines)
    pair = tuple(move.vertices)
    edge = {pair: ">" if "arc" in kind else "line"}
    return ({pair: None}, edge) if kind.startswith("insert") else (edge, {pair: None})


def literal_edit(state, move):
    """The edit a move names, built from ``move_marks`` alone; None when the
    state does not carry the marks the move needs."""
    before, after = move_marks(move)
    if any(pair_mark(state, u, v) != m for (u, v), m in before.items()):
        return None
    touched = {frozenset(pair) for pair in after}
    arcs = {a for a in state.arcs if frozenset(a) not in touched}
    lines = {e for e in state.lines if frozenset(e) not in touched}
    for (u, v), m in after.items():
        if m == ">":
            arcs.add((u, v))
        elif m == "line":
            lines.add((min(u, v), max(u, v)))
    return Pdag(state.n, arcs, lines)


def repair_rule(state, move):
    """The acceptance rule apply_move used before it tested the edit for
    essentiality: repair the literal edit to the essential graph of a
    consistent extension and accept iff the repair changes nothing."""
    edited = literal_edit(state, move)
    if edited is None:
        return None
    ext = consistent_extension(edited)
    if ext is None or essential_graph_of_dag(ext) != edited:
        return None
    return edited


def all_moves(n):
    """Every move kind with every ordered tuple of distinct vertices."""
    for kind in MOVE_KINDS:
        size = 3 if "immorality" in kind else 2
        for vs in itertools.permutations(range(n), size):
            yield Move(kind, vs)


def test_apply_move_agrees_with_repair_rule_n4(states4):
    pairs = 0
    for s in states4:
        accepted = set()
        for m in all_moves(4):
            got = apply_move(s, m)
            assert got == repair_rule(s, m), (s, m)
            assert got == apply_move_by_full_test(s, m), (s, m)
            pairs += 1
            # legal_moves lists line and immorality tuples in sorted order only
            if got is not None and ("arc" in m.kind or m.vertices[0] < m.vertices[-1]):
                accepted.add((m, got))
        assert accepted == set(legal_moves(s))
    assert pairs == 17_760


@pytest.mark.parametrize(
    "n, seed", [(6, 61), (8, 83), (10, 101), (20, 211), (40, 409)]
)
def test_apply_move_agrees_with_repair_rule_on_walks(n, seed):
    # the walk also runs on one MaskState edited in place, as the CLI runs
    # it; every verdict and every state match the four-condition test of
    # the literal edit
    rng = np.random.default_rng(seed)
    state = Pdag(n, [], [])
    walk = MaskState(state)
    accepted = 0
    for _ in range(3000):
        move = propose(n, rng)
        got = apply_move(state, move)
        assert got == repair_rule(state, move), (state, move)
        assert got == apply_move_by_full_test(state, move), (state, move)
        assert walk.try_move(move) == (got is not None), (state, move)
        if got is not None:
            state = got
            accepted += 1
        assert walk.key() == state.key()
    assert accepted > 100
    fresh = MaskState(state)
    assert (fresh.par, fresh.chi, fresh.und, fresh.adj) == (
        walk.par,
        walk.chi,
        walk.und,
        walk.adj,
    )


@pytest.mark.parametrize("n", [3, 4, 10, 57])
def test_propose_matches_list_picks(n):
    fast = np.random.default_rng(n)
    lists = np.random.default_rng(n)
    for _ in range(20_000):
        assert propose(n, fast) == propose_by_lists(n, lists)


# highs on both sides of 2**32: 1 (numpy draws nothing), small ones, one
# that rejects about 30% of 32-bit draws (2**32 mod 3e9 = 1.29e9), the
# 32-bit edge and whole words
PCG64_HIGHS = (1, 2, 3, 6, 10, 57, 3 * 10**9, 2**32, 2**32 + 1, 5 * 10**9)
PCG64_HIGHS += (2**62 + 12345,)


def test_pcg64_draws_match_generator_integers():
    # the one-call-at-a-time reference that the zero-word test below checks
    # the decoder against
    for seed in range(200):
        pick = random.Random(seed)
        highs = [pick.choice(PCG64_HIGHS) for _ in range(1000)]
        stream = RawDraws(np.random.PCG64(seed))
        rng = np.random.default_rng(seed)
        want = [int(rng.integers(h)) for h in highs]
        assert [stream.integers(h) for h in highs] == want


def as_move(move):
    """A ``proposals`` move as the ``Move`` (or None) that ``propose`` makes."""
    return move and Move(MOVE_KINDS[move[0]], move[1])


def assert_proposals_follow(n, bits, rng, steps):
    moves = proposals(n, bits)
    for _ in range(steps):
        assert as_move(next(moves)) == propose(n, rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 57])
def test_pcg64_draws_propose_like_generator(monkeypatch, n):
    # a three-word block makes steps straddle block edges, with a half
    # pending; below n = 4, where some draws are integers(1) and draw
    # nothing, the stream makes the Generator's own calls
    monkeypatch.setattr(hjy, "RAW_BLOCK", 3)
    assert_proposals_follow(n, np.random.PCG64(n), np.random.default_rng(n), 5000)


# 2**32 mod 3e9 = 1.29e9, so about 30% of the vertex draws are rejected and
# retried, across block edges; from 2**32 + 1 on a vertex draw takes a
# whole word while the half after a kind draw waits
@pytest.mark.parametrize("n", [3 * 10**9, 2**32, 2**32 + 1, 5 * 10**9])
def test_pcg64_proposals_at_large_n(monkeypatch, n):
    monkeypatch.setattr(hjy, "RAW_BLOCK", 3)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        assert_proposals_follow(n, np.random.PCG64(seed), rng, 2000)


class Spliced:
    """The raw words of ``PCG64(seed)`` with a zero word put in at each
    index of ``zeros``."""

    def __init__(self, seed, zeros):
        self.words = np.random.PCG64(seed).random_raw(5000).tolist()
        for i in sorted(zeros, reverse=True):
            self.words.insert(i, 0)
        self.words.reverse()

    def random_raw(self, size=None):
        if size is None:
            return self.words.pop()
        return np.array([self.words.pop() for _ in range(size)], dtype=np.uint64)


@pytest.mark.parametrize("zeros", [[0], [1, 2], [5, 40, 41, 42, 300]])
def test_pcg64_proposals_retry_a_zero_word(monkeypatch, zeros):
    # a zero half is rejected for 6, 10 and 9 (2**32 mod 6 = 4, mod 10 = 6,
    # mod 9 = 4) and taken as 0 for 8, which divides 2**32
    monkeypatch.setattr(hjy, "RAW_BLOCK", 3)
    for seed in range(20):
        draws = RawDraws(Spliced(seed, zeros))
        assert_proposals_follow(10, Spliced(seed, zeros), draws, 1000)


def test_state_hash_is_the_sha256_of_format_pdag():
    def want(p):
        return hashlib.sha256(format_pdag(p).encode()).hexdigest()[:12]

    for n, seed in ((10, 3), (12, 4), (40, 5)):
        moves = proposals(n, np.random.PCG64(seed))
        s, seen = MaskState(Pdag(n)), 0
        for _ in range(3000):
            s, move, accepted = step(s, moves)
            if accepted:
                assert state_hash(s) == want(s) == state_hash(s.pdag())
                seen += 1
        assert seen > 100
    # more edges than the per-edge line cache keeps
    arcs = [(v, v + 1) for v in range(0, 69_999, 2)]
    path = Pdag(70_000, arcs, [(v, v + 1) for v in range(1, 69_999, 2)])
    assert state_hash(path) == want(path)


def test_accepted_moves_are_literal_edits_n4(states4):
    for s in states4:
        for m, r in legal_moves(s):
            assert hamming_distance(s, r) == (2 if "immorality" in m.kind else 1)
            _, after = move_marks(m)
            assert all(pair_mark(r, u, v) == mark for (u, v), mark in after.items())


def test_apply_move_examples():
    empty = Pdag(3, [], [])
    got = apply_move(empty, Move("insert-line", (0, 1)))
    assert got == Pdag(3, [], [(0, 1)])

    # inserting an arc next to a line would leave a -> b - c after the edit,
    # which is not essential, so the move is rejected
    line = Pdag(3, [], [(0, 1)])
    assert apply_move(line, Move("insert-arc", (2, 1))) is None

    # edge already present
    assert apply_move(line, Move("insert-arc", (0, 1))) is None
    assert apply_move(line, Move("insert-line", (0, 1))) is None
    # self-pair proposals are rejected, not errors
    assert apply_move(empty, Move("insert-arc", (1, 1))) is None


def test_apply_move_immorality_round_trip():
    two_lines = Pdag(3, [], [(0, 1), (1, 2)])
    collider = apply_move(two_lines, Move("make-immorality", (0, 1, 2)))
    assert collider == Pdag(3, [(0, 1), (2, 1)], [])
    back = apply_move(collider, Move("remove-immorality", (0, 1, 2)))
    assert back == two_lines


def test_deleting_a_collider_arc_is_rejected():
    # the literal edit 0->1 alone is not an essential graph, so the chain
    # refuses the move; this is what keeps the kernel symmetric
    collider = Pdag(3, [(0, 1), (2, 1)], [])
    assert apply_move(collider, Move("delete-arc", (2, 1))) is None
    line = Pdag(3, [], [(0, 1)])
    assert apply_move(line, Move("insert-arc", (2, 1))) is None


def test_every_accepted_result_is_essential(states3):
    for s in states3:
        for move, result in legal_moves(s):
            assert is_essential_graph(result)
            back = apply_move(
                result,
                Move(
                    {
                        "insert-arc": "delete-arc",
                        "delete-arc": "insert-arc",
                        "insert-line": "delete-line",
                        "delete-line": "insert-line",
                        "make-immorality": "remove-immorality",
                        "remove-immorality": "make-immorality",
                    }[move.kind],
                    move.vertices,
                ),
            )
            assert back == s


def kernel_checks(n, oracle):
    states, K = kernel_fractions(exact_kernel(Pdag(n, [], [])))
    m = len(states)
    assert len(K) == m
    keys = [s.key() for s in states]
    assert len(set(keys)) == m
    assert set(keys) == {s.key() for s in oracle}
    for i in range(m):
        assert sum(K[i].values()) == Fraction(1)
        assert K[i][i] > 0  # lazy: strictly positive holding probability
        for j in range(i + 1, m):  # a missing entry reads as 0
            assert K[i].get(j, 0) == K[j].get(i, 0)
    uniform = [Fraction(1, m)] * m
    pushed = [
        sum(uniform[i] * K[i].get(j, 0) for i in range(m)) for j in range(m)
    ]
    assert pushed == uniform


def test_exact_kernel_n1():
    states = enumerate_essential_graphs(1)
    assert len(states) == 1
    kernel_checks(1, states)


def test_exact_kernel_n2():
    states = enumerate_essential_graphs(2)
    assert len(states) == 2
    kernel_checks(2, states)


def test_exact_kernel_n3(states3):
    assert len(states3) == 11
    kernel_checks(3, states3)


def test_exact_kernel_n4(states4):
    assert len(states4) == 185
    kernel_checks(4, states4)


def test_exact_kernel_n5():
    states, K = kernel_fractions(exact_kernel(Pdag(5, (), ())))
    assert len(states) == 8782
    for i, row in enumerate(K):
        assert sum(row.values()) == 1
        assert all(K[j].get(i) == w for j, w in row.items())


# sha256 of repr((state keys in discovery order, (i, j, kind) of every
# move)) for the search from the empty graph on five vertices, recorded
# from the search that built a Move per candidate and a Pdag per state
# (``oracles.hjy_breadth_first`` gives the same digest, in seconds more)
KERNEL5_DIGEST = "ee3595bad8943de27e83ef7232f42d46fc5aa44261dfe6ab6b187fd7600ca057"


@pytest.fixture(scope="module")
def kernel5():
    return exact_kernel(Pdag(5))


def test_exact_kernel_n5_discovery_order_is_pinned(kernel5):
    kernel = kernel5
    keys = [kernel.state(i).key() for i in range(len(kernel))]
    text = repr((keys, _kernel_moves(kernel)))
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL5_DIGEST


def test_exact_kernel_stores_only_existing_moves():
    # one entry per accepted move plus the diagonal
    start = Pdag(3, [], [])
    states, K = kernel_fractions(exact_kernel(start))
    assert states[0] == start
    index = {s.key(): i for i, s in enumerate(states)}
    for i, s in enumerate(states):
        moves = legal_moves(s)
        assert set(K[i]) == {i} | {index[r.key()] for _, r in moves}
        assert len(K[i]) == len(moves) + 1


def test_exact_kernel_hand_values():
    # n = 2: only the line is essential, and its kind's 1/6 covers one pair
    states, K = kernel_fractions(exact_kernel(Pdag(2, [], [])))
    assert states == [Pdag(2, [], []), Pdag(2, [], [(0, 1)])]
    assert K == [
        {0: Fraction(5, 6), 1: Fraction(1, 6)},
        {0: Fraction(1, 6), 1: Fraction(5, 6)},
    ]
    # n = 3: a line insert weighs 1/6 over three pairs; the collider
    # 0->1<-2 leaves only by remove-immorality, 1/6 over three triples
    states, K = kernel_fractions(exact_kernel(Pdag(3, [], [])))
    index = {s.key(): i for i, s in enumerate(states)}
    singles = [index[Pdag(3, [], [e]).key()] for e in ((0, 1), (0, 2), (1, 2))]
    assert K[0] == {0: Fraction(5, 6), **dict.fromkeys(singles, Fraction(1, 18))}
    v = index[Pdag(3, [(0, 1), (2, 1)], []).key()]
    path = index[Pdag(3, [], [(0, 1), (1, 2)]).key()]
    assert K[v] == {v: Fraction(17, 18), path: Fraction(1, 18)}


def test_exact_kernel_from_any_start(states3):
    # the chain is connected, so every start finds every state
    want = {s.key() for s in states3}
    for start in states3:
        states, _ = kernel_fractions(exact_kernel(start))
        assert states[0] == start
        assert {s.key() for s in states} == want


def test_irreducible_from_empty(states3, states4):
    reach3 = reachable_within(Pdag(3, [], []), 10)
    assert len(reach3) == len(states3) == 11
    reach4 = reachable_within(Pdag(4, [], []), 12)
    assert len(reach4) == len(states4) == 185


def _kernel_moves(kernel):
    return [
        (i, j, MOVE_KINDS[k]) for i, j, k in zip(kernel.rows, kernel.cols, kernel.kinds)
    ]


def _kernel_cases():
    yield from (Pdag(n) for n in range(1, 5))
    yield from enumerate_essential_graphs(3)


@pytest.mark.parametrize("start", list(_kernel_cases()), ids=repr)
def test_array_kernel_equals_object_oracle(start):
    # states in discovery order, moves in candidate order, and every
    # Fraction entry with its row's order, against the search that builds a
    # Pdag and a Move per candidate
    kernel = exact_kernel(start)
    states, moves = hjy_breadth_first(start)
    assert [kernel.state(i) for i in range(len(kernel))] == states
    assert _kernel_moves(kernel) == [
        (i, j, m.kind) for i, row in enumerate(moves) for m, j in row
    ]
    got_states, got = kernel_fractions(kernel)
    want_states, want = hjy_exact_kernel(start)
    assert got_states == want_states
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]


def test_reachable_within_equals_oracle_search(states3):
    starts = [Pdag(4), Pdag(4, [(0, 1), (2, 1)], [(2, 3)])] + states3
    for start in starts:
        for depth in range(4):
            got = reachable_within(start, depth)
            want = hjy_breadth_first(start, depth)[0]
            assert list(got) == [s.key() for s in want]
            assert list(got.values()) == want


@pytest.mark.parametrize("n, inverse_gap", [(3, 27.4), (4, 397.4)])
def test_kernel_gap_matches_dense_oracle(n, inverse_gap):
    kernel = exact_kernel(Pdag(n))
    lam2 = _lambda2_sparse(*kernel.entries(), len(kernel))
    _, K = hjy_exact_kernel(Pdag(n))
    dense = np.zeros((len(K), len(K)))
    for i, row in enumerate(K):
        for j, w in row.items():
            dense[i, j] = float(w)
    want = np.linalg.eigvalsh(dense)[-2]
    assert abs(lam2 - want) <= 1e-12
    assert round(1 / (1 - lam2), 1) == inverse_gap


def test_kernel_gap_n5(kernel5):
    # 8,782 states: no dense oracle here.  The solve stops at a Ritz
    # residual of 1e-13, and 1/gap is pinned to the one decimal that
    # scripts/hjy_spectrum.py prints
    gap = 1 - _lambda2_sparse(*kernel5.entries(), len(kernel5))
    assert abs(1 / gap - 794.4) < 0.05


def test_emptying_examples():
    assert emptying_sequence(Pdag(4, [], [])) == []
    moves = emptying_sequence(Pdag(3, [(0, 1), (2, 1)], []))
    assert len(moves) == 3
    assert moves[0].kind == "remove-immorality"
    assert {m.kind for m in moves[1:]} == {"delete-line"}


def test_emptying_all_n4(states4):
    # emptying_sequence raises on a rejected move, and apply_move accepts
    # only literal edits that are essential; here we pin the totals
    lengths = [len(emptying_sequence(s)) for s in states4]
    assert sum(lengths) == 766
    assert all(
        length >= len(s.arcs) + len(s.lines)
        for length, s in zip(lengths, states4)
    )


def test_emptying_is_fast_on_few_edges_among_many_vertices():
    # a path of forced arcs (heights up to 4, so stage 2 runs) beside a K4
    # of lines, spread over n = 2,000 vertices in order: the moves are the
    # compact graph's, relabelled.  Stage 2 builds its poset on the vertices
    # with arcs only; over all n it took seconds
    arcs = [(0, 2), (1, 2), (2, 3), (3, 4)]
    lines = list(itertools.combinations(range(5, 9), 2))
    compact = Pdag(9, arcs, lines)
    assert is_essential_graph(compact)
    spread = [249 * i for i in range(9)]

    def relabel(pairs):
        return [(spread[u], spread[v]) for u, v in pairs]

    eg = Pdag(2000, relabel(arcs), relabel(lines))
    start = time.perf_counter()
    moves = emptying_sequence(eg)
    assert time.perf_counter() - start < 0.1
    assert moves == [
        Move(m.kind, tuple(spread[v] for v in m.vertices))
        for m in emptying_sequence(compact)
    ]


def test_hamming_distance_examples():
    a = Pdag(3, [(0, 1)], [(1, 2)])
    assert hamming_distance(a, a) == 0
    assert hamming_distance(Pdag(2, [(0, 1)], []), Pdag(2, [(1, 0)], [])) == 1
    assert hamming_distance(Pdag(2, [], []), Pdag(2, [], [(0, 1)])) == 1
    assert (
        hamming_distance(Pdag(3, [(0, 1)], []), Pdag(3, [], [(1, 2)])) == 2
    )


def test_two_step_path_examples():
    empty = Pdag(3, [], [])
    line = Pdag(3, [], [(0, 1)])
    assert len(two_step_path(empty, line)) == 1
    assert len(two_step_path(line, empty)) == 1

    # reversing 1->2 against the collider at vertex 1 keeps both essential
    out_spoke = Pdag(4, [(0, 1), (1, 2), (3, 1)], [])
    in_spoke = Pdag(4, [(0, 1), (2, 1), (3, 1)], [])
    assert is_essential_graph(out_spoke) and is_essential_graph(in_spoke)
    moves = two_step_path(out_spoke, in_spoke)
    assert [m.kind for m in moves] == ["delete-arc", "insert-arc"]

    with pytest.raises(ValueError):
        two_step_path(empty, Pdag(3, [(0, 1)], [(1, 2)]))
    # arc facing a line is impossible between essential graphs; the check
    # still fires on raw input
    with pytest.raises(ValueError):
        two_step_path(Pdag(2, [(0, 1)], []), Pdag(2, [], [(0, 1)]))


def test_two_step_path_all_hamming_one_pairs(states3, states4):
    expect = {3: (12, 12, 0), 4: (360, 348, 12)}
    for states in (states3, states4):
        lens = []
        for e1, e2 in itertools.combinations(states, 2):
            if hamming_distance(e1, e2) == 1:
                lens.append(len(two_step_path(e1, e2)))
                lens.append(len(two_step_path(e2, e1)))
        pairs, ones, twos = expect[states[0].n]
        assert len(lens) == 2 * pairs
        assert lens.count(1) == 2 * ones
        assert lens.count(2) == 2 * twos


def test_counterexample_family_counts():
    for k in (1, 2, 3):
        eg1, eg2 = counterexample_family(k)
        assert eg1.n == eg2.n == 5 * k + 4
        for eg in (eg1, eg2):
            assert len(eg.arcs) + len(eg.lines) == 12 * k + 5
            assert is_essential_graph(eg)
        assert hamming_distance(eg1, eg2) == 2


def test_counterexample_chord_variants_not_essential():
    for k in (1, 2):
        assert not is_essential_graph(counterexample_graph(k, True, True))
        assert not is_essential_graph(counterexample_graph(k, False, False))


def test_counterexample_no_short_path():
    # meet in the middle: empty intersection of the depth-1 and depth-2
    # balls rules out any path of length <= 3
    eg1, eg2 = counterexample_family(1)
    b1 = reachable_within(eg1, 1)
    b2 = reachable_within(eg2, 2)
    assert len(b1) == 19 and len(b2) == 216
    assert not set(b1) & set(b2)


def test_counterexample_empties():
    eg1, _ = counterexample_family(1)
    moves = emptying_sequence(eg1)
    assert len(moves) == 18


# sha256 of repr([(kind, vertices) ...]) of every move the constructions
# return, recorded before they ran on one MaskState and read edge-mark
# diffs; the move lists, not just their totals, must stay the same
def _move_digest(move_lists):
    return hashlib.sha256(
        repr([[(m.kind, m.vertices) for m in moves] for moves in move_lists]).encode()
    ).hexdigest()


def test_emptying_sequences_pinned(states4):
    graphs = list(states4)
    for k in (1, 2, 3):
        graphs += counterexample_family(k)
    assert _move_digest(map(emptying_sequence, graphs)) == (
        "0bbffaae7378e3a336dec092f52615e6306ec4c6492850ec20043f9f64717780"
    )


def test_two_step_paths_and_hamming_distances_pinned(states3, states4):
    paths = []
    for states in (enumerate_essential_graphs(2), states3, states4):
        for e1, e2 in itertools.product(states, repeat=2):
            if hamming_distance(e1, e2) == 1:
                paths.append(two_step_path(e1, e2))
    assert len(paths) == 746
    assert _move_digest(paths) == (
        "220a2462303aa8c1b578a97c30bfc9f89116f5c0a0ecc826bd8236efb6c037d7"
    )
    distances = [hamming_distance(a, b) for a, b in itertools.product(states4, repeat=2)]
    assert hashlib.sha256(repr(distances).encode()).hexdigest() == (
        "d8a961ed9739bc9735a6a3a7e61d8783ce0126be6e7a3b6df8a34fd0072c111d"
    )


def test_propose_step_and_hash():
    rng = np.random.default_rng(11)
    seen_kinds = set()
    for _ in range(300):
        m = propose(4, rng)
        seen_kinds.add(m.kind)
        vs = m.vertices
        assert len(set(vs)) == len(vs)
        assert all(0 <= v < 4 for v in vs)
        if "line" in m.kind:
            assert vs[0] < vs[1]
        if "immorality" in m.kind:
            assert vs[0] < vs[2]
    assert seen_kinds == set(MOVE_KINDS)

    s = MaskState(Pdag(3, [], []))
    moves = proposals(3, np.random.PCG64(11))
    visited = {s.key()}
    hashes = {state_hash(s)}
    for _ in range(4000):
        before = s.key()
        s, move, accepted = step(s, moves)
        assert accepted or s.key() == before
        assert is_essential_graph(s.pdag())
        assert state_hash(s) == state_hash(s.pdag())
        visited.add(s.key())
        hashes.add(state_hash(s))
    assert len(visited) == 11
    assert len(hashes) == 11
