import hashlib
from fractions import Fraction
from math import comb, cos, pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecmc.amo import build_orientation_space, peo_orientation
from mecmc.flipchain import (
    EIGEN_TOL,
    TransitionMatrix,
    _integers,
    bottleneck_ratio,
    clique_cut_bottlenecks,
    comparison_bound,
    decomposition_stats,
    empirical_tv,
    exact_tmix,
    madras_randall_bound,
    move_table,
    projection_chain,
    restriction_gap,
    sample_many,
    spectral_gap,
    transition_matrix,
)
from mecmc.graphs import (
    clique_tree,
    complete_graph,
    glued_clique_chain,
    path_graph,
)
from oracles import (
    Amo,
    exact_distribution,
    exact_tmix_by_powers,
    flip_candidates,
    sample,
    sample_many_by_rows,
    step,
    transition_entries_by_row_index,
)

MULTI_CLIQUE = (
    "path3",
    "path4",
    "path6",
    "path8",
    "star4",
    "star6",
    "caterpillar7",
    "two_k3_edge",
    "two_k4_share2",
    "two_k4_share3",
    "two_k5_share3",
    "three_k3_chain",
    "k4_k3_chain",
    "k5_k4_share2",
)


def test_transition_matrix_examples():
    k3 = transition_matrix(build_orientation_space(complete_graph(3)))
    assert k3.dimension == 6
    assert np.allclose(k3.matrix.sum(axis=1), 1.0)
    # 6-cycle: 1/3 to each neighbor, 1/3 self
    assert np.allclose(np.diag(k3.matrix), 1 / 3)
    assert np.count_nonzero(k3.matrix) == 18

    edge = transition_matrix(build_orientation_space(path_graph(2)))
    assert np.allclose(edge.matrix, [[0.0, 1.0], [1.0, 0.0]])


def test_transition_matrices_symmetric(suite_spaces):
    for space in suite_spaces.values():
        tm = transition_matrix(space)
        assert tm.is_symmetric()
        assert np.allclose(tm.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_transition_entries_match_row_index_oracle(suite_spaces):
    for space in suite_spaces.values():
        tm = transition_matrix(space)
        want = transition_entries_by_row_index(tm.flip_table)
        for got, expected in zip(tm._entries(), want):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def test_self_loop_probability(suite_spaces):
    for space in suite_spaces.values():
        tm = transition_matrix(space)
        m = space.graph.num_edges
        for i in range(space.size):
            expected = (m - space.degree(i)) / m
            assert tm.matrix[i, i] == pytest.approx(expected, abs=1e-12)


def test_spectral_gap_examples():
    gap_k3 = spectral_gap(transition_matrix(build_orientation_space(complete_graph(3))))
    assert gap_k3 == pytest.approx(1 / 3, abs=EIGEN_TOL)
    identity_like = transition_matrix(build_orientation_space(path_graph(1)))
    assert spectral_gap(identity_like) == 1.0


def test_bacher_gap_on_complete_graphs():
    for n in (3, 4, 5):
        g = complete_graph(n)
        tm = transition_matrix(build_orientation_space(g))
        gap = spectral_gap(tm)
        expected = (2 / g.num_edges) * (1 - cos(pi / n))
        assert abs(gap - expected) < 1e-9


def test_step_moves_or_stays():
    g = glued_clique_chain([3, 3], [2])
    rng = np.random.default_rng(5)
    a = Amo(g, peo_orientation(g))
    seen = set()
    for _ in range(500):
        a = step(a, rng)
        seen.add(a.key())
    assert len(seen) == 10


def test_sample_zero_steps_is_start():
    g = path_graph(4)
    rng = np.random.default_rng(0)
    assert sample(g, 0, rng).key() == peo_orientation(g)


@pytest.mark.parametrize("name", ["two_k4_share2", "k5"])
def test_sample_many_replays_the_reference_walk(suite_spaces, name):
    # one replica draws one edge per step, as the per-object step does, so
    # both walks see the same proposals and must end on the same state
    space = suite_spaces[name]
    for seed in range(20):
        walk = sample(space.graph, 200, np.random.default_rng(seed))
        final = sample_many(space, 200, 1, np.random.default_rng(seed))
        assert space.keys[final[0]] == walk.key()


def test_sample_many_matches_row_indexed_walk(suite_spaces):
    # the flat gather must land where (state, edge) indexing lands, draw for
    # draw, on every suite space and on the smallest and longest edge counts;
    # 3,001 replicas draw in 21-step blocks of an odd size, so a half is
    # left over across block edges
    spaces = dict(suite_spaces)
    spaces["edge"] = build_orientation_space(path_graph(2))  # m = 1
    spaces["path40"] = build_orientation_space(path_graph(40))  # m = 39
    for name, space in spaces.items():
        for steps, count in ((0, 7), (1, 1), (25, 1), (60, 300), (50, 3001)):
            for seed in (0, 1, 2017):
                rng, rng_rows = np.random.default_rng(seed), np.random.default_rng(seed)
                final = sample_many(space, steps, count, rng)
                rows = sample_many_by_rows(space, steps, count, rng_rows)
                assert final.dtype == rows.dtype == np.int64, name
                assert np.array_equal(final, rows), (name, steps, count, seed)
                # and both drew the same amount from the generator
                assert rng.bit_generator.state == rng_rows.bit_generator.state


def test_sample_many_on_the_int32_table_returns_int64(suite_spaces):
    # the walk reads the int32 table and returns int64 states, those of the
    # row-indexed oracle; its offsets x * |E| are built as int64 because an
    # int32 table times |E| stays int32 under numpy 1.24's value-based
    # casting and numpy 2's weak Python ints alike, and would wrap once
    # N * |E| reaches 2**31, a table too large for a test
    space = suite_spaces["two_k5_share3"]
    assert space.flip_table.dtype == np.int32
    final = sample_many(space, 300, 1001, np.random.default_rng(3))
    rows = sample_many_by_rows(space, 300, 1001, np.random.default_rng(3))
    assert final.dtype == np.int64
    assert np.array_equal(final, rows)


def test_transition_matrix_shares_the_flip_table(suite_spaces):
    # the matrix reads the int32 table as it is, with no widened copy
    space = suite_spaces["two_k4_share2"]
    assert np.shares_memory(transition_matrix(space).flip_table, space.flip_table)


class CountingGenerator:
    """A Generator that counts its own ``integers`` calls, which
    ``_integers`` makes only when it falls back to numpy."""

    def __init__(self, seed, bits=np.random.PCG64):
        self.rng = np.random.Generator(bits(seed))
        self.bit_generator = self.rng.bit_generator
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def rejects(bits, high, count):
    """Whether numpy rejects one of the next ``count`` 32-bit halves of
    ``bits`` for ``high``, read from a copy of it: integers(2**32) returns
    the halves themselves."""
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = bits.state
    halves = copy.integers(0, 2**32, size=count).tolist()
    return any(h * high % 2**32 < 2**32 % high for h in halves)


# numpy rejects a quarter of the halves at 3 * 2**30, about half at
# 2**31 + 1, and only a zero half at 2**32 - 1
HEAVY_HIGHS = (3 * 2**30, 2**31 + 1, 2**32 - 1)


@given(
    seed=st.integers(0, 2**64 - 1),
    before=st.lists(st.integers(0, 5), max_size=3),
    highs=st.lists(
        st.one_of(st.integers(2, 2**32 - 1), st.sampled_from(HEAVY_HIGHS)),
        min_size=1,
        max_size=3,
    ),
    size=st.sampled_from([0, 1, 2, 7, 10, (3, 5), (2, 4), (0, 3)]),
)
@example(seed=0, before=[1], highs=[7, 3 * 2**30, 2**31 - 1], size=7)
@settings(max_examples=400, deadline=None)
def test_pcg64_integers_match_generator(seed, before, highs, size):
    # earlier integers calls of odd total size leave a half pending, and so
    # do chained calls of odd size; as in sample_many, every call decodes
    # into one shared buffer, here longer than any request, and each result
    # is copied before the next call overwrites it
    rng, want = CountingGenerator(seed), np.random.default_rng(seed)
    for k in before:
        assert np.array_equal(rng.integers(0, 10, size=k), want.integers(0, 10, size=k))
    buffer = np.empty(16, dtype="<u8")
    for high in highs:
        calls = rng.calls + rejects(rng.bit_generator, high, int(np.prod(size)))
        got = _integers(rng, high, size, buffer).copy()
        expected = want.integers(0, high, size=size)
        assert got.dtype == expected.dtype == np.int64
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == want.bit_generator.state
        # numpy draws exactly the blocks that hold a rejected half
        assert rng.calls == calls


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("high", [1, 3 * 2**30, 2**32, 2**40])
def test_pcg64_integers_fall_back_to_numpy(bits, high):
    # 1,000 draws at 3 * 2**30 hold a rejected half but for odds of
    # 0.75**1000; another bit generator or range is numpy's throughout
    for seed in range(3):
        rng, want = CountingGenerator(seed, bits), np.random.Generator(bits(seed))
        rng.integers(0, 10, size=1)
        want.integers(0, 10, size=1)
        got = _integers(rng, high, (4, 250), np.empty(1000, dtype="<u8"))
        assert np.array_equal(got, want.integers(0, high, size=(4, 250)))
        assert rng.calls == 2
        # the generators go on alike (an MT19937 state holds an array)
        after = rng.integers(0, 2**32, size=3)
        assert np.array_equal(after, want.integers(0, 2**32, size=3))


def test_move_table_consistent_with_step():
    space = build_orientation_space(glued_clique_chain([3, 3], [2]))
    table = move_table(space)
    m = space.graph.num_edges
    assert table.shape == (space.size, m)
    for i in range(space.size):
        for e in range(m):
            j = table[i, e]
            # proposals are involutions: same edge undoes the flip
            assert table[j, e] == i
        moved = {int(j) for j in table[i] if j != i}
        a = Amo(space.graph, space.keys[i])
        assert moved == {space.keys.index(a.flip(e).key()) for e in flip_candidates(a)}


# sha256 of the int64 final states of sample_many(space, 40, 500,
# default_rng(20171)), recorded with the per-Amo move table; any change to
# the state order, the flip table or the RNG draws changes them
PINNED_WALKS = {
    "k5": "1688233d8ef8f059471d4f8c29ac39be62d1171a910c2ee920b62bc85d12ea9d",
    "two_k4_share2": "d1354bf59a8bc57d5b5dfab8d42dd23f3460069ea9dae0455cbd4790df5e6832",
}


@pytest.mark.parametrize("name", sorted(PINNED_WALKS))
def test_sample_many_trajectory_is_pinned(suite_spaces, name):
    final = sample_many(suite_spaces[name], 40, 500, np.random.default_rng(20171))
    digest = hashlib.sha256(np.asarray(final, dtype=np.int64).tobytes())
    assert digest.hexdigest() == PINNED_WALKS[name]


def test_sample_many_matches_exact_distribution():
    space = build_orientation_space(complete_graph(3))
    tm = transition_matrix(space)
    rng = np.random.default_rng(11)
    steps, n_samples = 6, 40000
    start = space.keys.index(peo_orientation(space.graph))
    final = sample_many(space, steps, n_samples, rng)
    emp = np.bincount(final, minlength=space.size) / n_samples
    exact = exact_distribution(tm, start, steps)
    assert float(0.5 * np.abs(emp - exact).sum()) < 0.02


def test_empirical_tv_converges():
    space = build_orientation_space(complete_graph(3))
    rng = np.random.default_rng(2)
    tv0 = empirical_tv(space, 0, 1000, rng)
    assert tv0 == pytest.approx(1 - 1 / 6, abs=1e-9)
    tv_long = empirical_tv(space, 60, 30000, np.random.default_rng(3))
    assert tv_long < 0.02


def test_bottleneck_two_k4_share2():
    space = build_orientation_space(glued_clique_chain([4, 4], [2]))
    assert space.size == 88
    cuts = clique_cut_bottlenecks(space)
    assert len(cuts) == 2
    for rep in cuts.values():
        assert rep.phi == Fraction(1, 55)
        assert rep.subset_size == 40
        assert rep.tmix_lower == Fraction(55, 4)


def test_bottleneck_closed_form_two_clique_family():
    # glued (t, t) overlap s: Phi of the one-clique cut is 1/(|E| (C(t,s)-1))
    for t, s in ((3, 2), (4, 2), (4, 3), (5, 3)):
        g = glued_clique_chain([t, t], [s])
        space = build_orientation_space(g)
        cuts = clique_cut_bottlenecks(space)
        expected = Fraction(1, g.num_edges * (comb(t, s) - 1))
        assert all(rep.phi == expected for rep in cuts.values())


def test_bottleneck_input_validation():
    space = build_orientation_space(complete_graph(3))
    with pytest.raises(ValueError):
        bottleneck_ratio(space, [])
    with pytest.raises(ValueError):
        bottleneck_ratio(space, range(6))
    with pytest.raises(ValueError):
        bottleneck_ratio(space, range(4))


def test_bottleneck_lower_bounds_tmix(suite_spaces):
    for name, space in suite_spaces.items():
        tm = transition_matrix(space)
        tmix = exact_tmix(tm)
        if tmix is None:
            continue
        for rep in clique_cut_bottlenecks(space).values():
            assert Fraction(1, 4) / rep.phi <= tmix


def test_decomposition_stats_examples():
    single = decomposition_stats(clique_tree(complete_graph(5)))
    assert single.o_g == 1 and single.diameter == 0 and single.t_max == 5

    two_k4 = decomposition_stats(clique_tree(glued_clique_chain([4, 4], [2])))
    assert two_k4.z == 96
    assert two_k4.o_g == Fraction(12)
    assert two_k4.clique_weights == [48, 48]


def test_uniform_family_overlap_count():
    # all cliques size t, overlaps size s: o_G = |T| C(t, s)
    cases = [
        (glued_clique_chain([3, 3], [2]), 2, 3, 2),
        (glued_clique_chain([4, 4], [2]), 2, 4, 2),
        (glued_clique_chain([4, 4], [3]), 2, 4, 3),
        (glued_clique_chain([5, 5], [3]), 2, 5, 3),
        (glued_clique_chain([3, 3, 3], [2, 2]), 3, 3, 2),
    ]
    for g, n_cliques, t, s in cases:
        stats = decomposition_stats(clique_tree(g))
        assert stats.o_g == n_cliques * comb(t, s)


def test_projection_chain_detailed_balance(suite):
    for name, g in suite.items():
        ct = clique_tree(g)
        if len(ct.cliques) < 2:
            continue
        pc = projection_chain(ct)
        assert pc.check_detailed_balance()
        assert pc.gap() > 0


def test_comparison_bound_below_projection_gap(suite):
    for name, g in suite.items():
        ct = clique_tree(g)
        if len(ct.cliques) < 2:
            continue
        stats = decomposition_stats(ct)
        pc = projection_chain(ct)
        assert float(comparison_bound(stats)) <= pc.gap() + EIGEN_TOL


def test_madras_randall_bound_below_gap(suite, suite_spaces):
    for name in MULTI_CLIQUE:
        g = suite[name]
        gap = spectral_gap(transition_matrix(suite_spaces[name]))
        bound = madras_randall_bound(g)
        assert 0 < bound <= gap + EIGEN_TOL, name


def test_madras_randall_requires_two_cliques():
    with pytest.raises(ValueError):
        madras_randall_bound(complete_graph(4))


def test_restriction_gap_denominators():
    g = glued_clique_chain([4, 4], [2])
    ct = clique_tree(g)
    by_edges = restriction_gap(ct, g.num_edges)
    # the displayed normalization divides by |G| - |T| in place of |E|
    rescale = g.num_edges / (g.n - ct.num_cliques)
    by_vertices = by_edges * rescale
    assert by_edges == pytest.approx(2 * (1 - cos(pi / 4)) / 11)
    assert by_vertices == pytest.approx(2 * (1 - cos(pi / 4)) / 4)
    # the bound is linear in the restriction gap; assembled with the vertex
    # denominator it overshoots the exact gap on this graph, which is why
    # the edge denominator is the one used
    gap = spectral_gap(transition_matrix(build_orientation_space(g)))
    mr_edges = madras_randall_bound(g)
    mr_vertices = mr_edges * rescale
    assert mr_edges <= gap + EIGEN_TOL
    assert mr_vertices > gap


def test_bottleneck_ratio_equals_table_loop(suite_spaces):
    for space in suite_spaces.values():
        m = space.graph.num_edges
        for i, rep in clique_cut_bottlenecks(space).items():
            masks = enumerate(space.nonfollower_masks)
            cut = {v for v, mask in masks if mask == 1 << i}
            crossing = sum(1 for v in cut for w in space.flip_table[v] if w not in cut)
            assert rep.boundary_edges == crossing
            assert rep.phi == Fraction(crossing, len(cut) * m)
            assert rep.subset_size == len(cut)


def test_slow_equilibration_across_gluing_face():
    # two K_4 sharing 2 vertices: starting inside one clique's half, mass
    # crosses to the mirror half slowly
    g = glued_clique_chain([4, 4], [2])
    space = build_orientation_space(g)
    tm = transition_matrix(space)
    half = [i for i, mask in enumerate(space.nonfollower_masks) if mask == 1 << 0]
    start = half[0]
    mu = exact_distribution(tm, start, 20)
    assert mu[half].sum() > 0.75
    tmix = exact_tmix(tm)
    assert tmix is not None and tmix >= 55 / 4


def test_exact_tmix_small_cases():
    one_tm = transition_matrix(build_orientation_space(path_graph(1)))
    assert exact_tmix(one_tm) == 0  # the one state is stationary at once
    edge_tm = transition_matrix(build_orientation_space(path_graph(2)))
    assert exact_tmix(edge_tm) is None  # period-2 chain never mixes
    # two states that one proposal swaps and the other keeps: P is uniform,
    # so one step mixes; no graph in the tests has a chain this fast
    flat_tm = TransitionMatrix(np.array([[1, 0], [0, 1]]))
    assert exact_tmix(flat_tm) == exact_tmix_by_powers(flat_tm) == 1
    k3_tm = transition_matrix(build_orientation_space(complete_graph(3)))
    t = exact_tmix(k3_tm)
    assert t is not None
    mu = exact_distribution(k3_tm, 0, t)
    assert float(0.5 * np.abs(mu - 1 / 6).sum()) <= 0.25
    if t > 1:
        mu_prev = exact_distribution(k3_tm, 0, t - 1)
        assert float(0.5 * np.abs(mu_prev - 1 / 6).sum()) > 0.25
