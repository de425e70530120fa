"""The lazy transition matrix, the dense and sparse lambda_2 solvers, and
exact_tmix against pinned values and the matrix-power oracle."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings

import mecmc
from mecmc import flipchain
from mecmc.amo import build_orientation_space, count_amos
from mecmc.cli import main
from mecmc.flipchain import (
    DENSE_STATES,
    TransitionMatrix,
    _lambda2_dense,
    _lambda2_sparse,
    exact_tmix,
    spectral_gap,
    transition_matrix,
)
from mecmc.graphs import (
    UndirectedGraph,
    complete_graph,
    format_graph,
    glued_clique_chain,
    path_graph,
)
from oracles import exact_tmix_by_powers
from strategies import chordal_graphs


def loop_matrix(space):
    """The dense chain matrix filled entry by entry from the flip table."""
    N, m = space.size, space.graph.num_edges
    if m == 0:
        return np.eye(N)
    P = np.zeros((N, N))
    for i, row in enumerate(space.flip_table.tolist()):
        nbrs = [j for j in row if j != i]
        for j in nbrs:
            P[i, j] = 1.0 / m
        P[i, i] = 1.0 - len(nbrs) / m
    return P


@pytest.fixture(scope="module")
def two_k6_share4():
    return transition_matrix(build_orientation_space(glued_clique_chain([6, 6], [4])))


def test_lazy_matrix_equals_loop_oracle(suite_spaces):
    spaces = dict(suite_spaces)
    spaces["edgeless"] = build_orientation_space(path_graph(1))
    spaces["edge"] = build_orientation_space(path_graph(2))
    for name, space in spaces.items():
        tm = transition_matrix(space)
        assert "matrix" not in vars(tm), name
        assert np.array_equal(tm.matrix, loop_matrix(space)), name
        assert tm.matrix is tm.matrix


def test_sparse_and_dense_agree_on_suite(suite_spaces):
    # ARPACK needs k = 2 < N; the smallest suite space (path3) has 3 states
    for name, space in suite_spaces.items():
        tm = transition_matrix(space)
        assert abs(_lambda2_sparse(*tm._entries(), tm.dimension) - _lambda2_dense(tm)) <= 1e-12, name


@settings(max_examples=30, deadline=None)
@given(chordal_graphs(min_n=3, max_n=6, connected=True))
def test_sparse_and_dense_agree_on_random_chordal(g):
    tm = transition_matrix(build_orientation_space(g))
    assert abs(_lambda2_sparse(*tm._entries(), tm.dimension) - _lambda2_dense(tm)) <= 1e-12


def test_sparse_path_above_crossover(two_k6_share4):
    tm = two_k6_share4
    assert tm.dimension == 2784 > DENSE_STATES
    gap = spectral_gap(tm)
    # the sparse solve never materializes the dense matrix
    assert "matrix" not in vars(tm)
    assert gap == spectral_gap(tm)
    assert _lambda2_sparse(*tm._entries(), tm.dimension) == _lambda2_sparse(*tm._entries(), tm.dimension)
    assert abs(gap - (1.0 - _lambda2_dense(tm))) <= 1e-12


def test_sparse_restarts_agree_with_dense(suite_spaces, monkeypatch):
    # a four-vector basis is full after four steps, so every space with more
    # than five states restarts from its top Ritz vector, most many times
    monkeypatch.setattr(flipchain, "LANCZOS_BASIS", 4)
    for name, space in suite_spaces.items():
        tm = transition_matrix(space)
        assert abs(_lambda2_sparse(*tm._entries(), tm.dimension) - _lambda2_dense(tm)) <= 1e-12, name


def test_sparse_solve_holds_the_basis_and_no_matrix(two_k6_share4):
    # the Krylov basis plus the flip table's entries, with no N x N array
    tm = two_k6_share4
    bound = flipchain.LANCZOS_BASIS * tm.dimension * 8 + 3 * tm.flip_table.nbytes
    tracemalloc.start()
    _lambda2_sparse(*tm._entries(), tm.dimension)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < bound < tm.dimension**2 * 8


def test_unconverged_sparse_solve_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(flipchain, "LANCZOS_MATVECS", 10)
    g = glued_clique_chain([6, 6], [4])
    p = tmp_path / "g.txt"
    p.write_text(format_graph(g.n, g.edges))
    assert main(["diagnose", "--input", str(p)]) == 3
    assert capsys.readouterr().err == (
        "error: the sparse eigensolver found no lambda_2 within 10 Lanczos steps\n"
    )


# 38 states; exact_tmix's first certificate fails on it, so its search
# resumes with more candidate rows
RESUMED_TMIX = UndirectedGraph(
    7, [(0, 1), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4)]
)


def test_exact_tmix_resumes_after_a_failed_certificate():
    tm = transition_matrix(build_orientation_space(RESUMED_TMIX))
    assert exact_tmix(tm) == exact_tmix_by_powers(tm) == 33


def test_diagnose_runs_without_scipy(tmp_path):
    # scipy unimportable: both spectrum paths, a resumed exact_tmix and a
    # sample-amo run, and neither scipy nor numpy.ma (which np.union1d, np.isin
    # and a plain np.unique import on first use) gets loaded
    cases = [
        ("sparse", glued_clique_chain([6, 6], [4])),
        ("dense", glued_clique_chain([5, 5], [3])),
        ("dense", RESUMED_TMIX),
    ]
    paths = {}
    for i, (spectrum, g) in enumerate(cases):
        paths[tmp_path / f"{i}.txt"] = spectrum
        (tmp_path / f"{i}.txt").write_text(format_graph(g.n, g.edges))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from mecmc.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    assert main(['diagnose', '--input', path, '--out', path + '.json']) == 0\n"
        "sample = ['--steps', '10', '--samples', '10', '--out', sys.argv[1] + '.sample']\n"
        "assert main(['sample-amo', '--input', sys.argv[1], *sample]) == 0\n"
        "print([k for k in ('scipy', 'numpy.ma') if sys.modules.get(k) is not None])\n"
    )
    src = os.path.dirname(os.path.dirname(mecmc.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, paths)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
    for p, spectrum in paths.items():
        payload = json.loads(p.with_name(p.name + ".json").read_text())
        assert payload["spectrum"] == spectrum
    sampled = json.loads((tmp_path / "0.txt.sample").read_text())
    assert sampled["summary"]["n_states"] == count_amos(cases[0][1])


def test_asymmetric_table_is_rejected():
    # state 1 moves to itself under the edge that took state 0 to it
    tm = TransitionMatrix(np.array([[1], [1]]))
    assert not tm.is_symmetric()
    with pytest.raises(ValueError):
        spectral_gap(tm)
    with pytest.raises(ValueError):
        exact_tmix(tm)


@pytest.mark.parametrize(
    "graph, tmix",
    [
        (complete_graph(5), 32),
        (complete_graph(6), 74),
        (glued_clique_chain([5, 5], [3]), 237),
        (glued_clique_chain([4, 4, 4], [2, 2]), 224),
    ],
    ids=["K5", "K6", "two_K5_share3", "three_K4_share2"],
)
def test_exact_tmix_pinned(graph, tmix):
    # values from literal matrix powers, repeated squaring in every
    # bisection step; the search on rows of P^t from one eigendecomposition
    # must land on the same t
    assert exact_tmix(transition_matrix(build_orientation_space(graph))) == tmix


def test_exact_tmix_agrees_with_powers_on_suite(suite_spaces):
    for name, space in suite_spaces.items():
        if space.size <= DENSE_STATES:
            tm = transition_matrix(space)
            assert exact_tmix(tm) == exact_tmix_by_powers(tm), name


@pytest.mark.parametrize(
    "sizes, overlaps",
    [
        ([6], []),
        ([5, 5], [2]),
        ([5, 5], [4]),
        ([4, 5], [3]),
        ([4, 4, 4], [2, 2]),
        ([3, 4, 3], [2, 2]),
        ([3, 3, 3, 3], [2, 2, 2]),
    ],
    ids=[
        "K6",
        "two_K5_share2",
        "two_K5_share4",
        "K4_K5_share3",
        "three_K4_share2",
        "K3_K4_K3_share2",
        "four_K3_share2",
    ],
)
def test_exact_tmix_agrees_with_powers_on_glued_cliques(sizes, overlaps):
    g = glued_clique_chain(sizes, overlaps)
    tm = transition_matrix(build_orientation_space(g))
    assert tm.dimension <= DENSE_STATES
    assert exact_tmix(tm) == exact_tmix_by_powers(tm)


@settings(max_examples=100, deadline=None)
@given(chordal_graphs(connected=True))
def test_exact_tmix_agrees_with_powers_on_random_chordal(g):
    assume(count_amos(g) <= DENSE_STATES)
    tm = transition_matrix(build_orientation_space(g))
    assert exact_tmix(tm) == exact_tmix_by_powers(tm)


def test_exact_tmix_holds_no_matrix_powers():
    # K6: 720 states.  One full evaluation of P^t holds the eigenvectors
    # and three N x N temporaries; the doubling search keeps P^(2^j) for
    # every j it reached besides
    tm = transition_matrix(build_orientation_space(complete_graph(6)))
    bound = 6 * tm.matrix.nbytes
    peaks = []
    for tmix in (exact_tmix, exact_tmix_by_powers):
        tracemalloc.start()
        assert tmix(tm) == 74
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < bound < peaks[1]


def test_import_does_not_load_scipy():
    code = "import sys, mecmc, mecmc.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(mecmc.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
