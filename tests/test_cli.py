"""End-to-end tests for the command-line interface."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUITE
from mecmc import flipchain, hjy
from mecmc.amo import build_orientation_space
from mecmc.cli import RunConfig, _step_record, build_parser, main
from mecmc.graphs import (
    complete_graph,
    format_graph,
    format_pdag,
    glued_clique_chain,
    path_graph,
    star_graph,
)
from mecmc.graphs import Dag, UndirectedGraph
from mecmc.hjy import MOVE_KINDS
from oracles import render_sample_amo, sample_many_by_rows
from strategies import small_dags, small_graphs


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text(format_pdag(complete_graph(3)))
    return str(p)


def run_to_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


def test_sample_amo_steps_zero_stays_at_start(k3_file, tmp_path):
    payload = run_to_json(
        ["sample-amo", "--input", k3_file, "--steps", "0", "--samples", "40"],
        tmp_path,
    )
    assert payload["summary"]["n_states"] == 6
    assert payload["summary"]["distinct_sampled"] == 1
    assert sum(payload["histogram"].values()) == 40
    assert payload["config"]["seed"] == 0
    assert payload["config"]["subcommand"] == "sample-amo"


def test_sample_amo_covers_all_orientations(k3_file, tmp_path):
    payload = run_to_json(
        [
            "sample-amo",
            "--input",
            k3_file,
            "--steps",
            "60",
            "--samples",
            "1200",
            "--seed",
            "5",
        ],
        tmp_path,
    )
    assert payload["summary"]["distinct_sampled"] == 6
    total = sum(payload["histogram"].values())
    assert total == 1200
    for count in payload["histogram"].values():
        assert abs(count / total - 1 / 6) < 0.1
    # every sampled orientation is echoed in graph text form
    for key, text in payload["orientations"].items():
        assert text.startswith("n 3\n")
        assert key.count(">") == 3


def test_sample_amo_tree_sources(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text(format_pdag(star_graph(4)))
    payload = run_to_json(
        ["sample-amo", "--input", str(p), "--steps", "80", "--samples", "600"],
        tmp_path,
    )
    # a tree has one orientation per source vertex
    assert payload["summary"]["n_states"] == 4


def test_sample_amo_csv(k3_file, tmp_path):
    out = tmp_path / "hist.csv"
    rc = main(
        [
            "sample-amo",
            "--input",
            k3_file,
            "--steps",
            "30",
            "--samples",
            "100",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    cfg = json.loads(lines[0].removeprefix("# config "))
    assert cfg["format"] == "csv"
    assert lines[1] == "orientation,count"
    assert lines[-1].startswith("# n_states 6 distinct_sampled")
    counted = sum(int(r.rsplit(",", 1)[1]) for r in lines[2:-1])
    assert counted == 100


def test_non_chordal_input_exits_2(tmp_path, capsys):
    p = tmp_path / "c4.txt"
    p.write_text(format_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    rc = main(["sample-amo", "--input", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "chordless cycle" in err


@pytest.mark.parametrize("sub", ["sample-amo", "diagnose"])
def test_disconnected_non_chordal_input_reports_the_cycle(tmp_path, capsys, sub):
    # C4 plus a separate edge: six vertices and five edges pass the header
    # check, and the chordless cycle is reported before the disconnection
    p = tmp_path / "c4_and_edge.txt"
    p.write_text(format_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]))
    assert main([sub, "--input", str(p)]) == 2
    err = capsys.readouterr().err
    assert "chordless cycle" in err and "connected" not in err


def test_disconnected_input_exits_2(tmp_path, capsys):
    p = tmp_path / "two.txt"
    p.write_text(format_graph(4, [(0, 1), (2, 3)]))
    assert main(["diagnose", "--input", str(p)]) == 2
    assert "connected" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["sample-amo", "diagnose"])
def test_graph_without_vertices_exits_2(tmp_path, capsys, sub):
    p = tmp_path / "empty.txt"
    p.write_text(format_graph(0))
    assert main([sub, "--input", str(p)]) == 2
    assert capsys.readouterr().err == "error: input graph has no vertices\n"


@pytest.mark.parametrize("n", [3_000_000, 99_999_999_999])
@pytest.mark.parametrize("sub", ["sample-amo", "diagnose"])
def test_vertex_count_beyond_the_edges_exits_2(tmp_path, capsys, sub, n):
    # n vertices need n - 1 edges to be connected, so the header alone is
    # rejected before one set per vertex is built
    p = tmp_path / "big.txt"
    p.write_text(f"n {n}\n0 -- 1\n")
    assert main([sub, "--input", str(p)]) == 2
    assert capsys.readouterr().err == "error: input graph must be connected\n"


def test_sample_amo_edgeless_graph_stays_put(tmp_path):
    p = tmp_path / "one.txt"
    p.write_text(format_graph(1))
    payload = run_to_json(
        ["sample-amo", "--input", str(p), "--steps", "5", "--samples", "30"],
        tmp_path,
    )
    assert payload["histogram"] == {"": 30}
    assert payload["summary"]["n_states"] == 1


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["sample-amo", "--input", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["directory", "missing parent"])
@pytest.mark.parametrize("sub", ["sample-amo", "diagnose", "ratio", "mec", "hjy"])
def test_unwritable_out_exits_2(k3_file, tmp_path, capsys, sub, where):
    dag = tmp_path / "arc.txt"
    dag.write_text(format_pdag(Dag(2, [(0, 1)])))
    argv = {
        "sample-amo": ["sample-amo", "--input", k3_file, "--samples", "3"],
        "diagnose": ["diagnose", "--input", k3_file],
        "ratio": ["ratio", "--nmax", "3"],
        "mec": ["mec", "--input", str(dag)],
        "hjy": ["hjy", "--nmax", "2", "--steps", "2"],
    }[sub]
    out = tmp_path if where == "directory" else tmp_path / "nope" / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_directed_input_where_undirected_expected(tmp_path, capsys):
    p = tmp_path / "dag.txt"
    p.write_text(format_pdag(Dag(2, [(0, 1)])))
    assert main(["diagnose", "--input", str(p)]) == 2
    assert "undirected" in capsys.readouterr().err


def test_state_cap_exits_3(tmp_path, capsys, monkeypatch):
    p = tmp_path / "glued.txt"
    p.write_text(format_pdag(glued_clique_chain([4, 4], [2])))
    monkeypatch.setenv("MECMC_STATE_CAP", "10")
    rc = main(["diagnose", "--input", str(p)])
    assert rc == 3
    assert "MECMC_STATE_CAP" in capsys.readouterr().err
    assert main(["sample-amo", "--input", str(p)]) == 3
    assert "hint: raise MECMC_STATE_CAP\n" in capsys.readouterr().err
    monkeypatch.setenv("MECMC_STATE_CAP", "not-a-number")
    assert main(["diagnose", "--input", str(p)]) == 2


@pytest.mark.parametrize("n", [11, 20])
@pytest.mark.parametrize("sub", ["sample-amo", "diagnose"])
def test_clique_beyond_the_cap_exits_3(tmp_path, capsys, monkeypatch, sub, n):
    # the count behind the cap check is n! read off directly, not a search
    monkeypatch.delenv("MECMC_STATE_CAP", raising=False)
    p = tmp_path / "clique.txt"
    p.write_text(format_pdag(complete_graph(n)))
    assert main([sub, "--input", str(p)]) == 3
    err = capsys.readouterr().err
    assert f"|AMO| = {math.factorial(n)} exceeds cap 5000000\n" in err
    assert "hint: raise MECMC_STATE_CAP\n" in err


def test_diagnose_slow_mixing_instance(tmp_path):
    p = tmp_path / "glued.txt"
    p.write_text(format_pdag(glued_clique_chain([4, 4], [2])))
    payload = run_to_json(["diagnose", "--input", str(p)], tmp_path)
    assert payload["n_states"] == 88
    assert payload["phi"] == "1/55"
    assert payload["tmix_lower"] == "55/4"
    assert payload["bound_le_gap"] is True
    assert payload["gap_mr_bound"] <= payload["gap_exact"]
    dec = payload["decomposition"]
    assert dec == {"diameter": 1, "o_g": "12", "t_max": 4, "theta": 1, "z": "96"}
    cut = payload["worst_clique_cut"]
    assert cut["subset_size"] == 40 and cut["boundary_edges"] == 8
    assert payload["tmix_exact"] == 75
    assert abs(payload["gap_exact"] - 0.0121637943) < 1e-9


def test_diagnose_single_clique(k3_file, tmp_path):
    payload = run_to_json(["diagnose", "--input", k3_file], tmp_path)
    assert payload["n_states"] == 6
    assert payload["gap_mr_bound"] is None
    assert payload["bound_le_gap"] is None
    assert abs(payload["gap_exact"] - 1 / 3) < 1e-12
    assert payload["worst_clique_cut"] is None


def test_diagnose_reports_spectrum_and_null_reasons(k3_file, tmp_path):
    payload = run_to_json(["diagnose", "--input", k3_file], tmp_path)
    assert payload["spectrum"] == "dense"
    one_clique = "one maximal clique: the decomposition bound needs two or more"
    no_cut = "no clique cut is nonempty with at most half of the states"
    assert payload["null_reasons"] == {
        "gap_mr_bound": one_clique,
        "bound_le_gap": one_clique,
        "phi": no_cut,
        "tmix_lower": no_cut,
        "worst_clique_cut": no_cut,
    }
    # every null field has its reason and no other field has one
    nulls = {k for k, v in payload.items() if v is None}
    assert nulls == set(payload["null_reasons"])

    p = tmp_path / "glued.txt"
    p.write_text(format_pdag(glued_clique_chain([4, 4], [2])))
    payload = run_to_json(["diagnose", "--input", str(p)], tmp_path, "glued.json")
    assert payload["spectrum"] == "dense" and payload["null_reasons"] == {}

    # the single edge flips back and forth forever: period 2, never mixed
    p = tmp_path / "edge.txt"
    p.write_text(format_pdag(path_graph(2)))
    payload = run_to_json(["diagnose", "--input", str(p)], tmp_path, "edge.json")
    assert payload["tmix_exact"] is None
    assert payload["null_reasons"]["tmix_exact"] == (
        "the chain is not within 1/4 of uniform after 2^20 steps"
    )


def test_diagnose_k7_takes_the_sparse_path(tmp_path):
    p = tmp_path / "k7.txt"
    p.write_text(format_pdag(complete_graph(7)))
    payload = run_to_json(["diagnose", "--input", str(p)], tmp_path)
    assert payload["n_states"] == 5040
    assert payload["spectrum"] == "sparse"
    assert payload["tmix_exact"] is None
    assert payload["null_reasons"]["tmix_exact"] == (
        "more than 1500 states: exact_tmix needs the dense matrix"
    )
    # Bacher's gap of the complete graph, (2/|E|)(1 - cos(pi/n))
    assert abs(payload["gap_exact"] - (2 / 21) * (1 - math.cos(math.pi / 7))) < 1e-12


def test_out_of_memory_exits_3_without_traceback(k3_file, capsys, monkeypatch):
    message = (
        "Unable to allocate 7.28 TiB for an array with shape "
        "(1000000000000,) and data type int64"
    )

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(flipchain, "sample_many", exhausted)
    rc = main(["sample-amo", "--input", k3_file, "--samples", "1000000000000"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"error: out of memory: {message}\n"


def _hjy_process(*extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "mecmc.cli", "hjy", "--nmax", "10", "--steps", "100000", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def test_closed_stdout_exits_3_without_traceback():
    # the reader takes one line and closes the pipe, as `| head -1` does
    proc = _hjy_process()
    assert proc.stdout.readline().startswith(b'{"config"')
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 3
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: stdout was closed before the output ended\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_closed_out_pipe_exits_3_naming_the_path(tmp_path):
    # --out names a pipe whose reader leaves after one line; stdout stays open
    fifo = tmp_path / "records"
    os.mkfifo(fifo)
    proc = _hjy_process("--out", str(fifo))
    with open(fifo, "rb") as fh:
        assert fh.readline().startswith(b'{"config"')
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 3 and out == b""
    assert err.decode() == f"error: {fifo} was closed before the output ended\n"


def test_ratio_csv(tmp_path):
    out = tmp_path / "ratio.csv"
    rc = main(
        ["ratio", "--nmax", "6", "--precision", "6", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "n,essential_dags,dags,ratio,adjusted_ratio"
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[2:]}
    assert rows[2][1:4] == ["1", "3", "3.000000"]
    assert rows[4][1] == "59" and rows[4][2] == "543"
    assert rows[5][1] == "2616" and rows[5][2] == "29281"


def test_ratio_full_range(tmp_path):
    # the n = 200 counts exceed the interpreter's default 4300-digit
    # int-to-str guard; the command must still print them whole
    out = tmp_path / "full.csv"
    rc = main(["ratio", "--nmax", "200", "--precision", "13", "--out", str(out)])
    assert rc == 0
    last = out.read_text().splitlines()[-1]
    n, essential, dags, ratio, adjusted = last.split(",")
    assert n == "200"
    assert len(dags) > 4300 and dags.isdigit()
    assert ratio == "13.6517978587767"
    assert adjusted.startswith("3.94")


# sha256 of the `mecmc ratio` output, recorded while the table was still
# built with full powers, from-scratch q-Pochhammer products and reduced
# Fractions
PINNED_RATIO = {
    ("--precision", "13"): "fc4e01c9b4e8b2bfc490efc5fdf9c220d9af528827ecfe36855bfbe149ccaf56",
    ("--format", "json", "--precision", "0"): "ac0365636e8163757b9def9894e1268a4b3ec9d4d2dee72c6bc8aabb5c6414dc",
    ("--format", "json", "--precision", "40"): "d8b936a3310788848b38e1641f3e99fca4344ed9cc13cac4b6261236dbf72b36",
}


@pytest.mark.parametrize("flags", sorted(PINNED_RATIO))
def test_ratio_output_is_pinned(capsys, flags):
    assert main(["ratio", "--nmax", "200", *flags]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_RATIO[flags]


@pytest.mark.parametrize("limit", [4300, 0])
def test_ratio_restores_int_str_limit(tmp_path, limit):
    # ratio lifts the int-to-str digit limit only while it writes; later
    # calls in the same interpreter see the limit they had (0 = unlimited)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        out = tmp_path / "ratio.csv"
        assert main(["ratio", "--nmax", "200", "--out", str(out)]) == 0
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)


def test_ratio_precision_up_to_the_digit_limit(capsys):
    # ratio lifts the int-to-str guard to 50,000 digits, the most
    # --precision accepts (test_out_of_range_arguments_exit_2 tries 50,001)
    assert main(["ratio", "--nmax", "3", "--precision", "50000"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [len(x.split(".")[1]) for row in rows for x in row[3:]] == [50_000] * 4


def test_ratio_json(tmp_path):
    payload = run_to_json(
        ["ratio", "--nmax", "4", "--format", "json", "--precision", "3"],
        tmp_path,
    )
    rows = {r["n"]: r for r in payload["rows"]}
    assert rows[4]["essential_dags"] == "59"
    assert rows[4]["dags"] == "543"
    assert rows[4]["ratio"] == "9.203"


def test_mec_single_arc(tmp_path):
    p = tmp_path / "arc.txt"
    p.write_text(format_pdag(Dag(2, [(0, 1)])))
    payload = run_to_json(["mec", "--input", str(p)], tmp_path)
    assert payload["essential_graph"] == "n 2\n0 -- 1\n"
    assert payload["class_size"] == "2"
    assert sorted(payload["members"]) == ["n 2\n0 -> 1\n", "n 2\n1 -> 0\n"]


def test_mec_immorality_is_its_own_class(tmp_path):
    p = tmp_path / "imm.txt"
    p.write_text(format_pdag(Dag(3, [(0, 2), (1, 2)])))
    payload = run_to_json(["mec", "--input", str(p)], tmp_path)
    assert payload["essential_graph"] == "n 3\n0 -> 2\n1 -> 2\n"
    assert payload["class_size"] == "1"
    assert payload["members"] == ["n 3\n0 -> 2\n1 -> 2\n"]


def test_mec_full_k3(tmp_path):
    p = tmp_path / "k3dag.txt"
    p.write_text(format_pdag(Dag(3, [(0, 1), (0, 2), (1, 2)])))
    payload = run_to_json(["mec", "--input", str(p)], tmp_path)
    assert payload["essential_graph"] == "n 3\n0 -- 1\n0 -- 2\n1 -- 2\n"
    assert payload["class_size"] == "6"
    assert len(payload["members"]) == 6


def test_mec_total_order_counts_without_listing(tmp_path):
    # every DAG on the complete skeleton is in the class of the total order
    p = tmp_path / "order.txt"
    p.write_text(format_pdag(Dag(10, itertools.combinations(range(10), 2))))
    payload = run_to_json(["mec", "--input", str(p)], tmp_path)
    assert payload["class_size"] == "3628800" and payload["members"] is None


def test_mec_class_size_beyond_the_int_str_limit(tmp_path):
    # 20,000 disjoint arcs: a class of 2^20000 DAGs, whose 6,021 digits pass
    # the interpreter's default 4,300-digit guard; mec lifts it only to write
    p = tmp_path / "arcs.txt"
    p.write_text(format_pdag(Dag(40_000, [(2 * i, 2 * i + 1) for i in range(20_000)])))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        payload = run_to_json(["mec", "--input", str(p)], tmp_path)
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert payload["class_size"] == str(2**20_000)
        assert payload["members"] is None
    finally:
        sys.set_int_max_str_digits(before)


def test_hjy_run_log(tmp_path):
    out = tmp_path / "run.jsonl"
    rc = main(
        ["hjy", "--nmax", "3", "--steps", "25", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[0]["config"]["subcommand"] == "hjy"
    assert records[1] == {"step": 0, "state": records[1]["state"]}
    steps = records[2:-1]
    assert len(steps) == 25
    assert all(r["step"] == i for i, r in enumerate(steps, start=1))
    assert all(isinstance(r["accepted"], bool) for r in steps)
    verdict = records[-1]["uniformity"]
    assert verdict == {
        "n_states": 11,
        "symmetric": True,
        "uniform_stationary": True,
    }


def test_hjy_steps_zero_and_small_n(tmp_path):
    out = tmp_path / "n2.jsonl"
    rc = main(["hjy", "--nmax", "2", "--steps", "0", "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3  # config, start state, uniformity verdict
    assert records[-1]["uniformity"]["n_states"] == 2
    assert records[-1]["uniformity"]["uniform_stationary"] is True
    out1 = tmp_path / "n1.jsonl"
    assert main(["hjy", "--nmax", "1", "--steps", "3", "--out", str(out1)]) == 0
    last = json.loads(out1.read_text().splitlines()[-1])
    assert last["uniformity"] == {
        "n_states": 1,
        "symmetric": True,
        "uniform_stationary": True,
    }


@pytest.mark.parametrize(
    "edit, verdict",
    [
        # one move gone: its reverse has no partner, and the column of its
        # target sums to less than one
        ("drop", (False, False)),
        # an insert-line (2/36 at n = 3) read as an insert-arc (1/36): it no
        # longer weighs what its reverse weighs
        ("reweigh", (False, False)),
        # every weight kept, the denominator cut to 2: still symmetric, but
        # rows hold a negative probability
        ("overfull", (True, False)),
    ],
)
def test_hjy_uniformity_verdict_reads_the_arrays(tmp_path, monkeypatch, edit, verdict):
    exact = hjy.exact_kernel

    def broken(start):
        kernel = exact(start)
        if edit == "drop":
            for table in (kernel.rows, kernel.cols, kernel.kinds):
                table.pop()
        elif edit == "reweigh":
            kernel.kinds[kernel.kinds.index(2)] = 0
        else:
            kernel.denominator = 2
        return kernel

    monkeypatch.setattr(hjy, "exact_kernel", broken)
    out = tmp_path / "run.jsonl"
    assert main(["hjy", "--nmax", "3", "--steps", "0", "--out", str(out)]) == 0
    last = json.loads(out.read_text().splitlines()[-1])["uniformity"]
    assert (last["symmetric"], last["uniform_stationary"]) == verdict
    assert last["n_states"] == 11


def test_hjy_on_many_vertices(tmp_path):
    # a step tests only the edited vertices and the chain components they
    # touch, never the 20,000 vertices as a whole
    out = tmp_path / "run.jsonl"
    assert main(["hjy", "--nmax", "20000", "--steps", "3", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r.get("step") for r in records] == [None, 0, 1, 2, 3]


HUGE = 10**20  # above sys.maxsize, so no index-sized table can hold it


def test_mec_huge_vertex_count_exits_3(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text(f"n {HUGE}\n0 -> 1\n")
    assert main(["mec", "--input", str(p)]) == 3
    assert capsys.readouterr().err == (
        f"error: vertex count {HUGE} exceeds {sys.maxsize}\n"
    )


def test_hjy_huge_vertex_count_exits_3(capsys):
    assert main(["hjy", "--nmax", str(HUGE)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: vertex count {HUGE} exceeds {sys.maxsize}\n"
    assert captured.out == ""


def test_hjy_streams_its_records(tmp_path):
    # each record is written as its step is taken, so the peak does not grow
    # with --steps; a list of all 20,000 records takes about 8 MB
    out = tmp_path / "run.jsonl"
    tracemalloc.start()
    try:
        rc = main(["hjy", "--nmax", "10", "--steps", "20000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(out.read_text().splitlines()) == 20_002
    assert peak < 3_000_000


@pytest.mark.parametrize(
    "move", [None] + [(k, (0, 3, 11) if k >= 4 else (12, 4)) for k in range(6)]
)
@pytest.mark.parametrize("accepted", [False, True])
def test_hjy_step_record_is_the_sorted_json(move, accepted):
    encode = json.JSONEncoder(sort_keys=True).encode
    for t, digest in ((1234, "0123456789ab"), (7, "ba9876543210")):
        record = {
            "step": t,
            "kind": MOVE_KINDS[move[0]] if move else None,
            "vertices": list(move[1]) if move else None,
            "accepted": accepted,
            "state": digest,
        }
        # the second record reuses the vertex list cached for the first
        line = _step_record(t, move, accepted, digest)
        assert line == encode(record) + "\n"


def test_hjy_walk_is_one_step_call_per_step(tmp_path, monkeypatch):
    # the benchmark's tracer wraps hjy.step the same way: its calls are
    # hjy.steps, and the sum of int(out[2]) the accepted ones
    calls, accepted = [], []
    real = hjy.step

    def counted(*args):
        out = real(*args)
        calls.append(args)
        accepted.append(int(out[2]))
        return out

    monkeypatch.setattr(hjy, "step", counted)
    out = tmp_path / "run.jsonl"
    argv = ["hjy", "--nmax", "10", "--steps", "1500", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(calls) == 1500
    assert sum(accepted) == sum(r.get("accepted") is True for r in records) > 50


# sha256 of the `mecmc hjy` output, recorded while apply_move still repaired
# each edit to the essential graph of a consistent extension and accepted
# when the repair changed nothing; the n = 4 run also covers the uniformity
# verdict of the exact kernel
PINNED_HJY = {
    ("10", "1200", "7"): "78c282ce6c189dd2a1b0031fc37544deb771a65109dcdb8615914d172dea0e31",
    ("10", "1200", "2017"): "64059972a6f11b81f846b2fd789f7b4ffc18d914b3be559ad1451e4dafba2fc1",
    ("4", "2000", "3"): "cbb1685f69200d67365e2974aeda54b3a0ffc65a6f77b3effca5c873ccf36173",
    # recorded while proposals were numpy Generator.integers calls; at
    # n = 2 and 3 some draws are integers(1), which consume no generator word
    ("1", "3000", "5"): "7a7e7234f5d277507d68de8bf9c8ee6eb3bc4e5b1abb3eaa7d443f567e46778a",
    ("2", "3000", "11"): "d1e3c531e36850be9c03594785c528612c8ae8d411d6c612c93d7d8a95dbb008",
    ("3", "4000", "13"): "2c35929dffcae67176ed3ca11d1480b7deebc9b72e0e397e3f19a5bbc408b0b6",
    ("57", "3000", "17"): "ec1317ed45dc9d20c567ac2f28f32e4fba18738d988134181d9408e997e3b370",
}


@pytest.mark.parametrize("nmax, steps, seed", sorted(PINNED_HJY))
def test_hjy_trajectory_is_pinned(tmp_path, nmax, steps, seed):
    out = tmp_path / "run.jsonl"
    argv = ["hjy", "--nmax", nmax, "--steps", steps, "--seed", seed]
    assert main(argv + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_HJY[(nmax, steps, seed)]


def test_reruns_are_byte_identical(k3_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(
            [
                "sample-amo",
                "--input",
                k3_file,
                "--steps",
                "40",
                "--samples",
                "200",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# two_digit_tree's labels sort unlike its keys: the label "0>1;0>10;..."
# (source 5) sorts before "0>1;0>2;..." (source 0), its arc tuple after
SAMPLE_GRAPHS = dict(
    SUITE,
    one_vertex=path_graph(1),
    one_edge=path_graph(2),
    two_digit_tree=UndirectedGraph(
        11, [(0, 1), (0, 2), (0, 10)] + [(v, v + 1) for v in range(2, 9)]
    ),
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sample_amo_output_matches_per_state_rendering(tmp_path, fmt):
    # the arc-string table must give the bytes that formatting every sampled
    # state's key anew gives, for the walk that the row-indexed oracle takes
    steps, samples, seed = 30, 2000, 11
    for name, g in SAMPLE_GRAPHS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(format_pdag(g))
        out = tmp_path / f"{name}.{fmt}"
        argv = ["sample-amo", "--input", str(path), "--steps", str(steps)]
        argv += ["--samples", str(samples), "--seed", str(seed), "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 0
        space = build_orientation_space(g)
        final = sample_many_by_rows(space, steps, samples, np.random.default_rng(seed))
        config = RunConfig(
            subcommand="sample-amo",
            seed=seed,
            input=str(path),
            steps=steps,
            samples=samples,
            format=fmt,
        )
        expected = render_sample_amo(space, final, config.to_dict(), fmt)
        assert out.read_text() == expected, name


# sha256 of `mecmc sample-amo --steps 200 --samples 3000 --seed 5`, run in
# the input's directory so that the config names it as "<graph>.txt";
# recorded while each step multiplied the states by |E| and the output went
# through json's indent encoder
PINNED_SAMPLE_AMO = {
    ("k7", "json"): "265c74f825de6341948ecf7ca9f4002b95f5457fcc1e5a8b8f51efd0b98a3b9d",
    ("k7", "csv"): "867881cfe02970c753a88db35192c4d6b9274a0342420f13e4d7504848dfa55a",
    ("two_digit_tree", "json"): "70648da8ad646eb485d72c4a636f9acd7d0e817cd2263e4e9ed6dea154ae1d54",
    ("two_digit_tree", "csv"): "d536acb1d26ec19dc608b8f40e8d507ecddfca644b7406ccc6a796bddf7e7a10",
}


@pytest.mark.parametrize("name, fmt", sorted(PINNED_SAMPLE_AMO))
def test_sample_amo_output_is_pinned(tmp_path, monkeypatch, name, fmt):
    graph = complete_graph(7) if name == "k7" else SAMPLE_GRAPHS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.txt").write_text(format_pdag(graph))
    argv = ["sample-amo", "--input", f"{name}.txt", "--steps", "200"]
    argv += ["--samples", "3000", "--seed", "5", "--format", fmt, "--out", "out"]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest()
    assert digest == PINNED_SAMPLE_AMO[(name, fmt)]


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # main shares one parser across calls; no default or flag a call sets
    # may reach the next one, so each output must equal the same command's
    # output as the first call of a new interpreter
    graph = tmp_path / "graph.txt"
    graph.write_text(format_pdag(glued_clique_chain([3, 3], [2])))
    dag = tmp_path / "dag.txt"
    dag.write_text(format_graph(3, (), [(0, 1), (2, 1)]))
    calls = [
        ["sample-amo", "--input", str(graph), "--steps", "20", "--format", "csv"],
        ["sample-amo", "--input", str(graph), "--samples", "50"],
        ["ratio", "--nmax", "12"],
        ["mec", "--input", str(dag)],
        ["hjy", "--nmax", "4", "--steps", "30"],
        ["diagnose", "--input", str(graph)],
    ]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "mecmc.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh.stdout, argv
    assert build_parser() is build_parser()


def test_config_embeds_seed_not_out_path(k3_file, tmp_path):
    payload = run_to_json(
        ["sample-amo", "--input", k3_file, "--steps", "5", "--samples", "5"],
        tmp_path,
    )
    assert "out" not in payload["config"]
    assert payload["config"]["rng"] == "numpy-pcg64"


def test_cap_hint_names_no_knob_that_does_not_apply(tmp_path, capsys, monkeypatch):
    # mec lists members from the essential graph: a 25-edge skeleton whose
    # class is one DAG needs no cap at all
    p = tmp_path / "k55.txt"
    k55 = format_pdag(Dag(10, [(u, v) for u in range(5) for v in range(5, 10)]))
    p.write_text(k55)
    payload = run_to_json(["mec", "--input", str(p)], tmp_path)
    assert payload["class_size"] == "1" and payload["members"] == [k55]
    assert capsys.readouterr().err == ""
    # the dense spectrum cap of diagnose is fixed as well
    monkeypatch.setattr(flipchain, "DENSE_SPECTRUM_CAP", 5)
    p = tmp_path / "k3.txt"
    p.write_text(format_pdag(complete_graph(3)))
    assert main(["diagnose", "--input", str(p)]) == 3
    err = capsys.readouterr().err
    assert "dense spectrum cap 5" in err and "MECMC_STATE_CAP" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sample-amo", "--input", "g.txt", "--steps", "-5"], "--steps"),
        (["sample-amo", "--input", "g.txt", "--samples", "-1"], "--samples"),
        (["sample-amo", "--input", "g.txt", "--samples", "0"], "--samples"),
        (["hjy", "--steps", "-1"], "--steps"),
        (["ratio", "--precision", "-3"], "--precision"),
        (["hjy", "--seed", "-2"], "--seed"),
        (["hjy", "--steps", "ten"], "--steps"),
        (["hjy", "--nmax", "0"], "--nmax"),
        (["ratio", "--nmax", "1"], "--nmax"),
        (["ratio", "--nmax", "3", "--precision", "50001"], "--precision"),
    ],
)
def test_out_of_range_arguments_exit_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_diagnose_has_no_seed_option(capsys):
    # diagnose makes no random draws, so it takes no seed
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--input", "g.txt", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--help"])
    assert exc.value.code == 0
    assert "--seed" not in capsys.readouterr().out


def test_sample_amo_path_beyond_64_vertices(tmp_path):
    p = tmp_path / "path70.txt"
    p.write_text(format_pdag(path_graph(70)))
    payload = run_to_json(
        ["sample-amo", "--input", str(p), "--steps", "30", "--samples", "50"],
        tmp_path,
    )
    assert payload["summary"]["n_states"] == 70
    assert sum(payload["histogram"].values()) == 50
    for key in payload["histogram"]:
        assert key.count(">") == 69


# small values only: a fuzzed --samples or --nmax in the millions would
# allocate or compute for minutes, which is a resource limit, not a bug
NUMBERS = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["", "x", "1.5", "-0", "1e2", "0x3", " 2", "--"]),
)
GRAPH_TEXT = st.one_of(
    small_graphs(max_n=5).map(format_pdag),
    small_dags(max_n=5).map(format_pdag),
    st.text(alphabet="n0123456789 -<>\n#x", max_size=40),
)
FLAGS = {
    "sample-amo": ("--steps", "--samples", "--seed", "--format"),
    "diagnose": (),
    "ratio": ("--nmax", "--precision", "--format"),
    "mec": (),
    "hjy": ("--nmax", "--steps", "--seed"),
}


@st.composite
def cli_calls(draw):
    sub = draw(st.sampled_from(sorted(FLAGS)))
    argv = [sub]
    flags = draw(st.lists(st.sampled_from(FLAGS[sub]), max_size=3)) if FLAGS[sub] else []
    for flag in flags:
        value = draw(st.sampled_from(["csv", "json", "xml"]) if flag == "--format" else NUMBERS)
        argv += [flag, value]
    if sub in ("sample-amo", "diagnose", "mec") and draw(st.booleans()):
        argv += ["--input", "graph.txt"]
    return argv, draw(GRAPH_TEXT)


@settings(max_examples=60, deadline=None)
@given(cli_calls())
def test_cli_fuzz_exits_cleanly(call):
    argv, text = call
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "graph.txt"), "w") as fh:
            fh.write(text)
        argv = [os.path.join(tmp, a) if a == "graph.txt" else a for a in argv]
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", os.path.join(tmp, "out")])
            except SystemExit as e:
                code = e.code
    assert code in (0, 2, 3), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()
