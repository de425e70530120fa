"""Output checks, one set per subcommand.

``check(cmd, code, out_text, input_text, lib)`` returns a list of failure
messages; an empty list means the command's output is correct.  Structural
facts (AMO-ness, Markov equivalence, hash bookkeeping) are checked here
independently; class sizes and state counts are compared with what the
generator recorded from the library when it wrote the input.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

# number of essential graphs on n vertices (the test suite asserts 11 and 185)
ESSENTIAL_GRAPHS = {1: 1, 2: 2, 3: 11, 4: 185}
# labeled DAGs on n = 2..5 vertices (Robinson)
DAGS = ["3", "25", "543", "29281"]
RATIO_200 = "13.6517978587767"


def _parse(text):
    n, pairs = None, []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "n":
            n = int(parts[1])
        elif len(parts) == 3:
            pairs.append((int(parts[0]), int(parts[2])))
    return n, pairs


def _acyclic(n, arcs):
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == n


def _skeleton(arcs):
    return frozenset(frozenset(a) for a in arcs)


def _immoralities(n, arcs):
    skel = _skeleton(arcs)
    parents = [[] for _ in range(n)]
    for u, v in arcs:
        parents[v].append(u)
    return {
        (min(a, b), v, max(a, b))
        for v in range(n)
        for i, a in enumerate(parents[v])
        for b in parents[v][i + 1:]
        if frozenset((a, b)) not in skel
    }


def _is_amo(n, edges, arcs):
    """Acyclic, no immorality, and exactly the input's skeleton."""
    return (
        len(arcs) == len(edges)
        and _skeleton(arcs) == _skeleton(edges)
        and _acyclic(n, arcs)
        and not _immoralities(n, arcs)
    )


def _diagnose(c, out, _input, _lib):
    fails = []
    gap = out["gap_exact"]
    if not 0 < gap <= 1 + 1e-9:
        fails.append(f"gap {gap} outside (0, 1]")
    if out["gap_mr_bound"] is not None and out["bound_le_gap"] is not True:
        fails.append("decomposition bound exceeds the gap")
    if out["n_states"] != c["states"]:
        fails.append(f"n_states {out['n_states']} != count_amos {c['states']}")
    if c.get("two_clique"):
        t, s = c["two_clique"]
        want = Fraction(1, c["edges"] * (math.comb(t, s) - 1))
        if out["phi"] is None or Fraction(out["phi"]) != want:
            fails.append(f"phi {out['phi']} != {want}")
    if out["tmix_exact"] is not None and out["tmix_lower"] is not None:
        if out["tmix_exact"] < Fraction(out["tmix_lower"]):
            fails.append("tmix_exact below the conductance lower bound")
    return fails


def _sample_amo(c, out, input_text, _lib):
    fails = []
    hist = out["histogram"]
    if sum(hist.values()) != c["samples"]:
        fails.append(f"histogram sums to {sum(hist.values())}, not {c['samples']}")
    n, edges = _parse(input_text)
    for key in hist:
        arcs = [tuple(map(int, a.split(">"))) for a in key.split(";")] if key else []
        if not _is_amo(n, edges, arcs):
            fails.append(f"histogram key {key!r} is not an AMO of the input")
            break
    if out["summary"]["n_states"] != c["states"]:
        fails.append(f"n_states {out['summary']['n_states']} != count_amos {c['states']}")
    return fails


def _mec(c, out, input_text, lib):
    fails = []
    eg = lib.graphs.parse_pdag(out["essential_graph"])
    if not lib.essential.is_essential_graph(eg):
        fails.append("essential_graph fails the four-condition test")
    if out["class_size"] != str(c["class_size"]):
        fails.append(f"class_size {out['class_size']} != {c['class_size']}")
    members = out["members"]
    if members is not None:
        if len(members) != c["class_size"] or len(set(members)) != len(members):
            fails.append(f"{len(members)} distinct members listed, class size {c['class_size']}")
        if input_text not in members:
            fails.append("input DAG missing from its class")
        n, arcs = _parse(input_text)
        skel, imm = _skeleton(arcs), _immoralities(n, arcs)
        for m in members:
            mn, marcs = _parse(m)
            if not (mn == n and _skeleton(marcs) == skel and _acyclic(n, marcs)
                    and _immoralities(n, marcs) == imm):
                fails.append("a listed member is not Markov equivalent to the input")
                break
    return fails


def _ratio(c, text):
    fails = []
    rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
    if [r["dags"] for r in rows[: len(DAGS)]] != DAGS[: len(rows)]:
        fails.append("DAG counts for n = 2..5 differ from Robinson's")
    last = rows[-1]
    if c["nmax"] == 200 and not last["ratio"].startswith(RATIO_200):
        fails.append(f"n = 200 ratio {last['ratio']} does not start {RATIO_200}")
    if not all(Fraction(r["adjusted_ratio"]) < 4 for r in rows):
        fails.append("an adjusted ratio is not below 4")
    if len(rows) != c["nmax"] - 1:
        fails.append(f"{len(rows)} rows for nmax {c['nmax']}")
    return fails


def _hjy(c, text):
    fails = []
    lines = [json.loads(line) for line in text.splitlines()]
    steps = [r for r in lines if "step" in r]
    if [r["step"] for r in steps] != list(range(c["steps"] + 1)):
        fails.append(f"{len(steps)} step lines, want {c['steps'] + 1}")
    for prev, cur in zip(steps, steps[1:]):
        if not cur["accepted"] and cur["state"] != prev["state"]:
            fails.append(f"rejected step {cur['step']} changed the state hash")
            break
    if c["n"] in ESSENTIAL_GRAPHS:
        unif = [r["uniformity"] for r in lines if "uniformity" in r]
        want = {"n_states": ESSENTIAL_GRAPHS[c["n"]], "symmetric": True,
                "uniform_stationary": True}
        if unif != [want]:
            fails.append(f"uniformity line {unif} != {want}")
    return fails


def check(cmd, code, out_text, input_text, lib):
    c = cmd["check"]
    if code != 0:
        return [f"exit code {code}, want 0"]
    if c["kind"] == "ratio":
        return _ratio(c, out_text)
    if c["kind"] == "hjy":
        return _hjy(c, out_text)
    out = json.loads(out_text)
    check_fn = {"diagnose": _diagnose, "sample-amo": _sample_amo, "mec": _mec}[c["kind"]]
    return check_fn(c, out, input_text, lib)
