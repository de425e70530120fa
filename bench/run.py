"""End-to-end and per-layer benchmark of the mecmc command line.

    python3 bench/run.py --workload flip-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The seed is turned into graph and DAG
files and ``--seed`` flags (``gen.py``).  Each pass is one closed loop with
one client: a fresh interpreter imports ``mecmc`` from ``src/`` once and
calls ``mecmc.cli.main`` on the workload's commands back to back, each
writing its output to a file (``child.py``).  Passes repeat until
``--seconds`` have elapsed, every output is checked (``checks.py``), and the
medians over passes are reported.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, whose spans wrap the library's functions from outside it
(``spans.py``), plus the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything a run writes goes to
``.bench_run/<workload>-trace<0|1>/`` in the checkout, including
``result.json`` with the environment, the inputs and every pass.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import gen  # noqa: E402
from spans import METRIC_OF_SPAN, self_times  # noqa: E402

# a run must end within 180 s; no pass starts that could not end by then
HARD_LIMIT_S = 165.0

# one BLAS thread: the benchmark is a single client, and a second thread on
# a shared 2-core machine mostly adds run-to-run spread
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _load_library():
    if not os.path.isfile(os.path.join(SRC, "mecmc", "__init__.py")):
        sys.exit(f"error: no mecmc package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    names = ("graphs", "amo", "essential")
    return types.SimpleNamespace(**{m: importlib.import_module(f"mecmc.{m}") for m in names})


def _environment():
    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level, size = read(f"{base}/{idx}/level"), read(f"{base}/{idx}/size")
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    commit = None
    head = read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        ref = head[5:]
        commit = read(os.path.join(ROOT, ".git", ref))
        for line in (read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if commit is None and line.endswith(" " + ref):
                commit = line.split()[0]
    elif head:
        commit = head
    return {
        "cpu": cpu,
        "caches": caches,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit or "unknown (not a git checkout)",
        "child_env": CHILD_ENV,
    }


def _run_pass(workdir, workload, k, traced, timeout):
    """Run one child over the command list; returns its raw pass record."""
    tag = f"pass{k}"
    os.makedirs(os.path.join(workdir, "out", tag))
    spec = {
        "src": SRC,
        "trace": traced,
        "result": os.path.join(workdir, f"{tag}.result.json"),
        "spans": os.path.join(workdir, f"{tag}.spans.jsonl"),
        "commands": [
            {"argv": c["argv"], "out": os.path.join("out", tag, f"{c['id']}.txt")}
            for c in workload["commands"]
        ],
    }
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **CHILD_ENV)
    stamp = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {k} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(spec["result"]) as fh:
        res = json.load(fh)
    digests, sizes = [], []
    for c in spec["commands"]:
        path = os.path.join(workdir, c["out"])
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            digests.append(hashlib.sha256(data).hexdigest())
            sizes.append(len(data))
        else:
            digests.append(None)
            sizes.append(0)
    lat = [r["latency_s"] for r in res["records"]]
    rec = {
        "traced": traced,
        "setup_s": res["ready"] - stamp,
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "latency_s": lat,
        "cpu_s": [r["cpu_s"] for r in res["records"]],
        "exit": [r["exit"] for r in res["records"]],
        "stderr": [r["stderr"] for r in res["records"]],
        "digest": digests,
        "out_bytes": sum(sizes),
        "env": res["env"],
    }
    if traced:
        rec["layers"] = _layer_metrics(spec["spans"], lat)
        rec["layers"]["cli.out_bytes"] = float(rec["out_bytes"])
    return rec


def _layer_metrics(spans_path, latencies):
    """Per-layer totals of one traced pass, from its spans."""
    with open(spans_path) as fh:
        spans = [json.loads(line) for line in fh]
    own = self_times(spans)
    out = {m: 0.0 for m in METRIC_OF_SPAN.values()}
    inclusive, counts, calls = {}, {}, {}
    top = [0.0] * len(latencies)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        if own[s["id"]] < -1e-9:
            raise RuntimeError(f"span {s['id']} ({name}) has negative self time")
        out[METRIC_OF_SPAN[name]] += own[s["id"]]
        inclusive[name] = inclusive.get(name, 0.0) + dur
        counts[name] = counts.get(name, 0) + s.get("count", 0)
        calls[name] = calls.get(name, 0) + 1
        if s["parent"] is None:
            top[s["cmd"]] += dur
    cli_self = [lat - t for lat, t in zip(latencies, top)]
    if min(cli_self) < -1e-6:
        raise RuntimeError("spans of a command outlast the command")
    out["cli.self_s"] = sum(cli_self)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out["amo.states"] = float(counts.get("amo.enumerate_amos", 0))
    out["amo.states_per_s"] = rate(out["amo.states"], inclusive.get("amo.enumerate_amos", 0))
    out["flipchain.transitions"] = float(counts.get("flipchain.sample_many", 0))
    out["flipchain.transitions_per_s"] = rate(
        out["flipchain.transitions"], inclusive.get("flipchain.sample_many", 0))
    out["essential.members_listed"] = float(counts.get("essential.mec_of_dag", 0))
    steps = calls.get("hjy.step", 0)
    out["hjy.steps"] = float(steps)
    out["hjy.steps_per_s"] = rate(steps, inclusive.get("hjy.step", 0))
    out["hjy.accept_frac"] = rate(counts.get("hjy.step", 0), steps)
    # self times of every span plus the CLI's own time make up the traced
    # command time exactly; the residual shows float error only
    layer_total = sum(out[m] for m in set(METRIC_OF_SPAN.values()))
    out["trace.residual_s"] = abs(layer_total + out["cli.self_s"] - sum(latencies))
    out["trace.spans"] = float(len(spans))
    return out


def _end_to_end(passes):
    """End-to-end metrics over passes.

    Each command's latency is its median over the passes, which drops a pass
    slowed by a burst of load from other processes on the machine; the
    command-list time and the command percentiles are taken over these.
    """
    lat = [statistics.median(p["latency_s"][i] for p in passes)
           for i in range(len(passes[0]["latency_s"]))]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(lat),
        "cmd_p50_s": statistics.median(lat),
        "cmd_max_s": max(lat),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(gen.SIZES), default="full",
                    help="input sizes; 'smoke' shrinks every input for a quick self-test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    lib = _load_library()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = gen.make_workload(args.workload, args.seed, workdir, lib, args.scale)
    commands = workload["commands"]
    inputs = {}
    for c in commands:
        if "--input" in c["argv"]:
            path = c["argv"][c["argv"].index("--input") + 1]
            with open(os.path.join(workdir, path)) as fh:
                inputs[c["id"]] = fh.read()

    start = time.monotonic()
    passes = []
    while True:
        elapsed = time.monotonic() - start
        kinds = {p["traced"] for p in passes}
        done = elapsed >= args.seconds and (not args.trace or kinds == {False, True})
        longest = max((p["wall_s"] + p["setup_s"] for p in passes), default=0.0)
        if passes and (done or elapsed + 1.5 * longest > HARD_LIMIT_S):
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(_run_pass(workdir, workload, len(passes), traced, HARD_LIMIT_S - elapsed))

    # the first pass is untraced and is checked in full; every later pass
    # must reproduce its exit codes and output bytes exactly
    first = passes[0]
    failures = {}
    for c in commands:
        i = c["id"]
        out_text = None
        if first["digest"][i] is not None:
            with open(os.path.join(workdir, "out", "pass0", f"{i}.txt")) as fh:
                out_text = fh.read()
        fails = checks.check(c, first["exit"][i], out_text, inputs.get(i), lib)
        if fails and first["stderr"][i]:
            fails.append("stderr: " + first["stderr"][i].strip().replace("\n", " | "))
        if fails:
            failures[i] = fails
    failed = 0
    for k, p in enumerate(passes):
        for c in commands:
            i = c["id"]
            same = p["exit"][i] == first["exit"][i] and p["digest"][i] == first["digest"][i]
            if not same:
                failures.setdefault(i, []).append(f"pass {k} output differs from pass 0")
            if i in failures:
                failed += 1
    attempted = len(commands) * len(passes)

    # mec on a large skeleton with a small class exits 3 at this commit; it
    # is a known defect, counted in ``failed`` but not an incorrect output
    def known_defect(i):
        c = commands[i]
        return (c["check"].get("stratum") == "large-skeleton" and first["exit"][i] == 3
                and all(p["exit"][i] == 3 for p in passes))

    correct = all(known_defect(i) for i in failures)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = _end_to_end(plain)
    metrics["fail_frac"] = failed / attempted
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(p["layers"][key] for p in traced)
        metrics["trace.overhead_s"] = _end_to_end(traced)["wall_s"] - metrics["wall_s"]

    env = dict(_environment(), **first["env"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": env,
        "inputs": workload["inputs"],
        "commands": [
            {"id": c["id"], "argv": c["argv"],
             "exit": first["exit"][c["id"]], "sha256": first["digest"][c["id"]],
             "median_s": statistics.median(p["latency_s"][c["id"]] for p in plain),
             "failures": failures.get(c["id"], []), "known_defect": known_defect(c["id"])}
            for c in commands
        ],
        "passes": [{k: v for k, v in p.items() if k not in ("stderr", "digest")} for p in passes],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    # keep the last traced pass's spans; drop bulky outputs
    shutil.rmtree(os.path.join(workdir, "out"))
    for k, p in enumerate(passes):
        if p["traced"] and k != max(j for j, q in enumerate(passes) if q["traced"]):
            os.remove(os.path.join(workdir, f"pass{k}.spans.jsonl"))

    _report(result, wanted, declared)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: BENCHMARK.json declares metrics this run did not measure: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def _report(result, wanted, declared):
    env = result["environment"]
    print(f"# mecmc benchmark  workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} passes={len(result['passes'])} "
          f"(traced {sum(p['traced'] for p in result['passes'])})")
    print("# env " + json.dumps(env, sort_keys=True))
    for info in result["inputs"]:
        print("# input " + json.dumps(info, sort_keys=True))
    for c in result["commands"]:
        status = "ok" if not c["failures"] else ("KNOWN-DEFECT" if c["known_defect"] else "FAIL")
        print(f"# cmd {c['id']:2d} {status:12s} exit={c['exit']} {c['median_s']:8.4f}s  "
              f"{' '.join(c['argv'])}")
        for f in c["failures"]:
            print(f"#      {f}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    shown = {m["name"] for m in wanted}
    for name, value in sorted(result["metrics"].items()):
        if result["trace"] or name in shown or name == "fail_frac":
            print(f"# metric {name} = {value:.6g} {units.get(name, '')}".rstrip())
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")


if __name__ == "__main__":
    sys.exit(main())
