"""Command-line surface: sampling runs, spectrum diagnostics, count tables.

One binary with subcommands; every output embeds the RunConfig (seed
included) that produced it, and identical configs produce byte-identical
files.  Exact quantities (counts, rationals) are serialized as strings,
floats as plain JSON numbers.  Exit codes: 0 success, 2 invalid input,
3 a size cap exceeded (the hint names MECMC_STATE_CAP where it applies),
memory exhausted, or the output (stdout or ``--out``) closed by its reader
before the output ended.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import amo as amo_mod
from . import flipchain, hjy, posets
from .essential import class_members, class_size, essential_graph_of_dag
from .graphs import (
    CapExceededError,
    Pdag,
    UndirectedGraph,
    clique_tree,
    format_graph,
    format_pdag,
    parse_dag,
    parse_graph_text,
)

MEC_LIST_CAP = 1000
# the int-to-str digit limit that ratio lifts Python's guard to, so also
# the most digits --precision may ask for
RATIO_DIGITS = 50_000

# why diagnose leaves a field null: one fixed sentence per cause
NULL_LARGE = (
    f"more than {flipchain.DENSE_STATES} states: exact_tmix needs the dense matrix"
)
NULL_UNMIXED = (
    f"the chain is not within 1/{round(1 / flipchain.TMIX_EPS)} of uniform "
    f"after 2^{flipchain.TMIX_MAX_STEPS.bit_length() - 1} steps"
)
NULL_ONE_CLIQUE = "one maximal clique: the decomposition bound needs two or more"
NULL_NO_CUT = "no clique cut is nonempty with at most half of the states"


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    seed: int = 0
    input: str | None = None
    steps: int | None = None
    samples: int | None = None
    nmax: int | None = None
    precision: int | None = None
    format: str = "json"
    rng: str = "numpy-pcg64"

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if v is not None}


def state_cap():
    raw = os.environ.get("MECMC_STATE_CAP")
    if raw is None:
        return amo_mod.DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"MECMC_STATE_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise ValueError("MECMC_STATE_CAP must be positive")
    return cap


def _emit(text, out):
    """Write a string, or an iterable of strings as it yields them, to the
    file ``out`` or to stdout.  The file opens before the first string is
    asked for, so an unwritable ``out`` fails before any work is done.  A
    reader that closes its pipe early raises ``BrokenPipeError``."""
    if isinstance(text, str):
        text = (text,)
    if out is None:
        sys.stdout.writelines(text)
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(text)
    except BrokenPipeError:
        raise
    except OSError as e:
        raise ValueError(f"cannot write {out}: {e}")


def _dump_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _read_input(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}")


def _orientation_space(path):
    """Flip graph of the connected chordal graph in ``path``, MECMC_STATE_CAP capped."""
    n, lines, arcs = parse_graph_text(_read_input(path))
    if arcs:
        raise ValueError("expected an undirected graph, found arcs")
    if n == 0:
        raise ValueError("input graph has no vertices")
    # a connected graph has at least n - 1 edges; checking the header first
    # keeps a huge vertex count from building one set per vertex
    if n > len(lines) + 1:
        raise ValueError("input graph must be connected")
    g = UndirectedGraph(n, lines)
    try:
        return amo_mod.build_orientation_space(g, cap=state_cap())
    except CapExceededError as e:
        raise CapExceededError(f"{e}\nhint: raise MECMC_STATE_CAP") from None


def cmd_sample_amo(args):
    space = _orientation_space(args.input)
    config = RunConfig(
        subcommand="sample-amo",
        seed=args.seed,
        input=args.input,
        steps=args.steps,
        samples=args.samples,
        format=args.format,
    )
    rng = np.random.default_rng(args.seed)
    final = flipchain.sample_many(space, args.steps, args.samples, rng)
    counts = np.bincount(final, minlength=space.size)
    sampled = np.flatnonzero(counts)
    arcs, rows = space.arc_ranks(sampled)
    label = [f"{u}>{v}" for u, v in arcs]
    # (name, count) of each sampled state, by name: sort_keys's order
    hist = sorted(
        (";".join([label[r] for r in row]), c)
        for row, c in zip(rows, counts[sampled].tolist())
    )
    if args.format == "csv":
        top = f"# config {json.dumps(config.to_dict(), sort_keys=True)}\n"
        body = [f"{name},{c}\n" for name, c in hist]
        end = f"# n_states {space.size} distinct_sampled {len(hist)}\n"
        _emit([top, "orientation,count\n", *body, end], args.out)
        return 0
    payload = {"config": config.to_dict(), "histogram": None, "orientations": None}
    payload["summary"] = {"n_states": space.size, "distinct_sampled": len(hist)}
    payload["summary"].update(samples=args.samples, steps=args.steps)
    # only the config and the summary go through json; the histogram and the
    # orientations, the two nulls there, are written a member at a time
    top, *rest = _dump_json(payload).rsplit("null", 2)
    middle, end = ("\n  }" + part for part in rest)
    # keys are sorted, so format_graph(n, (), key) is the line n and a line
    # u -> v per label u>v, if any; an escaped newline is all JSON escapes
    head = f"n {space.graph.n}\\n"
    graphs = ((k and k + ";").replace(";", "\\n").replace(">", " -> ") for k, _ in hist)
    sep = ["{\n"] + [",\n"] * (len(hist) - 1)
    histogram = (f'{s}    "{name}": {c}' for s, (name, c) in zip(sep, hist))
    texts = (f'{s}    "{k}": "{head}{g}"' for s, (k, _), g in zip(sep, hist, graphs))
    _emit(itertools.chain([top], histogram, [middle], texts, [end]), args.out)
    return 0


def cmd_diagnose(args):
    space = _orientation_space(args.input)
    g = space.graph
    config = RunConfig(subcommand="diagnose", input=args.input)
    tm = flipchain.transition_matrix(space)
    gap = flipchain.spectral_gap(tm)
    ct = clique_tree(g)
    stats = flipchain.decomposition_stats(ct)
    if len(ct.cliques) >= 2:
        mr = flipchain.madras_randall_bound(g, ct)
        bound_le_gap = bool(mr <= gap + flipchain.EIGEN_TOL)
    else:
        mr = None
        bound_le_gap = None
    cuts = flipchain.clique_cut_bottlenecks(space)
    worst = None
    if cuts:
        idx = min(cuts, key=lambda i: cuts[i].phi)
        rep = cuts[idx]
        worst = {
            "clique": list(ct.cliques[idx]),
            "phi": str(rep.phi),
            "subset_size": rep.subset_size,
            "boundary_edges": rep.boundary_edges,
            "tmix_lower": str(rep.tmix_lower),
        }
    dense = space.size <= flipchain.DENSE_STATES
    tmix = flipchain.exact_tmix(tm) if dense else None
    payload = {
        "config": config.to_dict(),
        "graph": {"n": g.n, "edges": g.num_edges},
        "n_states": space.size,
        "spectrum": "dense" if dense else "sparse",
        "gap_exact": gap,
        "gap_mr_bound": mr,
        "bound_le_gap": bound_le_gap,
        "decomposition": {
            "o_g": str(stats.o_g),
            "theta": stats.theta,
            "diameter": stats.diameter,
            "t_max": stats.t_max,
            "z": str(stats.z),
        },
        "phi": worst["phi"] if worst else None,
        "tmix_lower": worst["tmix_lower"] if worst else None,
        "worst_clique_cut": worst,
        "tmix_exact": tmix,
    }
    reasons = {
        "gap_mr_bound": NULL_ONE_CLIQUE,
        "bound_le_gap": NULL_ONE_CLIQUE,
        "phi": NULL_NO_CUT,
        "tmix_lower": NULL_NO_CUT,
        "worst_clique_cut": NULL_NO_CUT,
        "tmix_exact": NULL_UNMIXED if dense else NULL_LARGE,
    }
    payload["null_reasons"] = {
        k: why for k, why in reasons.items() if payload[k] is None
    }
    _emit(_dump_json(payload), args.out)
    return 0


@contextlib.contextmanager
def _str_digits(limit):
    """The interpreter's int-to-str digit guard lifted to ``limit`` digits
    (0: no limit) inside the block, and restored after it."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if old:
        sys.set_int_max_str_digits(limit and max(old, limit))
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


def cmd_ratio(args):
    # the counts reach thousands of decimal digits well before n = 200
    with _str_digits(RATIO_DIGITS):
        config = RunConfig(
            subcommand="ratio",
            nmax=args.nmax,
            precision=args.precision,
            format=args.format,
        )
        rows = [
            {
                "n": r.n,
                "essential_dags": str(r.essential_dags),
                "dags": str(r.dags),
                "ratio": posets.decimal_string(
                    (r.dags, r.essential_dags), args.precision
                ),
                "adjusted_ratio": posets.decimal_string(
                    r.adjusted_pair, args.precision
                ),
            }
            for r in posets.ratio_table(args.nmax)
        ]
        if args.format == "csv":
            out = [f"# config {json.dumps(config.to_dict(), sort_keys=True)}"]
            out.append("n,essential_dags,dags,ratio,adjusted_ratio")
            out.extend(",".join(map(str, row.values())) for row in rows)
            _emit("\n".join(out) + "\n", args.out)
        else:
            _emit(_dump_json({"config": config.to_dict(), "rows": rows}), args.out)
    return 0


def cmd_mec(args):
    d = parse_dag(_read_input(args.input))
    config = RunConfig(subcommand="mec", input=args.input)
    eg = essential_graph_of_dag(d)
    size = class_size(eg)
    members = None
    if size <= MEC_LIST_CAP:
        members = sorted(format_graph(eg.n, (), key) for key in class_members(eg))
    # at most 2^|E| members: fewer digits than the input has characters
    with _str_digits(0):
        payload = {
            "config": config.to_dict(),
            "essential_graph": format_pdag(eg),
            "class_size": str(size),
            "members": members,
        }
        _emit(_dump_json(payload), args.out)
    return 0


def cmd_hjy(args):
    _emit(_hjy_records(args), args.out)
    return 0


def _hjy_records(args):
    """The walk's JSON lines, each yielded as soon as its step is taken."""
    n = args.nmax
    config = RunConfig(subcommand="hjy", seed=args.seed, steps=args.steps, nmax=n)
    # the moves of default_rng(seed).integers calls, decoded a block at a time
    moves = hjy.proposals(n, np.random.PCG64(args.seed))
    state = hjy.MaskState(Pdag(n))
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call
    yield encode({"config": config.to_dict()}) + "\n"
    digest = hjy.state_hash(state)
    yield encode({"step": 0, "state": digest}) + "\n"
    for t in range(1, args.steps + 1):
        state, move, accepted = hjy.step(state, moves)
        if accepted:  # a rejected step leaves the state as it was
            digest = hjy.state_hash(state)
        yield _step_record(t, move, accepted, digest)
    if n <= 4:
        kernel = hjy.exact_kernel(Pdag(n, (), ()))
        # integer checks, each weight a numerator over kernel.denominator.
        # Symmetric: the moves, reversed, carry the same weights.  Uniform
        # stationary: no holding is negative and, as each row sums to one
        # by construction, each column sums to one too
        weights = [kernel.weights[k] for k in kernel.kinds]
        forward = sorted(zip(kernel.rows, kernel.cols, weights))
        symmetric = forward == sorted(zip(kernel.cols, kernel.rows, weights))
        column = kernel.holding()
        doubly = min(column) >= 0
        for j, w in zip(kernel.cols, weights):
            column[j] += w
        doubly = doubly and all(c == kernel.denominator for c in column)
        verdict = {"n_states": len(kernel), "symmetric": symmetric}
        verdict["uniform_stationary"] = doubly
        yield encode({"uniformity": verdict}) + "\n"


def _step_record(t, move, accepted, digest):
    """One step's JSON line, byte for byte as ``JSONEncoder(sort_keys=True)``
    encodes {"step", "kind", "vertices", "accepted", "state"} for the
    ``hjy.proposals`` move (kind index, vertices); kind and vertices are
    null when no move was drawn."""
    kind = vertices = "null"
    if move is not None:
        kind, vertices = f'"{hjy.MOVE_KINDS[move[0]]}"', _json_list(move[1])
    return (
        f'{{"accepted": {"true" if accepted else "false"}, "kind": {kind}, '
        f'"state": "{digest}", "step": {t}, "vertices": {vertices}}}\n'
    )


@functools.lru_cache(maxsize=1 << 12)
def _json_list(vertices):
    """A move's vertex tuple as a JSON list, made once per tuple."""
    return str(list(vertices))


def _at_least(low, high=None):
    """argparse type: an integer from ``low`` to ``high`` (None: no top)."""

    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if high is not None and int(text) > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return int(text)

    return integer


@functools.cache
def build_parser():
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged, so every call to ``main`` can share it."""
    p = argparse.ArgumentParser(
        prog="mecmc",
        description="Sample and diagnose Markov chains on graph orientations "
        "and essential graphs, and tabulate equivalence-class counts.",
        epilog="Environment: MECMC_STATE_CAP overrides the enumeration cap.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser(
        "sample-amo", help="run the edge-flip chain on a chordal graph"
    )
    sp.add_argument("--input", required=True, help="undirected graph file")
    sp.add_argument("--steps", type=_at_least(0), default=1000)
    sp.add_argument("--samples", type=_at_least(1), default=1000)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sample_amo)

    sp = sub.add_parser(
        "diagnose", help="exact spectrum, decomposition bound, bottlenecks"
    )
    sp.add_argument("--input", required=True, help="undirected graph file")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser(
        "ratio", help="DAGs-per-class count table from the poset recursions"
    )
    sp.add_argument("--nmax", type=_at_least(2), default=200)
    sp.add_argument("--precision", type=_at_least(0, RATIO_DIGITS), default=13)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser(
        "mec", help="essential graph and equivalence class of a DAG"
    )
    sp.add_argument("--input", required=True, help="DAG file (arcs only)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_mec)

    sp = sub.add_parser(
        "hjy", help="run the move chain on essential graphs from empty"
    )
    sp.add_argument(
        "--nmax", type=_at_least(1), default=3, help="number of vertices"
    )
    sp.add_argument("--steps", type=_at_least(0), default=100)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_hjy)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # numpy's message names the size: "Unable to allocate 7.28 TiB ..."
        why = str(e) or "allocation failed"
        print(f"error: out of memory: {why}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        out = getattr(args, "out", None)
        if out is None:
            # the reader closed stdout; send what is still buffered to
            # devnull so the interpreter's last flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "stdout" if out is None else out
        print(f"error: {where} was closed before the output ended", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
