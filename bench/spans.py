"""Spans around the library's public functions, recorded from outside it.

``Tracer.install()`` replaces each function named in ``SPANS`` by a wrapper
in every ``mecmc`` module that holds it, including names imported directly
(``mecmc.cli.class_size``, ``mecmc.hjy.essential_graph_of_dag``), so calls
made from inside the library are seen too.  A span records its name, start,
end, parent span, the command it belongs to, and a count where the function
does countable work.  Spans stay in memory until ``write``.  Nothing in the
library itself is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) -> the per-layer metric its spans' self time adds to
SPANS = {
    ("graphs", "parse_undirected"): "graphs.parse_s",
    ("graphs", "parse_dag"): "graphs.parse_s",
    ("graphs", "require_chordal"): "graphs.chordal_s",
    ("graphs", "is_chordal"): "graphs.chordal_s",
    ("graphs", "perfect_elimination_ordering"): "graphs.chordal_s",
    ("graphs", "clique_tree"): "graphs.clique_tree_s",
    ("graphs", "maximal_cliques"): "graphs.clique_tree_s",
    ("amo", "enumerate_amos"): "amo.enumerate_s",
    ("amo", "build_orientation_space"): "amo.space_s",
    ("amo", "count_amos"): "amo.count_s",
    ("flipchain", "transition_matrix"): "flipchain.matrix_s",
    ("flipchain", "spectral_gap"): "flipchain.eigen_s",
    ("flipchain", "exact_tmix"): "flipchain.tmix_s",
    ("flipchain", "clique_cut_bottlenecks"): "flipchain.bottleneck_s",
    ("flipchain", "decomposition_stats"): "flipchain.bounds_s",
    ("flipchain", "madras_randall_bound"): "flipchain.bounds_s",
    ("flipchain", "move_table"): "flipchain.move_table_s",
    ("flipchain", "sample_many"): "flipchain.sample_s",
    ("essential", "essential_graph_of_dag"): "essential.cpdag_s",
    ("essential", "class_size"): "essential.class_size_s",
    ("essential", "mec_of_dag"): "essential.members_s",
    ("essential", "enumerate_essential_graphs"): "essential.enumerate_s",
    ("posets", "robinson_counts"): "posets.recursion_s",
    ("posets", "steinsky_counts"): "posets.recursion_s",
    ("posets", "ratio_table"): "posets.ratio_s",
    ("posets", "decimal_string"): "posets.format_s",
    ("hjy", "step"): "hjy.step_s",
    ("hjy", "consistent_extension"): "hjy.extension_s",
    ("hjy", "exact_kernel"): "hjy.kernel_s",
}

# work counts recorded on the span: span name -> count from (args, result);
# an hjy step counts 1 when its move was accepted
COUNTS = {
    "amo.enumerate_amos": lambda args, out: len(out),
    "flipchain.sample_many": lambda args, out: int(args[1]) * int(args[2]),
    "essential.mec_of_dag": lambda args, out: len(out),
    "hjy.step": lambda args, out: int(out[2]),
}

MODULES = ("graphs", "amo", "flipchain", "essential", "posets", "hjy", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, command, count)
        self.stack = []
        self.command = None

    def _wrap(self, fn, name):
        counter = COUNTS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.command, None)
            if counter is not None:
                spans[sid] = spans[sid][:6] + (counter(args, out),)
            return out

        return wrapper

    def install(self):
        mods = {m: sys.modules[f"mecmc.{m}"] for m in MODULES}
        for mod, fname in SPANS:
            orig = getattr(mods[mod], fname)
            wrapped = self._wrap(orig, f"{mod}.{fname}")
            for m in list(mods.values()) + [sys.modules["mecmc"]]:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, cmd, count in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "cmd": cmd}
                if count is not None:
                    rec["count"] = count
                fh.write(json.dumps(rec) + "\n")


METRIC_OF_SPAN = {f"{mod}.{fname}": metric for (mod, fname), metric in SPANS.items()}


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}
