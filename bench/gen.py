"""Seeded inputs for the benchmark workloads.

``make_workload(name, seed, workdir)`` writes graph and DAG files in the
repository's text format under ``workdir/in`` and returns the command list the
child runs, with what the output checks need to know about each input.  The
same seed gives the same files and flags.  The program sees only those files
and flags; this module calls the library (imported from the checkout) only to
keep random inputs inside a state-count window and to record their sizes.

Fixed members of each workload (the paper's glued-clique family, K_7, a path,
K_{5,5}) are relabeled by a seeded vertex permutation, so every seed gives new
files of the same cost.  Random members are drawn inside narrow state-count
windows for the same reason: the spread between seeds must stay small.
"""

from __future__ import annotations

import itertools
import os
import random

WORKLOADS = ("flip-exact", "flip-sample", "class-count", "hjy-walk")


def _glued(sizes, overlaps):
    """Edges of a chain of cliques, consecutive ones sharing ``overlaps``."""
    edges, start, tail = set(), 0, []
    for size, ov in zip(sizes, list(overlaps) + [0]):
        fresh = list(range(start, start + size - len(tail)))
        clique = tail + fresh
        edges.update(itertools.combinations(sorted(clique), 2))
        start += len(fresh)
        tail = clique[len(clique) - ov:] if ov else []
    return start, edges


def _complete(n):
    return n, set(itertools.combinations(range(n), 2))


def _path(n):
    return n, {(i, i + 1) for i in range(n - 1)}


def _random_chordal(rng, n, kmax):
    """Each new vertex joins a random subset of a clique seen so far.

    The earlier vertices a new vertex joins form a clique, so the graph is
    chordal, connected, and insertion order is a reverse perfect elimination
    ordering.
    """
    edges, cliques = set(), [[0]]
    for v in range(1, n):
        base = rng.choice(cliques)
        sub = rng.sample(base, rng.randint(1, min(len(base), kmax)))
        edges.update((u, v) for u in sub)
        cliques.append(sub + [v])
    return n, edges


def _relabel(rng, n, pairs):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in pairs]


def _text(n, pairs, sep):
    body = sorted((min(u, v), max(u, v)) if sep == "--" else (u, v) for u, v in pairs)
    return f"n {n}\n" + "".join(f"{u} {sep} {v}\n" for u, v in body)


class _Writer:
    def __init__(self, workdir, lib):
        self.workdir = workdir
        self.lib = lib
        self.inputs = []
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)

    def _write(self, name, text):
        rel = os.path.join("in", name + ".txt")
        with open(os.path.join(self.workdir, rel), "w") as fh:
            fh.write(text)
        return rel

    def graph(self, name, n, edges, rng, family=None):
        """Write a relabeled undirected graph; returns (path, info)."""
        edges = _relabel(rng, n, edges)
        g = self.lib.graphs.UndirectedGraph(n, edges)
        info = {
            "name": name,
            "type": "graph",
            "n": n,
            "edges": len(edges),
            "states": self.lib.amo.count_amos(g),
        }
        if family:
            info["family"] = family
        self.inputs.append(info)
        return self._write(name, _text(n, edges, "--")), info

    def dag(self, name, n, arcs, rng, stratum):
        """Write a relabeled DAG; returns (path, info)."""
        arcs = _relabel(rng, n, arcs)
        d = self.lib.graphs.Dag(n, arcs)
        eg = self.lib.essential.essential_graph_of_dag(d)
        info = {
            "name": name,
            "type": "dag",
            "stratum": stratum,
            "n": n,
            "edges": len(arcs),
            "class_size": self.lib.essential.class_size(eg),
        }
        self.inputs.append(info)
        return self._write(name, _text(n, arcs, "->")), info


def _chordal_in_window(rng, lib, lo, hi, nrange, kmax):
    """Rejection-sample a random chordal graph whose AMO count is in [lo, hi]."""
    while True:
        n, edges = _random_chordal(rng, rng.randint(*nrange), kmax)
        states = lib.amo.count_amos(lib.graphs.UndirectedGraph(n, edges))
        if lo <= states <= hi:
            return n, edges


def _distance(adj, s, t):
    dist, frontier = {s: 0}, [s]
    for x in frontier:
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                frontier.append(y)
    return dist.get(t)


def _sparse_dag(rng, n, m):
    """A connected DAG with m arcs whose skeleton has no cycle shorter than 5.

    A random tree plus m - n + 1 chords, each joining vertices at distance at
    least 4, oriented along a random vertex order.  ``mec`` lists members by
    checking all 2^m orientations, and its cost grows with the share of them
    that are acyclic; short cycles make that share swing between inputs,
    girth 5 keeps it near 1 and the cost nearly the same for every seed.
    """
    while True:
        adj = {v: set() for v in range(n)}
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u].add(v)
            adj[v].add(u)
        for _ in range(m - n + 1):
            far = [(u, v) for u, v in itertools.combinations(range(n), 2)
                   if _distance(adj, u, v) >= 4]
            if not far:
                break  # the tree is too bushy for another long cycle
            u, v = rng.choice(far)
            adj[u].add(v)
            adj[v].add(u)
        else:
            break
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    return [(u, v) for u in adj for v in adj[u] if pos[u] < pos[v]]


# workload sizes; "smoke" keeps every command and check but shrinks inputs
SIZES = {
    "full": {
        "flip-exact": {
            "family": [([6, 6], [4]), ([5, 5], [3]), ([4, 4, 4], [2, 2])],
            "complete": [6],
            "random": 3,
            "window": (100, 250),
        },
        "flip-sample": {
            "family": [([5, 5], [2])],
            "complete": [7],
            "path": 40,
            "random": 4,
            "window": (300, 400),
            "steps": 1000,
            "samples": 10000,
        },
        "class-count": {
            "sparse": 15,
            "sparse_n": 10,
            "sparse_m": 11,
            "moral": 5,
            "moral_window": (2000, 8000),
            "bipartite": 5,
            "tree_n": 80,
            "nmax": 200,
        },
        "hjy-walk": {"walks": 10, "n": 10, "steps": 1200, "small_n": 4, "small_steps": 2000},
    },
    "smoke": {
        "flip-exact": {
            "family": [([4, 4], [2])],
            "complete": [4],
            "random": 1,
            "window": (10, 60),
        },
        "flip-sample": {
            "family": [([4, 4], [2])],
            "complete": [4],
            "path": 6,
            "random": 1,
            "window": (10, 60),
            "steps": 50,
            "samples": 200,
        },
        "class-count": {
            "sparse": 1,
            "sparse_n": 8,
            "sparse_m": 8,
            "moral": 1,
            "moral_window": (20, 200),
            "bipartite": 5,
            "tree_n": 30,
            "nmax": 20,
        },
        "hjy-walk": {"walks": 2, "n": 5, "steps": 100, "small_n": 3, "small_steps": 100},
    },
}


def make_workload(name, seed, workdir, lib, scale="full"):
    """Write the inputs of one workload and return its description.

    Returns ``{"commands": [...], "inputs": [...]}``; each command has an
    ``argv`` for ``mecmc.cli.main`` (paths relative to ``workdir``) and a
    ``check`` dict naming the checks and the facts they need.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    size = SIZES[scale][name]
    w = _Writer(workdir, lib)
    commands = []

    def add(argv, **check):
        commands.append({"argv": argv, "check": check})

    if name == "flip-exact":
        graphs = [
            (f"K{s[0]}x{len(s)}-share{ov[0]}", *_glued(s, ov), (s[0], ov[0]) if len(s) == 2 else None)
            for s, ov in size["family"]
        ]
        graphs += [(f"K{t}", *_complete(t), None) for t in size["complete"]]
        for i in range(size["random"]):
            graphs.append(
                (f"chordal{i}", *_chordal_in_window(rng, lib, *size["window"], (6, 9), 4), None)
            )
        for label, n, edges, two_clique in graphs:
            path, info = w.graph(label, n, edges, rng, family=two_clique)
            add(["diagnose", "--input", path], kind="diagnose", edges=info["edges"],
                states=info["states"], two_clique=two_clique)

    elif name == "flip-sample":
        graphs = [(f"K{s[0]}x{len(s)}-share{ov[0]}", *_glued(s, ov)) for s, ov in size["family"]]
        graphs += [(f"K{t}", *_complete(t)) for t in size["complete"]]
        graphs.append((f"path{size['path']}", *_path(size["path"])))
        for i in range(size["random"]):
            graphs.append((f"chordal{i}", *_chordal_in_window(rng, lib, *size["window"], (6, 10), 4)))
        for label, n, edges in graphs:
            path, info = w.graph(label, n, edges, rng)
            add(["sample-amo", "--input", path, "--steps", str(size["steps"]),
                 "--samples", str(size["samples"]), "--seed", str(rng.randrange(1 << 31))],
                kind="sample-amo", states=info["states"], samples=size["samples"])

    elif name == "class-count":
        for i in range(size["sparse"]):
            n = size["sparse_n"]
            path, info = w.dag(f"sparse{i}", n, _sparse_dag(rng, n, size["sparse_m"]), rng, "sparse")
            add(["mec", "--input", path], kind="mec", **info)
        for i in range(size["moral"]):
            n, edges = _chordal_in_window(rng, lib, *size["moral_window"], (8, 12), 5)
            # arcs from earlier to later insertion: every parent set is a
            # clique, so the DAG has no immorality and its class is every
            # AMO of the skeleton
            path, info = w.dag(f"moral{i}", n, sorted(edges), rng, "moral")
            add(["mec", "--input", path], kind="mec", **info)
        k = size["bipartite"]
        path, info = w.dag(f"K{k},{k}", 2 * k, [(i, k + j) for i in range(k) for j in range(k)],
                           rng, "large-skeleton")
        add(["mec", "--input", path], kind="mec", **info)
        n = size["tree_n"]
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        path, info = w.dag(f"outtree{n}", n, tree, rng, "large-skeleton")
        add(["mec", "--input", path], kind="mec", **info)
        add(["ratio", "--nmax", str(size["nmax"])], kind="ratio", nmax=size["nmax"])

    else:  # hjy-walk
        for _ in range(size["walks"]):
            add(["hjy", "--nmax", str(size["n"]), "--steps", str(size["steps"]),
                 "--seed", str(rng.randrange(1 << 31))], kind="hjy", n=size["n"], steps=size["steps"])
        add(["hjy", "--nmax", str(size["small_n"]), "--steps", str(size["small_steps"]),
             "--seed", str(rng.randrange(1 << 31))], kind="hjy", n=size["small_n"],
            steps=size["small_steps"])

    for i, c in enumerate(commands):
        c["id"] = i
    return {"seed": seed, "scale": scale, "commands": commands, "inputs": w.inputs}
