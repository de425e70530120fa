"""The lazy edge-flip chain on AMOs and its spectral diagnostics.

One step of the chain picks one of the |E| base edges uniformly and reverses
it when the reversal is again an AMO, staying put otherwise.  The proposal is
symmetric, so the chain is reversible with uniform stationary distribution.
Alongside the exact spectrum this module carries the decomposition apparatus:
per-clique weights |t_i|! |D_i|, the projection chain on the clique tree, the
distinguished-path comparison bound, and the assembled Madras-Randall lower
bound on the spectral gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .graphs import CapExceededError, clique_tree

DENSE_SPECTRUM_CAP = 10_000
# above this many states the spectral gap comes from a sparse Lanczos solve
# and diagnose skips exact_tmix; at or below it the dense matrix is cheap
DENSE_STATES = 1500
EIGEN_TOL = 1e-9
# exact_tmix: the TV distance that counts as mixed, and the step limit
TMIX_EPS = 0.25
TMIX_MAX_STEPS = 1 << 20
# exact_tmix: how many start rows the search follows, and how many of the
# worst unmixed rows a failed certificate adds to them
TMIX_ROWS = 4
# sparse lambda_2: the Lanczos basis holds at most this many vectors of N
# floats; the solve stops at this Ritz residual, or gives up after this
# many products P v
LANCZOS_BASIS = 32
LANCZOS_TOL = 1e-13
LANCZOS_MATVECS = 10_000


class TransitionMatrix:
    """The lazy edge-flip chain over a flip table.

    ``flip_table[i, e]`` is the state reached from i by proposing edge e, so
    P[i, j] = 1/|E| for each edge leading to j != i and P[i, i] = 1 - deg/|E|.
    The dense ``matrix`` is built on first access, under
    ``DENSE_SPECTRUM_CAP`` states.
    """

    def __init__(self, flip_table):
        self.flip_table = np.asarray(flip_table)  # as given: no int64 copy

    @property
    def dimension(self):
        return self.flip_table.shape[0]

    @property
    def num_edges(self):
        return self.flip_table.shape[1]

    def _entries(self):
        """(rows, cols, values) of P: one entry per legal flip, then the diagonal."""
        N, m = self.dimension, self.num_edges
        stay = np.arange(N)
        moves = self.flip_table != stay[:, None]
        degrees = np.count_nonzero(moves, axis=1)
        return (
            np.concatenate([np.repeat(stay, degrees), stay]),
            np.concatenate([self.flip_table[moves], stay]),
            np.concatenate([np.full(degrees.sum(), 1.0 / m), 1.0 - degrees / m]),
        )

    @cached_property
    def matrix(self):
        N = self.dimension
        if N > DENSE_SPECTRUM_CAP:
            raise CapExceededError(
                f"{N} states exceed dense spectrum cap {DENSE_SPECTRUM_CAP}"
            )
        if self.num_edges == 0:
            # edgeless graph: one empty orientation, the chain sits still
            return np.eye(N)
        rows, cols, values = self._entries()
        P = np.zeros((N, N))
        P[rows, cols] = values
        return P

    @cached_property
    def eigh(self):
        """``numpy.linalg.eigh`` of the dense matrix, eigenvalues ascending:
        one solve serves both ``spectral_gap`` and ``exact_tmix``."""
        return np.linalg.eigh(self.matrix)

    def is_symmetric(self):
        """Whether every proposal is undone by the same edge (a flip is an
        involution), which makes P symmetric."""
        T = self.flip_table
        back = T[T, np.arange(self.num_edges)]
        return bool(np.all(back == np.arange(self.dimension)[:, None]))


def transition_matrix(space):
    """Exact transition matrix of the lazy edge-flip chain on ``space``.

    The dense matrix is built only when ``.matrix`` is first read.
    """
    return TransitionMatrix(space.flip_table)


def _lambda2_dense(tm):
    return tm.eigh[0][-2]


def lanczos_lambda2(rows, cols, values, N):
    """Second-largest eigenvalue of the symmetric N x N stochastic matrix
    with entries ``values`` at (``rows``, ``cols``), by restarted Lanczos
    with full reorthogonalization (Paige 1972; Golub & Van Loan, ch. 10),
    and the Ritz residual it stopped at.

    P v is one weighted gather over the entries, so no matrix is built.
    Every vector is kept orthogonal to the uniform vector, the eigenvector
    of 1, so the largest Ritz value converges to lambda_2.  The basis holds
    at most ``LANCZOS_BASIS`` vectors; when it is full the iteration
    restarts from the top Ritz vector.  It stops once the Ritz residual
    |beta_k s_k| is at most ``LANCZOS_TOL``, and raises
    ``CapExceededError`` after ``LANCZOS_MATVECS`` products.  The start
    vector is fixed so that repeated calls give the same float.
    """

    def unit(v):
        v = v - v.mean()
        return v / np.linalg.norm(v)

    Q = np.empty((LANCZOS_BASIS, N))
    Q[0] = unit(np.random.default_rng(0).standard_normal(N))
    matvecs = 0
    products = np.empty(len(values))  # the gather of every product P v
    while True:
        alpha, beta = [], []
        for j in range(LANCZOS_BASIS):
            # "clip" clips no index here, but unlike "raise" it needs no copy
            np.take(Q[j], cols, out=products, mode="clip")
            products *= values
            w = np.bincount(rows, weights=products, minlength=N)
            matvecs += 1
            w -= w.mean()
            alpha.append(Q[j] @ w)
            w -= alpha[-1] * Q[j]
            if j:
                w -= beta[-1] * Q[j - 1]
            B = Q[: j + 1]
            w -= B.T @ (B @ w)
            b = np.linalg.norm(w)
            tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, S = np.linalg.eigh(tri)
            residual = b * abs(S[-1, -1])
            if residual <= LANCZOS_TOL:
                return theta[-1], residual
            if matvecs == LANCZOS_MATVECS:
                raise CapExceededError(
                    f"the sparse eigensolver found no lambda_2 within "
                    f"{LANCZOS_MATVECS} Lanczos steps"
                )
            if j + 1 < LANCZOS_BASIS:
                beta.append(b)
                Q[j + 1] = w / b
        Q[0] = unit(S[:, -1] @ Q)


def _lambda2_sparse(rows, cols, values, N):
    """lambda_2 of ``lanczos_lambda2``, without its residual."""
    return lanczos_lambda2(rows, cols, values, N)[0]


def spectral_gap(tm):
    """1 - lambda_2 via a symmetric eigensolver; rejects asymmetric input.

    The dense matrix's cached ``eigh`` up to ``DENSE_STATES`` states, a
    sparse Lanczos solve above.
    Dimension-1 chains have gap 1 by convention.
    """
    if not tm.is_symmetric():
        raise ValueError("spectral_gap expects a symmetric transition matrix")
    if tm.dimension == 1:
        return 1.0
    if tm.dimension > DENSE_STATES:
        return float(1.0 - _lambda2_sparse(*tm._entries(), tm.dimension))
    return float(1.0 - _lambda2_dense(tm))


def move_table(space):
    """The stored flip table: state index after proposing edge e from state i."""
    return space.flip_table


def _integers(rng, high, size, out):
    """``rng.integers(0, high, size=size)``: the same int64 values, and the
    same state of ``rng.bit_generator`` after.  They may be a view of ``out``,
    a little-endian uint64 buffer as long or longer, until the next call.

    For high in [2, 2**32) numpy draws each value from the next 32-bit half
    h of the words, low half first, a half left over by the last call before
    them, as (h * high) >> 32, and rejects h when (h * high) mod 2**32 is
    below 2**32 mod high (Lemire, ACM TOMACS 2019; ``hjy._lemire`` decodes
    the HJY walk's draws the same way).  So raw ``PCG64`` words are decoded
    all at once here; numpy draws a block with a rejected half, another
    range or another bit generator itself, from the state saved before.
    """
    bits = rng.bit_generator
    if not (isinstance(bits, np.random.PCG64) and 2 <= high < 1 << 32):
        return rng.integers(0, high, size=size)
    count = int(np.prod(size))
    saved = bits.state
    pending = saved["has_uint32"]
    words = bits.random_raw((count - pending + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")  # low, high, low, ...
    products = out[:count]
    products[:pending] = saved["uinteger"]  # a pending half comes first
    products[pending:] = halves[: count - pending]
    products *= np.uint64(high)
    # the products' low halves are (h * high) mod 2**32
    if count and products.view("<u4")[::2].min() < (1 << 32) % high:
        bits.state = saved
        return rng.integers(0, high, size=size)
    state = bits.state
    state["has_uint32"] = (count - pending) % 2
    if len(words):
        state["uinteger"] = int(words[-1]) >> 32
    bits.state = state
    products >>= np.uint64(32)
    return products.view("<i8").reshape(size)


def sample_many(space, steps, count, rng):
    """Vectorized replicas of the chain from the canonical PEO orientation;
    returns final state indices, int64.

    Each step proposes the edges ``rng.integers(0, |E|, size=count)``: the
    same values, and the same state of ``rng`` after, though ``_integers``
    draws about 2**16 at once into one buffer, decoded from raw words for
    ``PCG64`` and by numpy otherwise.  State x is held as its offset x * |E|
    into the flip table times |E|, flattened, int64 since N * |E| can pass
    2**31: entry (x, e) sits at x * |E| + e, so a step is one add and one gather.
    """
    m = space.graph.num_edges
    # an edgeless graph has one state, 0, and no edge to propose: no draws
    x = np.full(count, space.start * m, dtype=np.int64)
    if m == 0:
        return x
    offsets = np.multiply(space.flip_table, m, dtype=np.int64).ravel()
    at = np.empty(count, dtype=np.int64)  # each step's flat indices
    block = max(1, (1 << 16) // max(count, 1))
    drawn = np.empty(min(block, steps) * count, dtype="<u8")
    for done in range(0, steps, block):
        for edges in _integers(rng, m, (min(block, steps - done), count), drawn):
            np.add(x, edges, out=at)
            # "clip" clips no index here, but unlike "raise" it needs no copy
            offsets.take(at, out=x, mode="clip")
    return x // m


def empirical_tv(space, steps, samples, rng):
    """Total variation distance between an empirical histogram and uniform."""
    final = sample_many(space, steps, samples, rng)
    counts = np.bincount(final, minlength=space.size)
    emp = counts / samples
    return float(0.5 * np.abs(emp - 1.0 / space.size).sum())


@dataclass
class BottleneckReport:
    phi: Fraction
    tmix_lower: Fraction
    subset_size: int
    boundary_edges: int


def bottleneck_ratio(space, subset):
    """Exact conductance of a subset under the uniform stationary law.

    Phi(R) = Q(R, R^c) / pi(R) with Q summed over flip edges leaving R; the
    companion mixing-time bound is t_mix(1/4) >= 1/(4 Phi).  A proposal that
    stays put lands inside R, so the table entries outside R are exactly the
    crossing edges.
    """
    R = sorted(set(subset))
    if not R or len(R) >= space.size:
        raise ValueError("subset must be a proper nonempty part of the space")
    if 2 * len(R) > space.size:
        raise ValueError("subset must have stationary mass at most 1/2")
    m = space.graph.num_edges
    inside = np.zeros(space.size, dtype=bool)
    inside[R] = True
    crossing = int(np.count_nonzero(~inside[space.flip_table[R]]))
    phi = Fraction(crossing, len(R) * m)
    if phi == 0:
        raise ValueError("subset is disconnected from its complement")
    return BottleneckReport(
        phi=phi,
        tmix_lower=Fraction(1, 4) / phi,
        subset_size=len(R),
        boundary_edges=crossing,
    )


def clique_cut_bottlenecks(space):
    """Conductance of each cut {states whose unique non-follower is t_i}.

    Returns a dict clique index -> BottleneckReport, skipping cuts that are
    empty or heavier than half the space.
    """
    out = {}
    # alone[v, i]: clique i is state v's only non-follower
    alone = space.nonfollowers & (space.nonfollowers.sum(axis=1) == 1)[:, None]
    for i in range(len(space.cliques)):
        cut = np.flatnonzero(alone[:, i]).tolist()
        if not cut or 2 * len(cut) > space.size:
            continue
        out[i] = bottleneck_ratio(space, cut)
    return out


def exact_tmix(tm):
    """Smallest t with max-over-starts TV(P^t(x, .), pi) <= ``TMIX_EPS``.

    P is symmetric, so its cached ``eigh`` gives P = V diag(lam) V^T and
    any rows of P^t as ``(V[rows] * lam**t) @ V.T``, P^0 and P^1 included.
    Each start's TV distance to uniform is non-increasing in t, so the
    search gallops from t = 0, then bisects, on a few candidate start rows
    only: at first the ``TMIX_ROWS`` rows with the most weight on the slow
    eigenvectors, those farthest from uniform in L2 after twice the
    relaxation time, ties to the lower index.  The returned t carries a
    certificate: one evaluation of every row of P^t finds each within
    ``TMIX_EPS``, and some row was farther than that at t - 1.  When the
    full evaluation finds rows still farther, the worst of them join the
    candidates and the search resumes above t.  Returns None when the chain
    has not mixed within ``TMIX_MAX_STEPS`` (e.g. periodic chains such as
    the single-edge graph).  Rejects asymmetric input, as ``spectral_gap``
    does.
    """
    if not tm.is_symmetric():
        raise ValueError("exact_tmix expects a symmetric transition matrix")
    N = tm.dimension
    if N == 1:
        return 0

    def dist(A):
        return 0.5 * np.abs(A - 1.0 / N).sum(axis=1)

    def worst(d):
        return np.argsort(-d, kind="stable")[:TMIX_ROWS]

    lam, V = tm.eigh

    def dist_at(rows, t):
        return dist((V[rows] * lam**t) @ V.T)

    # squared L2 distance of each row from uniform after twice the
    # relaxation time, sum over k >= 2 of |lam_k|^2t V[i, k]^2
    slow = max(lam[-2], -lam[0])
    t = 2 / (1 - slow) if slow < 1 else 1
    rows, lo = worst((V[:, :-1] ** 2) @ np.abs(lam[:-1]) ** (2 * t)), 0
    while True:
        # some row is farther than TMIX_EPS at lo: all at lo = 0, where P^0 = I
        # is (N - 1)/N > 1/4 from uniform, later those the certificate found
        step = 1
        while True:
            hi = min(lo + step, TMIX_MAX_STEPS)
            if dist_at(rows, hi).max() <= TMIX_EPS:
                break
            if hi == TMIX_MAX_STEPS:
                return None
            lo, step = hi, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if dist_at(rows, mid).max() <= TMIX_EPS:
                hi = mid
            else:
                lo = mid
        d = dist_at(slice(None), hi)
        if d.max() <= TMIX_EPS:
            return hi
        late = worst(d)
        # every candidate row is within TMIX_EPS at hi, so the two are disjoint
        rows, lo = np.sort(np.concatenate((rows, late[d[late] > TMIX_EPS]))), hi


# ---------------------------------------------------------------------------
# clique-tree decomposition: weights, projection chain, and gap bounds


@dataclass
class DecompositionStats:
    """Quantities entering the decomposition bounds.

    ``clique_weights[i]`` is |t_i|! |D_i|, the size of the piece H_{t_i} x D_i;
    ``z`` is their sum; ``o_g`` = z / min over tree edges of |t_j & t_k|! |D_{j,k}|.
    ``theta`` is the clique-tree degree; the Madras-Randall framework itself
    would use the maximum overlap, the most bits set in
    ``space.nonfollower_masks``.
    """

    o_g: Fraction
    theta: int
    diameter: int
    t_max: int
    z: int
    clique_weights: list
    min_separator_weight: int


def decomposition_stats(ct):
    weights = [
        math.factorial(len(c)) * d for c, d in zip(ct.cliques, ct.dilations)
    ]
    z = sum(weights)
    if ct.edges:
        sep_weights = []
        for i, j in ct.edges:
            d_ij = (
                math.factorial(len(ct.cliques[i] - ct.cliques[j]))
                * ct.dilations[i]
            )
            sep_weights.append(
                math.factorial(ct.separator_sizes[(i, j)]) * d_ij
            )
        min_sep = min(sep_weights)
        o_g = Fraction(z, min_sep)
    else:
        min_sep = z
        o_g = Fraction(1)
    return DecompositionStats(
        o_g=o_g,
        theta=ct.degree(),
        diameter=ct.diameter(),
        t_max=ct.max_clique_size(),
        z=z,
        clique_weights=weights,
        min_separator_weight=min_sep,
    )


@dataclass
class ProjectionChain:
    """The projection of the flip chain onto cliques of the tree.

    P_T(t_i, t_j) = 1 / (theta * C(|t_i|, |t_i & t_j|)) on tree edges, with
    stationary weight pi(t_i) proportional to |t_i|! |D_i|.  All entries are
    exact rationals; detailed balance holds identically.
    """

    matrix: list
    pi: list
    cliques: list

    @property
    def size(self):
        return len(self.pi)

    def check_detailed_balance(self):
        for i in range(self.size):
            for j in range(self.size):
                if self.pi[i] * self.matrix[i][j] != self.pi[j] * self.matrix[j][i]:
                    return False
        return True

    def gap(self):
        """Exact-gap of the reversible chain via similarity symmetrization."""
        if self.size == 1:
            return 1.0
        P = np.array([[float(x) for x in row] for row in self.matrix])
        pi = np.array([float(x) for x in self.pi])
        d = np.sqrt(pi)
        S = (P * d[None, :]) / d[:, None]
        ev = np.linalg.eigvalsh((S + S.T) / 2)
        return float(1.0 - ev[-2])


def projection_chain(ct):
    stats = decomposition_stats(ct)
    k = len(ct.cliques)
    th = stats.theta
    P = [[Fraction(0) for _ in range(k)] for _ in range(k)]
    for i, j in ct.edges:
        sep = ct.separator_sizes[(i, j)]
        P[i][j] = Fraction(1, th * math.comb(len(ct.cliques[i]), sep))
        P[j][i] = Fraction(1, th * math.comb(len(ct.cliques[j]), sep))
    # theta is the tree's maximum degree and each off-diagonal entry is at
    # most 1/theta, so every row mass is at most 1
    for i in range(k):
        P[i][i] = 1 - sum(P[i][j] for j in range(k) if j != i)
    z = stats.z
    pi = [Fraction(w, z) for w in stats.clique_weights]
    return ProjectionChain(matrix=P, pi=pi, cliques=list(ct.cliques))


def comparison_bound(stats):
    """Lower bound 1/A on the projection-chain gap, A = o_G * theta * diam(T).

    The distinguished-path comparison against the complete chain gives
    Gap(P_T) >= 1/A; a single clique returns 1 by convention.
    """
    if stats.diameter == 0:
        return Fraction(1)
    return 1 / (stats.o_g * stats.theta * stats.diameter)


def restriction_gap(ct, num_edges):
    """Worst product-chain gap over the pieces H_{t_i} x D_i.

    Every factor clique of size m contributes an adjacent-transposition walk
    with gap 2(1 - cos(pi/m)) once rescaled by its move probability.  Each
    specific transposition is proposed with probability 1/|E|, the rate the
    restricted flip chain actually uses; the displayed normalization
    2(1 - cos(pi/t_max)) / (|G| - |T|) can exceed the true restriction gap.
    """
    return 2.0 * (1.0 - math.cos(math.pi / ct.max_clique_size())) / num_edges


def madras_randall_bound(g, ct=None):
    """Assembled lower bound on the spectral gap of the edge-flip chain:

        Gap >= (1/theta^2) * comparison_bound * restriction_gap.

    Requires at least two maximal cliques.  With theta = deg(T) and the
    1/|E| restriction normalization the bound stays below the exact gap on
    the validity suite.
    """
    if ct is None:
        ct = clique_tree(g)
    if ct.num_cliques < 2:
        raise ValueError("decomposition bound needs at least two maximal cliques")
    stats = decomposition_stats(ct)
    gamma = restriction_gap(ct, g.num_edges)
    return float(comparison_bound(stats)) * gamma / stats.theta**2
