"""Labeled posets and the exact counting of DAGs and singleton classes.

A DAG determines a poset by reachability.  Summing over all labeled posets P
on n elements,

    #DAGs(n)          = sum_P prod_v 2^(d(v) - c(v)),
    #singleton MECs(n) = sum_P prod_v (2^(d(v) - c(v)) - [c(v) = 1]),

where d(v) counts elements strictly below v and c(v) counts the elements v
covers.  The same numbers satisfy the Robinson and Steinsky recursions, and
the ratio of the two tends to a constant whose q-Pochhammer adjustment sits
just below 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Dag

POSET_ENUM_MAX_N = 6


class Poset:
    """A labeled poset on 0..n-1; ``leq[i]`` is the bitmask of {j : i <= j}."""

    def __init__(self, n, leq):
        self.n = n
        self.leq = tuple(leq)
        for i in range(n):
            if not self.leq[i] >> i & 1:
                raise ValueError("relation must be reflexive")

    def less(self, i, j):
        return i != j and self.leq[i] >> j & 1

    def relation_pairs(self):
        return frozenset(
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if self.less(i, j)
        )

    def covers(self, j):
        """Elements covered by j: i < j with nothing strictly between."""
        below = [i for i in range(self.n) if self.less(i, j)]
        out = []
        for i in below:
            if not any(self.less(i, k) and self.less(k, j) for k in below):
                out.append(i)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.leq == other.leq
        )

    def __hash__(self):
        return hash((self.n, self.leq))


@dataclass
class PosetStats:
    """Per-element down-set sizes d(v), cover counts c(v), and heights."""

    downset_sizes: list
    cover_counts: list
    heights: list


def poset_stats(p):
    d = [0] * p.n
    c = [0] * p.n
    h = [1] * p.n
    for j in range(p.n):
        d[j] = sum(1 for i in range(p.n) if p.less(i, j))
        c[j] = len(p.covers(j))
    order = sorted(range(p.n), key=lambda j: d[j])
    for j in order:
        for i in range(p.n):
            if p.less(i, j):
                h[j] = max(h[j], h[i] + 1)
    return PosetStats(downset_sizes=d, cover_counts=c, heights=h)


def reachability_poset(d: Dag):
    """The poset of a DAG: i <= j iff j is reachable from i."""
    leq = [1 << i for i in range(d.n)]
    for v in reversed(d.topological_order()):
        for w in d.children[v]:
            leq[v] |= leq[w]
    return Poset(d.n, leq)


def enumerate_labeled_posets(n):
    """Yield every labeled poset on 0..n-1.

    Recursive insertion: a poset on k+1 elements is a poset on the first k
    plus a choice of disjoint down-closed D and up-closed U with D x U inside
    the old relation; element k sits above D and below U.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > POSET_ENUM_MAX_N:
        raise ValueError(f"poset enumeration capped at n = {POSET_ENUM_MAX_N}")

    def rec(k):
        if k == 0:
            yield ()
            return
        for leq in rec(k - 1):
            full = (1 << (k - 1)) - 1
            down_closed = []
            up_closed = []
            for s in range(full + 1):
                members = [i for i in range(k - 1) if s >> i & 1]
                if all(leq[i] | s == s for i in members):
                    up_closed.append(s)
                down = 0
                for i in members:
                    for j in range(k - 1):
                        if leq[j] >> i & 1:
                            down |= 1 << j
                if down | s == s:
                    down_closed.append(s)
            for ds in down_closed:
                for us in up_closed:
                    if ds & us:
                        continue
                    ok = all(
                        leq[i] & us == us
                        for i in range(k - 1)
                        if ds >> i & 1
                    )
                    if not ok:
                        continue
                    new_bit = 1 << (k - 1)
                    rows = []
                    for i in range(k - 1):
                        row = leq[i]
                        if ds >> i & 1:
                            row |= new_bit
                        rows.append(row)
                    rows.append(us | new_bit)
                    yield tuple(rows)

    for leq in rec(n):
        yield Poset(n, leq)


def count_labeled_posets(n):
    return sum(1 for _ in enumerate_labeled_posets(n))


def count_dags_via_posets(n):
    total = 0
    for p in enumerate_labeled_posets(n):
        stats = poset_stats(p)
        prod = 1
        for d, c in zip(stats.downset_sizes, stats.cover_counts):
            prod *= 1 << (d - c)
        total += prod
    return total


def count_essential_dags_via_posets(n):
    """Singleton Markov classes: DAGs that are their own essential graph."""
    total = 0
    for p in enumerate_labeled_posets(n):
        stats = poset_stats(p)
        prod = 1
        for d, c in zip(stats.downset_sizes, stats.cover_counts):
            prod *= (1 << (d - c)) - (1 if c == 1 else 0)
            if prod == 0:
                break
        total += prod
    return total


# ---------------------------------------------------------------------------
# recursions and the asymptotic ratio


def robinson_counts(nmax):
    """a'_n, the number of labeled DAGs, by Robinson's recursion.

    The power of two in each term is applied as a shift, so every step costs
    time linear in the size of the numbers.
    """
    a = [1]
    for n in range(1, nmax + 1):
        total = 0
        for i in range(1, n + 1):
            term = (math.comb(n, i) * a[n - i]) << (i * (n - i))
            total += term if i % 2 == 1 else -term
        a.append(total)
    return a


def steinsky_counts(nmax):
    """a_n, the number of essential DAGs (singleton classes), by Steinsky's
    recursion.

    With m = n - i the term of a_n is C(n, m) (2^m - m)^(n-m) a_m.  The
    running products c[m] = (2^m - m)^(n-m) a_m advance from n - 1 to n by
    one multiply by the small factor 2^m - m, so no power is recomputed.
    """
    a = [1]
    c = []
    for n in range(1, nmax + 1):
        for m in range(n - 1):
            c[m] *= (1 << m) - m
        c.append(((1 << (n - 1)) - (n - 1)) * a[n - 1])
        total = 0
        for m in range(n):
            term = math.comb(n, m) * c[m]
            total += term if (n - m) % 2 == 1 else -term
        a.append(total)
    return a


def decimal_string(x, digits):
    """Truncated decimal rendering of an exact rational.

    ``x`` is a number or a ``(numerator, denominator)`` pair of ints with a
    positive denominator; a pair need not be in lowest terms, so no gcd is
    taken.
    """
    if isinstance(x, tuple):
        num, den = x
    else:
        x = Fraction(x)
        num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    scaled = abs(num) * 10**digits // den
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


@dataclass
class RatioRow:
    """One row of the ratio table, held as exact integers.

    ``ratio`` is dags / essential_dags and ``adjusted`` is ratio times
    (1/2; 1/2)_{n-2} = pochhammer_num / 2^pochhammer_shift.  Both are
    reduced Fractions; ``adjusted_pair`` is the unreduced (numerator,
    denominator) pair that ``decimal_string`` truncates without a gcd.
    """

    n: int
    dags: int
    essential_dags: int
    pochhammer_num: int
    pochhammer_shift: int

    @property
    def adjusted_pair(self):
        return (
            self.dags * self.pochhammer_num,
            self.essential_dags << self.pochhammer_shift,
        )

    @property
    def ratio(self):
        return Fraction(self.dags, self.essential_dags)

    @property
    def adjusted(self):
        return Fraction(*self.adjusted_pair)


def ratio_table(nmax):
    """Rows (n, a'_n, a_n, a'_n/a_n, same times (1/2; 1/2)_{n-2}) for n >= 2.

    (1/2; 1/2)_{n-2} is carried as the integer prod_{k=1}^{n-2} (2^k - 1)
    over 2^((n-2)(n-1)/2), one multiply by a small factor per row.
    """
    if nmax > 300:
        raise ValueError("ratio table capped at n = 300")
    dags = robinson_counts(nmax)
    ess = steinsky_counts(nmax)
    rows = []
    q_num, q_shift = 1, 0
    for n in range(2, nmax + 1):
        if n > 2:
            q_num *= (1 << (n - 2)) - 1
            q_shift += n - 2
        rows.append(
            RatioRow(
                n=n,
                dags=dags[n],
                essential_dags=ess[n],
                pochhammer_num=q_num,
                pochhammer_shift=q_shift,
            )
        )
    return rows
