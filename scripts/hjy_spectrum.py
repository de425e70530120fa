"""Spectral gap of the HJY move chain on all essential graphs on n vertices.

The exact kernel comes from one breadth-first search from the empty graph
(``hjy.exact_kernel``), and lambda_2 from the sparse Lanczos solver on its
entries, so no matrix is built.  Printed: the number of states, the
off-diagonal moves, the smallest holding probability h, lambda_2 with the
Ritz residual the solver stopped at, and the gap 1 - lambda_2.  By
Gershgorin every eigenvalue is at least 2h - 1, so when that is above
-lambda_2 the gap is also the absolute spectral gap.  The search and solve
times and the peak RSS go to standard error.
"""

import argparse
import resource
import sys
import time
from fractions import Fraction

from mecmc.flipchain import lanczos_lambda2
from mecmc.graphs import Pdag
from mecmc.hjy import exact_kernel


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4, help="vertex count, at least 2")
    args = ap.parse_args()
    if args.n < 2:
        ap.error("--n must be at least 2: one state has no lambda_2")

    start = time.perf_counter()
    kernel = exact_kernel(Pdag(args.n))
    searched = time.perf_counter()
    # read what the report needs, then free the state codes and move arrays
    # so that they do not add to the solve's peak
    states, moves = len(kernel), len(kernel.rows)
    hold = Fraction(min(kernel.holding()), kernel.denominator)
    entries = kernel.entries()
    del kernel
    lam2, residual = lanczos_lambda2(*entries, states)
    solved = time.perf_counter()

    print(f"n = {args.n}: {states} essential graphs, {moves} off-diagonal moves")
    print(f"smallest holding probability {hold} = {float(hold):.6f}; "
          f"every eigenvalue is at least {float(2 * hold - 1):.6f}")
    print(f"lambda_2 = {lam2:.15f} (Ritz residual {residual:.1e})")
    print(f"gap = {1 - lam2:.6e}, 1/gap = {1 / (1 - lam2):.1f}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"search {searched - start:.2f} s, solve {solved - searched:.2f} s, "
          f"peak RSS {peak:.0f} MB", file=sys.stderr)


if __name__ == "__main__":
    main()
