"""Spectral and bottleneck diagnostics across a suite of chordal graphs.

For each graph: AMO count, exact spectral gap, the decomposition lower
bound, the worst clique-cut conductance with its mixing-time lower bound,
and (for spaces of at most ``flipchain.DENSE_STATES`` states, the ones
``diagnose`` powers up densely) the exact t_mix(1/4).
"""

import argparse
from fractions import Fraction

from mecmc.amo import build_orientation_space
from mecmc.flipchain import (
    DENSE_STATES,
    clique_cut_bottlenecks,
    exact_tmix,
    madras_randall_bound,
    spectral_gap,
    transition_matrix,
)
from mecmc.graphs import (
    clique_tree,
    complete_graph,
    glued_clique_chain,
    path_graph,
    star_graph,
)

SUITE = {
    "k3": complete_graph(3),
    "k4": complete_graph(4),
    "k5": complete_graph(5),
    "path6": path_graph(6),
    "star6": star_graph(6),
    "two_k3_edge": glued_clique_chain([3, 3], [2]),
    "two_k4_share2": glued_clique_chain([4, 4], [2]),
    "two_k4_share3": glued_clique_chain([4, 4], [3]),
    "two_k5_share3": glued_clique_chain([5, 5], [3]),
    "three_k3_chain": glued_clique_chain([3, 3, 3], [2, 2]),
    "k5_k4_share2": glued_clique_chain([5, 4], [2]),
}


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    header = (
        f"{'graph':<16}{'states':>7}{'gap':>11}{'mr_bound':>11}"
        f"{'phi_min':>10}{'1/(4phi)':>10}{'tmix':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, g in SUITE.items():
        space = build_orientation_space(g)
        tm = transition_matrix(space)
        gap = spectral_gap(tm)
        multi = len(clique_tree(g).cliques) >= 2
        mr = f"{madras_randall_bound(g):.6f}" if multi else "-"
        cuts = clique_cut_bottlenecks(space)
        if cuts:
            phi = min(rep.phi for rep in cuts.values())
            lower = Fraction(1, 4) / phi
            phi_s, low_s = str(phi), str(lower)
        else:
            phi_s = low_s = "-"
        tmix = exact_tmix(tm) if space.size <= DENSE_STATES else None
        print(
            f"{name:<16}{space.size:>7}{gap:>11.6f}{mr:>11}"
            f"{phi_s:>10}{low_s:>10}{tmix if tmix is not None else '-':>6}"
        )


if __name__ == "__main__":
    main()
