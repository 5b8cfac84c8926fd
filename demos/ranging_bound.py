"""Ranging error bound versus the maximum-likelihood estimator.

For one node 500 m from the anchor's ground track, sweeps the anchor
altitude and compares three numbers per point: the closed-form bound, the
same bound recomputed from a Monte Carlo Fisher information (a pure oracle
check), and the spread of the actual estimator over repeated sample sets.

The estimator knows that the mean power law itself bends with elevation, a
channel of information the fixed-elevation bound does not price in, so its
spread can sit well below the bound at low elevations.
"""

import math

import uavloc as u
from uavloc._streams import TAG_FISHER, substream


def main():
    env = u.URBAN
    cfg = u.default_config(
        variable="altitude", seed=0,
        sweep=u.SweepSpec("altitude", (200.0, 500.0, 1000.0, 2000.0)))
    table = u.run_crlb_comparison(cfg, (500.0,), repetitions=10_000)

    print("urban, r = 500 m, 5 samples, 10^4 repetitions per row")
    print("  h (m)   bound (m)   fisher-MC   mle spread   mle mean    d true")
    for i, pt in enumerate(table.points):
        geom = u.LinkGeometry(r=pt.r, h=pt.h)
        info = u.fisher_information_numeric(geom, env, 200_000,
                                            substream(1, TAG_FISHER, i))
        fisher = 1.0 / math.sqrt(info) / math.sqrt(cfg.samples_per_anchor)
        print(f"  {pt.h:5.0f}   {pt.crlb_sigma:9.2f}   {fisher:9.2f}   "
              f"{pt.mle_sigma:10.2f}   {pt.mle_mean:8.1f}   {geom.d:7.1f}")

    print("\nThe Fisher column reproduces the closed form (same model, "
          "independent route).\nThe estimator column undercuts both where "
          "the exponent changes fastest with\nelevation, and approaches the "
          "bound as the link flattens out.")


if __name__ == "__main__":
    main()
