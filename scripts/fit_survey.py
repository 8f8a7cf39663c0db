"""Convergence survey of the t and GEV fits on small samples.

For every seed and sample size, draw a sample from a GEV and from a t
truth and fit each family by maximum likelihood. Counts the converged
fits per size, and the converged GEV fits with zeta < -1, where the GEV
likelihood is unbounded and the ML estimate is not regular (Smith 1985;
Coles 2001, 3.3.2). Prints the most iterations any converged fit of each
family took. Exits 1 if a GEV fit with zeta < -1 is reported converged, or
if a converged fit took half of fitting._MAXITER or more, so slower
convergence shows before the budget cuts converged fits short.

Usage: python scripts/fit_survey.py --seeds 40 --sizes 3,4,5,6,8,10,12,15,20,30,40,50
"""

import argparse
import sys

from gridparams import fitting
from gridparams.distributions import Gev, Tls, sample
from gridparams.fitting import fit_mle

TRUTHS = {"gev": Gev(100.0, 40.0, 0.2), "tls": Tls(0.1, 0.02, 4.0)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40, help="seeds 0 .. SEEDS-1")
    ap.add_argument("--sizes", default="3,4,5,6,8,10,12,15,20,30,40,50",
                    help="comma-separated sample sizes")
    args = ap.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]

    print(f"{'n':>4}" + "".join(f"{family + ' conv':>12}" for family in TRUTHS) + f"{'gev zeta<-1':>13}")
    totals = dict.fromkeys([*TRUTHS, "irregular"], 0)
    most = dict.fromkeys(TRUTHS, 0)  # iterations of the slowest converged fit
    for n in sizes:
        counts = dict.fromkeys(totals, 0)
        for seed in range(args.seeds):
            for family, truth in TRUTHS.items():
                res = fit_mle(family, sample(truth, seed=seed, n=n))
                counts[family] += res.converged
                if res.converged:
                    most[family] = max(most[family], res.iterations)
                counts["irregular"] += res.converged and family == "gev" and res.dist.zeta < -1.0
        print(f"{n:>4}" + "".join(f"{counts[f]:>9}/{args.seeds:<2}" for f in TRUTHS) + f"{counts['irregular']:>13}")
        totals = {k: totals[k] + counts[k] for k in totals}
    fits = args.seeds * len(sizes)
    print(f"\n{fits} fits per family: " + ", ".join(f"{f} {totals[f]} converged" for f in TRUTHS)
          + f"; {totals['irregular']} converged GEV fits with zeta < -1")
    print("most iterations of a converged fit: " + ", ".join(f"{f} {most[f]}" for f in TRUTHS)
          + f" (budget {fitting._MAXITER})")
    return 1 if totals["irregular"] or max(most.values()) >= fitting._MAXITER / 2 else 0


if __name__ == "__main__":
    sys.exit(main())
