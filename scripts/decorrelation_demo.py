"""Show how the MVA-rating base conversion decorrelates reactance.

Samples a transformer fleet for one voltage class and prints the
correlation of reactance with rating on the system base (strongly
negative: bigger units have smaller per-unit reactance there) and on
each unit's own base (near zero), which is the property that makes the
own-base distribution worth fitting in the first place.

Usage: python scripts/decorrelation_demo.py --kv 115 --n 5000
"""

import argparse
import sys

from gridparams.profiles import builtin_profile
from gridparams.sampler import generate_transformers
from gridparams.stats import pearson, spearman


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kv", type=float, default=115.0)
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=20260816)
    ap.add_argument("--base", type=float, default=100.0)
    args = ap.parse_args(argv)

    items = generate_transformers(
        args.kv, args.n, seed=args.seed, profile=builtin_profile(), system_mva_base=args.base
    )
    x_own, x_common, mva = items.x_pu_own, items.x_pu_common, items.mva_rating

    print(f"{args.n} transformers at {args.kv:g} kV, seed {args.seed}, {args.base:g} MVA base")
    print(f"{'':<14}{'pearson':>10}{'spearman':>10}")
    print(f"{'own base':<14}{pearson(x_own, mva):>10.4f}{spearman(x_own, mva):>10.4f}")
    print(f"{'common base':<14}{pearson(x_common, mva):>10.4f}{spearman(x_common, mva):>10.4f}")

    ok = abs(spearman(x_own, mva)) < 0.1 and spearman(x_common, mva) < -0.3
    print(f"\ndecorrelation holds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
