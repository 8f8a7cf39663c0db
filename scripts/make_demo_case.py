"""Build a synthetic demo case and validate it against the builtin profile.

Generates transformers for every builtin voltage class, optionally lines
(which need fitted line parameters, supplied here as a worked example of
augmenting the builtin profile), writes the fleet as a canonical branch
CSV, and prints the validation verdict.

Usage: python scripts/make_demo_case.py --out demo_fleet.csv --n 2000
"""

import argparse
import dataclasses
import sys

from gridparams.analysis import (
    collect_samples,
    decorrelation_stats,
    observed_stats,
    spearman_own_by_class,
)
from gridparams.distributions import Normal
from gridparams.ingest import serialize_branch_csv
from gridparams.profiles import ParameterKind, builtin_profile, validate
from gridparams.sampler import (
    SyntheticTable,
    generate_lines,
    generate_transformers,
    params_to_branch_records,
)

CLASS_KVS = (115.0, 138.0, 230.0)


def line_capable_profile():
    """Builtin profile plus invented line parameters.

    The builtin profile ships line entries with family tags only, so line
    generation needs concrete values from somewhere; these are round
    numbers for demonstration, not reference data.
    """
    fitted = {ParameterKind.LINE_CAPACITY: Normal(180.0, 60.0), ParameterKind.LINE_XR: Normal(8.0, 3.0)}
    return [dataclasses.replace(e, fitted=fitted.get(e.kind, e.fitted)) for e in builtin_profile()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="branch CSV output path")
    ap.add_argument("--n", type=int, default=2000, help="transformers per class")
    ap.add_argument("--lines", type=int, default=0, help="lines per class (0 = none)")
    ap.add_argument("--seed", type=int, default=20260816)
    ap.add_argument("--base", type=float, default=100.0, help="system MVA base")
    args = ap.parse_args(argv)

    profile = builtin_profile()
    tables = [
        generate_transformers(kv, args.n, seed=args.seed + i, profile=profile, system_mva_base=args.base)
        for i, kv in enumerate(CLASS_KVS)
    ]
    if args.lines:
        augmented = line_capable_profile()
        for i, kv in enumerate(CLASS_KVS):
            tables.append(generate_lines(kv, args.lines, seed=args.seed + 100 + i, profile=augmented))

    records = params_to_branch_records(SyntheticTable.concat(tables), system_mva_base=args.base)
    with open(args.out, "w") as fh:
        fh.write(serialize_branch_csv(records))
    print(f"wrote {len(records)} branches to {args.out}")

    collected = collect_samples(records)
    observed = observed_stats(collected, profile)
    decorr = spearman_own_by_class(decorrelation_stats(collected))
    report = validate(observed, profile, transformer_decorrelation=decorr)
    by_status = {"pass": 0, "fail": 0, "skipped": 0}
    for f in report.findings:
        by_status[f.status] += 1
        if f.status == "fail":
            print(f"  FAIL {f.check} {f.kind.value} {f.class_kv:g} kV: {f.observed} vs {f.expected}")
    print(
        f"validation: overall_pass={report.overall_pass} "
        f"({by_status['pass']} pass, {by_status['fail']} fail, {by_status['skipped']} skipped)"
    )
    return 0 if report.overall_pass else 2


if __name__ == "__main__":
    sys.exit(main())
