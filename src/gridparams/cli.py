"""Command-line surface: analyze a grid case, fit families, validate
against a profile, generate synthetic parameters, and emit histogram CSVs.

Exit codes: 0 success, 1 usage or input errors, 2 validation failure.
Reports are deterministic: same inputs give byte-identical bytes (JSON
keys sorted, no timestamps; inputs are identified by sha256 digests).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    collect_samples,
    decorrelation_stats,
    observed_stats,
    spearman_own_by_class,
)
from .fitting import fit_and_score, select_best
from .ingest import ParseError, decode_utf8, parse_branch_csv, parse_matpower_case
from .ingest import serialize_branch_csv
from .distributions import family_tag, to_json as dist_to_json
from .profiles import (
    DEFAULT_THRESHOLDS,
    ParameterKind,
    builtin_profile,
    parse_profile_json,
    report_to_dict,
    thresholds_from_dict,
    validate,
)
from .sampler import (
    DEFAULT_TLS_NU,
    generate_lines,
    generate_transformers,
    params_csv,
    params_to_branch_records,
)
from .stats import FixedCount, FreedmanDiaconis, histogram, histogram_csv

__all__ = ["main", "run", "build_parser"]

_KIND_ORDER = tuple(ParameterKind)


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {value}")
    return value


def _add_input_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--case", help="MATPOWER-style case file")
    group.add_argument("--branches", help="canonical branch CSV file")
    sp.add_argument("--classes", default="115,138,230", help="voltage classes, comma-separated kV")
    sp.add_argument("--bins", default="fd", help="histogram binning: 'fd' or a bin count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridparams",
        description="Statistical characterization, validation, and synthesis "
        "of transformer and transmission line parameters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="per-class summary statistics")
    _add_input_flags(analyze)
    analyze.add_argument("--profile", default="builtin", help="profile JSON path or 'builtin'")
    analyze.add_argument("--out", help="output path (default stdout)")

    fit = sub.add_parser("fit", help="fit families per (parameter, class) and score by KL")
    _add_input_flags(fit)
    fit.add_argument("--out", help="output path (default stdout)")

    val = sub.add_parser("validate", help="check a case against a reference profile")
    _add_input_flags(val)
    val.add_argument("--profile", default="builtin", help="profile JSON path or 'builtin'")
    val.add_argument("--thresholds", help="JSON file with threshold overrides")
    val.add_argument("--out", help="output path (default stdout)")

    gen = sub.add_parser("generate", help="sample synthetic branch parameters")
    gen.add_argument("--class", dest="class_kv", type=float, required=True, help="voltage class kV")
    gen.add_argument("--n", type=_positive_int, required=True, help="number of branches")
    gen.add_argument("--seed", type=_seed_type, required=True, help="64-bit RNG seed")
    gen.add_argument("--kind", choices=("transformer", "line"), default="transformer")
    gen.add_argument("--base", type=float, default=100.0, help="system MVA base (transformers)")
    gen.add_argument("--nu", type=float, default=DEFAULT_TLS_NU, help="reactance t shape")
    gen.add_argument("--profile", default="builtin", help="profile JSON path or 'builtin'")
    gen.add_argument(
        "--emit",
        choices=("params", "branches"),
        default="params",
        help="params: parameter CSV; branches: canonical branch CSV on synthetic buses",
    )
    gen.add_argument("--lv-kv", type=float, default=13.8, help="low-side kV for emitted branches")
    gen.add_argument("--out", help="output path (default stdout)")

    hist = sub.add_parser("hist", help="write histogram CSV per (parameter, class)")
    _add_input_flags(hist)
    hist.add_argument("--out", required=True, help="output directory")

    return parser


def _read_input(path: str, inputs: dict) -> bytes:
    """An input file's bytes, read once; their sha256 digest goes into inputs."""
    data = Path(path).read_bytes()
    inputs[path] = hashlib.sha256(data).hexdigest()
    return data


def _parse_classes(text: str) -> tuple[float, ...]:
    try:
        kvs = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--classes expects comma-separated numbers, got {text!r}") from None
    if not kvs:
        raise ValueError("--classes must name at least one voltage class")
    return kvs


def _binning(text: str):
    if text == "fd":
        return FreedmanDiaconis()
    try:
        return FixedCount(int(text))
    except ValueError:
        raise ValueError(f"--bins expects 'fd' or an integer >= 2, got {text!r}") from None


def _collect(args, inputs: dict):
    """Read the --case or --branches input and collect its samples for the
    --classes voltage classes: (class kVs, CollectedSamples)."""
    if args.case is not None:
        _, records = parse_matpower_case(decode_utf8(_read_input(args.case, inputs)))
    else:
        records = parse_branch_csv(_read_input(args.branches, inputs))
    class_kvs = _parse_classes(args.classes)
    return class_kvs, collect_samples(records, class_kvs)


def _load_profile(spec: str, inputs: dict) -> list:
    if spec == "builtin":
        return builtin_profile()
    return parse_profile_json(decode_utf8(_read_input(spec, inputs)))


def _meta(inputs: dict, *, seed=None, thresholds=None) -> dict:
    return {
        "version": __version__,
        "inputs": dict(sorted(inputs.items())),
        "seed": seed,
        "thresholds": None if thresholds is None else dataclasses.asdict(thresholds),
    }


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(payload: dict, out: str | None) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _summary_dict(stats) -> dict:
    s = stats.summary
    return {
        "n": s.n,
        "median": s.median,
        "mean": s.mean,
        "min": s.min,
        "max": s.max,
        "q10": s.q10,
        "q90": s.q90,
        "band_fraction": stats.band_fraction,
    }


def _cmd_analyze(args) -> int:
    inputs: dict = {}
    class_kvs, collected = _collect(args, inputs)
    profile = _load_profile(args.profile, inputs)
    observed = observed_stats(collected, profile, binning=_binning(args.bins))
    decorr = decorrelation_stats(collected)

    classes_out = {}
    for kv in class_kvs:
        entry: dict = {}
        for kind in _KIND_ORDER:
            stats = observed.get((kind, kv))
            entry[kind.value] = "no data" if stats is None else _summary_dict(stats)
        d = decorr.get(kv)
        entry["decorrelation"] = (
            "no data"
            if d is None
            else {
                "n": d.n,
                "pearson_own": d.pearson_own,
                "spearman_own": d.spearman_own,
                "pearson_common": d.pearson_common,
                "spearman_common": d.spearman_common,
            }
        )
        entry["autotransformer_suspects"] = collected.suspect_counts.get(kv, 0)
        classes_out[f"{kv:g}"] = entry

    rejected_counts: dict = {}
    for _, reason in collected.rejected:
        rejected_counts[reason.value] = rejected_counts.get(reason.value, 0) + 1
    payload = {
        "meta": _meta(inputs),
        "classes": classes_out,
        "filter": {
            "kept": collected.kept,
            "rejected": rejected_counts,
            "unclassified": collected.unclassified,
        },
    }
    _emit_json(payload, args.out)
    return 0


def _fit_entry(fit, score) -> dict:
    return {
        "family": family_tag(fit.dist),
        "dist": dist_to_json(fit.dist),
        "log_likelihood": fit.log_likelihood,
        "n": fit.n,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "message": fit.message,
        "d_kl": score.d_kl,
        "bins_used": score.bins_used,
        "empty_bins_skipped": score.empty_bins_skipped,
    }


def _cmd_fit(args) -> int:
    inputs: dict = {}
    class_kvs, collected = _collect(args, inputs)
    binning = _binning(args.bins)

    fits_out: dict = {}
    for kv in class_kvs:
        per_class: dict = {}
        for kind in _KIND_ORDER:
            arr = collected.values.get((kind, kv))
            if arr is None or arr.size == 0:
                per_class[kind.value] = "no data"
                continue
            try:
                scored = fit_and_score(arr, binning=binning)
            except ValueError as exc:
                per_class[kind.value] = f"unfittable: {exc}"
                continue
            if not scored:
                per_class[kind.value] = "unfittable: no family admits this sample"
                continue
            best, _ = select_best(scored)
            per_class[kind.value] = {
                "fits": [_fit_entry(f, s) for f, s in scored],
                "best_family": family_tag(best.dist),
            }
        fits_out[f"{kv:g}"] = per_class

    _emit_json({"meta": _meta(inputs), "fits": fits_out}, args.out)
    return 0


def _cmd_validate(args) -> int:
    inputs: dict = {}
    class_kvs, collected = _collect(args, inputs)
    profile = _load_profile(args.profile, inputs)
    thresholds = DEFAULT_THRESHOLDS
    if args.thresholds is not None:
        thresholds = thresholds_from_dict(
            json.loads(decode_utf8(_read_input(args.thresholds, inputs)))
        )
    observed = observed_stats(collected, profile, binning=_binning(args.bins))
    decorr = spearman_own_by_class(decorrelation_stats(collected))

    report = validate(observed, profile, thresholds, transformer_decorrelation=decorr)
    payload = {"meta": _meta(inputs, thresholds=thresholds), **report_to_dict(report)}
    _emit_json(payload, args.out)
    return 0 if report.overall_pass else 2


def _cmd_generate(args) -> int:
    inputs: dict = {}
    profile = _load_profile(args.profile, inputs)
    if args.kind == "transformer":
        items = generate_transformers(
            args.class_kv, args.n, args.seed, profile, args.base, nu=args.nu
        )
    else:
        items = generate_lines(args.class_kv, args.n, args.seed, profile)
    if args.emit == "params":
        text = params_csv(items)
    else:
        text = serialize_branch_csv(params_to_branch_records(items, args.base, lv_kv=args.lv_kv))
    _write_text(text, args.out)
    return 0


def _cmd_hist(args) -> int:
    inputs: dict = {}
    _, collected = _collect(args, inputs)
    binning = _binning(args.bins)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for (kind, kv), arr in sorted(
        collected.values.items(), key=lambda item: (item[0][0].value, item[0][1])
    ):
        if arr.size == 0:
            continue
        try:
            hist = histogram(arr, binning)
        except ValueError:
            continue
        path = out_dir / f"{kind.value}_{kv:g}.csv"
        path.write_text(histogram_csv(hist), encoding="utf-8")
        written.append(str(path))
    sys.stdout.write("\n".join(written) + ("\n" if written else ""))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "fit": _cmd_fit,
    "validate": _cmd_validate,
    "generate": _cmd_generate,
    "hist": _cmd_hist,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this tool reserves 2 for
        # validation failure, so usage errors map to 1 (0 stays 0).
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(argv)
