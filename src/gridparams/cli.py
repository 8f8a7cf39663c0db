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
import math
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .analysis import (
    collect_samples,
    decorrelation_stats,
    observed_stats,
    spearman_own_by_class,
)
from .fitting import fit_and_score, select_best
from .ingest import RejectReason, decode_utf8, parse_branch_csv, parse_matpower_case
from .ingest import serialize_branch_csv, voltage_class_table
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
from .stats import _bins, histogram, histogram_csv

__all__ = ["main", "run", "build_parser"]


def _flag_type(expected: str, convert):
    """An argparse type: convert(text), its ValueError a usage error naming what was expected, the text and why."""
    def flag_type(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r} ({exc})") from None
    return flag_type


def _int_in(lo: int, hi: float):
    """A converter: int(text), a ValueError unless lo <= it < hi."""
    def int_in(text: str) -> int:
        if not lo <= (value := int(text)) < hi:
            raise ValueError("out of range")
        return value
    return int_in


_CLASSES = _flag_type("comma-separated kV", lambda text: tuple(voltage_class_table(map(float, text.split(",")))))
_BINS = _flag_type("'fd' or an integer >= 2", lambda text: _bins(text if text == "fd" else int(text)))
_COUNT = _flag_type("an integer >= 1", _int_in(1, math.inf))
_SEED = _flag_type("an integer in [0, 2**64)", _int_in(0, 2**64))


def _add_input_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--case", help="MATPOWER-style case file")
    group.add_argument("--branches", help="canonical branch CSV file")
    sp.add_argument("--classes", type=_CLASSES, default="115,138,230", help="voltage classes, comma-separated kV")


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
    gen.add_argument("--n", type=_COUNT, required=True, help="number of branches")
    gen.add_argument("--seed", type=_SEED, required=True, help="64-bit RNG seed")
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

    for sp in (fit, val, hist):  # analyze reports no histogram
        sp.add_argument("--bins", type=_BINS, default="fd", help="histogram binning: 'fd' or a bin count")
    return parser


def _read_input(path: str, inputs: dict) -> bytes:
    """An input file's bytes, read once; their sha256 digest goes into inputs."""
    data = Path(path).read_bytes()
    inputs[path] = hashlib.sha256(data).hexdigest()
    return data


def _collect(args, inputs: dict):
    """Read the --case or --branches input and collect its samples for the --classes voltage classes."""
    if args.case is not None:
        _, records = parse_matpower_case(decode_utf8(_read_input(args.case, inputs)))
    else:
        records = parse_branch_csv(_read_input(args.branches, inputs))
    return collect_samples(records, args.classes)


def _load_profile(spec: str, inputs: dict) -> list:
    if spec == "builtin":
        return builtin_profile()
    return parse_profile_json(decode_utf8(_read_input(spec, inputs)))


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _report(payload: dict, inputs: dict, out: str | None, thresholds=None) -> None:
    """Write a JSON report: payload under a meta block naming the version,
    the input digests and any thresholds. No report is seeded."""
    meta = {
        "version": __version__,
        "inputs": dict(sorted(inputs.items())),
        "seed": None,
        "thresholds": None if thresholds is None else dataclasses.asdict(thresholds),
    }
    _write_text(json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True) + "\n", out)


def _by_class(class_kvs, cell) -> dict:
    """The {kV: {kind: cell(kind, kV)}} table of a report."""
    return {f"{kv:g}": {kind.value: cell(kind, kv) for kind in ParameterKind} for kv in class_kvs}


def _cmd_analyze(args, inputs: dict, collected) -> int:
    profile = _load_profile(args.profile, inputs)
    observed = observed_stats(collected, profile)
    decorr = decorrelation_stats(collected)

    def summary(kind, kv):
        stats = observed.get((kind, kv))
        if stats is None:
            return "no data"
        return {**dataclasses.asdict(stats.summary), "band_fraction": stats.band_fraction}

    classes = _by_class(args.classes, summary)
    for kv in args.classes:
        entry, d = classes[f"{kv:g}"], decorr.get(kv)
        entry["decorrelation"] = "no data" if d is None else dataclasses.asdict(d)
        entry["autotransformer_suspects"] = collected.suspect_counts.get(kv, 0)
    names = [reason.value for reason in RejectReason]
    rejected = Counter(names[code] for code in collected.reasons.tolist())
    filter_out = {"kept": collected.kept, "rejected": rejected, "unclassified": collected.unclassified}
    _report({"classes": classes, "filter": filter_out}, inputs, args.out)
    return 0


def _fit_cell(arr, bins):
    """fit's cell for one sample: "no data", "unfittable: ...", or the
    scored fits with the best family."""
    if arr is None:
        return "no data"
    try:
        scored = fit_and_score(arr, bins=bins)
    except ValueError as exc:
        return f"unfittable: {exc}"
    if not scored:
        return "unfittable: no family admits this sample"
    best, _ = select_best(scored)
    fits = [
        {**dataclasses.asdict(f), "family": family_tag(f.dist), "dist": dist_to_json(f.dist),
         **dataclasses.asdict(s)}
        for f, s in scored
    ]
    return {"fits": fits, "best_family": family_tag(best.dist)}


def _cmd_fit(args, inputs: dict, collected) -> int:
    fits = _by_class(args.classes, lambda kind, kv: _fit_cell(collected.values.get((kind, kv)), args.bins))
    _report({"fits": fits}, inputs, args.out)
    return 0


def _cmd_validate(args, inputs: dict, collected) -> int:
    profile = _load_profile(args.profile, inputs)
    thresholds = DEFAULT_THRESHOLDS
    if args.thresholds is not None:
        thresholds = thresholds_from_dict(
            json.loads(decode_utf8(_read_input(args.thresholds, inputs)))
        )
    observed = observed_stats(collected, profile, bins=args.bins)
    decorr = spearman_own_by_class(decorrelation_stats(collected))

    report = validate(observed, profile, thresholds, transformer_decorrelation=decorr)
    _report(report_to_dict(report), inputs, args.out, thresholds)
    return 0 if report.overall_pass else 2


def _cmd_generate(args) -> int:
    profile = _load_profile(args.profile, {})
    if args.kind == "transformer":
        table = generate_transformers(args.class_kv, args.n, args.seed, profile, args.base, nu=args.nu)
    else:
        table = generate_lines(args.class_kv, args.n, args.seed, profile)
    if args.emit == "params":
        text = params_csv(table)
    else:
        text = serialize_branch_csv(params_to_branch_records(table, args.base, lv_kv=args.lv_kv))
    _write_text(text, args.out)
    return 0


def _cmd_hist(args, inputs: dict, collected) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for (kind, kv), arr in sorted(
        collected.values.items(), key=lambda item: (item[0][0].value, item[0][1])
    ):
        try:
            hist = histogram(arr, args.bins)
        except ValueError:
            continue
        path = out_dir / f"{kind.value}_{kv:g}.csv"
        path.write_text(histogram_csv(hist), encoding="utf-8")
        written.append(str(path))
    sys.stdout.write("\n".join(written) + ("\n" if written else ""))
    return 0


# The commands that read a --case or --branches input: (args, input digests, collected samples).
_INGEST_COMMANDS = {"analyze": _cmd_analyze, "fit": _cmd_fit, "validate": _cmd_validate, "hist": _cmd_hist}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this tool reserves 2 for
        # validation failure, so usage errors map to 1 (0 stays 0).
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        inputs: dict = {}
        return _INGEST_COMMANDS[args.command](args, inputs, _collect(args, inputs))
    except (ValueError, ArithmeticError, OSError, RuntimeError, MemoryError) as exc:
        # ParseError and json.JSONDecodeError are ValueErrors.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(argv)
