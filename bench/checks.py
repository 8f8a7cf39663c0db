"""Output checks for each gridparams subcommand, against planted truth.

Each check returns a list of problems; an empty list means the output is
correct. The expected values come from the input generator (inputs.py)
and from the profile the benchmark wrote, never from an earlier run of
the program.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import LINE_KINDS, TRANSFORMER_KINDS, class_sizes

KINDS = TRANSFORMER_KINDS + LINE_KINDS
LOW_SIDE_KV = 13.8  # the generate command's default --lv-kv


def check_analyze(text: str, truth: dict) -> list[str]:
    report = json.loads(text)
    problems = []
    want_filter = {
        "kept": truth["kept"],
        "rejected": {k: v for k, v in truth["rejected"].items() if v},
        "unclassified": truth["unclassified"],
    }
    if report["filter"] != want_filter:
        problems.append(f"filter counts {report['filter']} != planted {want_filter}")
    sizes = class_sizes(truth)
    for cls, c in truth["classes"].items():
        entry = report["classes"].get(cls, {})
        if entry.get("autotransformer_suspects") != c["suspects"]:
            problems.append(f"{cls} kV suspects {entry.get('autotransformer_suspects')} != {c['suspects']}")
        for kind in KINDS:
            got = entry.get(kind)
            n = got["n"] if isinstance(got, dict) else 0
            if n != sizes[(kind, cls)]:
                problems.append(f"{kind} {cls} kV n={n} != {sizes[(kind, cls)]}")
    return problems


def check_fit(text: str, truth: dict) -> list[str]:
    fits = json.loads(text)["fits"]
    problems = []
    for (kind, cls), n in class_sizes(truth).items():
        got = fits.get(cls, {}).get(kind)
        if n == 0:
            if got != "no data":
                problems.append(f"{kind} {cls} kV: expected 'no data', got {got!r}")
            continue
        if not isinstance(got, dict) or not got["fits"]:
            problems.append(f"{kind} {cls} kV: no fits for {n} values")
            continue
        families = [f["family"] for f in got["fits"]]
        if got["best_family"] not in families:
            problems.append(f"{kind} {cls} kV: best family {got['best_family']} was not fitted")
        if any(f["n"] != n for f in got["fits"]):
            problems.append(f"{kind} {cls} kV: fit sizes {[f['n'] for f in got['fits']]} != {n}")
    return problems


def check_validate(text: str, code: int, profile: list[dict]) -> list[str]:
    report = json.loads(text)
    problems = []
    covered = {(f["kind"], f["class_kv"]) for f in report["findings"]}
    for entry in profile:
        if (entry["kind"], entry["class_kv"]) not in covered:
            problems.append(f"no finding for {entry['kind']} at {entry['class_kv']:g} kV")
    passed = all(f["status"] != "fail" for f in report["findings"])
    if report["overall_pass"] != passed:
        problems.append(f"overall_pass={report['overall_pass']} contradicts the findings")
    if code != (0 if report["overall_pass"] else 2):
        problems.append(f"exit code {code} with overall_pass={report['overall_pass']}")
    return problems


def check_hist(out_dir: Path, listing: str, truth: dict) -> list[str]:
    """out_dir is where the files are; listing is the command's stdout."""
    problems = []
    expected = {f"{kind}_{cls}.csv": n for (kind, cls), n in class_sizes(truth).items() if n}
    listed = {Path(line).name for line in listing.splitlines()}
    if listed != set(expected):
        problems.append(f"listed {sorted(listed)}, expected {sorted(expected)}")
    for name, n in expected.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"missing {name}")
            continue
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        total = sum(int(row.split(",")[2]) for row in rows)
        if total != n:
            problems.append(f"{name}: bin counts sum to {total}, expected {n}")
    return problems


def _columns(text: str) -> dict[str, list[str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * len(header)
    return dict(zip(header, cells))


def _positive(name: str, values: np.ndarray) -> list[str]:
    bad = ~(np.isfinite(values) & (values > 0))
    return [f"{name}: {int(bad.sum())} values not finite and positive"] if bad.any() else []


def _rating_range(profile: list[dict], class_kv: float) -> tuple[float, float]:
    for e in profile:
        if e["kind"] == "TransformerMvaRating" and e["class_kv"] == class_kv:
            return e["summary"]["min"], e["summary"]["max"]
    raise KeyError(class_kv)


def check_generate(text: str, args: dict, profile: list[dict]) -> list[str]:
    """Rows, positivity, x/r consistency and rating range of generate output."""
    cols = _columns(text)
    n = int(args["n"])
    class_kv = float(args["class"])
    transformer = args.get("kind", "transformer") == "transformer"
    problems = []
    rows = len(next(iter(cols.values()), ()))
    if rows != n:
        return [f"{rows} rows, expected {n}"]

    def num(name: str) -> np.ndarray:
        return np.asarray(cols[name], dtype=float)

    if args.get("emit") == "branches":
        rating, x, r = num("mva_rating"), num("x_pu"), num("r_pu")
        for name in ("r_pu", "x_pu", "mva_rating", "from_kv", "to_kv", "system_mva_base"):
            problems += _positive(name, num(name))
        want_to = LOW_SIDE_KV if transformer else class_kv
        if not (np.all(num("from_kv") == class_kv) and np.all(num("to_kv") == want_to)):
            problems.append("terminal voltages do not match the class")
        if not np.all(num("tap_ratio") == (1.0 if transformer else 0.0)):
            problems.append("tap ratios do not match the branch kind")
    else:
        rating, xr = num("mva_rating"), num("xr")
        own = ("x_pu_own", "r_pu_own") if transformer else ()
        for name in ("mva_rating", "x_pu_common", "r_pu_common", "xr") + own:
            problems += _positive(name, num(name))
        x, r = (num("x_pu_own"), num("r_pu_own")) if transformer else (num("x_pu_common"), num("r_pu_common"))
        kind = "Transformer" if transformer else "TransmissionLine"
        if set(cols["kind"]) != {kind} or not np.all(num("class_kv") == class_kv):
            problems.append(f"rows are not all {kind} at {class_kv:g} kV")
        if not np.all(np.abs(x / r - xr) <= 1e-9 * xr):
            problems.append("x/r differs from xr")
        if not transformer and any(cols["x_pu_own"]):
            problems.append("line rows carry own-base values")
    if transformer:
        lo, hi = _rating_range(profile, class_kv)
        if not np.all((rating >= lo) & (rating <= hi)):
            problems.append(f"ratings outside the profile range [{lo}, {hi}]")
    if not np.all(np.isfinite(x / r)):
        problems.append("x/r not finite")
    return problems
