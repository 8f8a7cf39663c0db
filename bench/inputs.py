"""Seeded inputs for the gridparams benchmark, with their planted truth.

Only numpy is used here: the program under test receives nothing but the
files these functions write, and the same seed always writes the same
bytes. Each branch table mixes rows whose fate under the program's
documented cleaning and classification rules is known by construction:

- dirty rows for each of the five rejection reasons, including rows that
  break several rules so that the first rule in the documented order
  (R, X, zero rating, extreme rating, non-finite) must win;
- transformers inside the 115/138/230 kV classes, some with X/R below 4
  (autotransformer suspects), some recognised only by their tap and some
  only by their differing terminal voltages;
- lines inside the classes, and lines and transformers in off-class
  voltages (69, 120, 345 and 500 kV), which stay unclassified.

Values keep a wide margin from every threshold, so the six-digit text
written here cannot round a row across a rule. The truth is what
`gridparams analyze` must report for the file: kept, rejected by reason,
unclassified, suspects per class and the sample size per class.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CLASS_KVS = (115.0, 138.0, 230.0)
REASONS = ("NonPositiveR", "NonPositiveX", "ZeroRating", "ExtremeRating", "NonFinite")
TRANSFORMER_KINDS = ("TransformerReactanceOwnBase", "TransformerMvaRating", "TransformerXr")
LINE_KINDS = ("LineReactanceCommonBase", "LineCapacity", "LineXr")
BASE_MVA = 100.0
CSV_HEADER = "id,from_bus,to_bus,from_kv,to_kv,r_pu,x_pu,mva_rating,tap_ratio,system_mva_base"

REFERENCE_PROFILE = Path(__file__).with_name("reference_profile.json")
# Round-number line parameters, as scripts/make_demo_case.py uses them:
# the reference profile carries line family tags only, and line
# generation needs fitted values.
LINE_FITS = {
    "LineCapacity": {"family": "normal", "params": {"mu": 180.0, "sigma": 60.0}},
    "LineXr": {"family": "normal", "params": {"mu": 8.0, "sigma": 3.0}},
}

# Row categories of a branch table.
TRANSFORMER, SUSPECT, LINE, OFF_TRANSFORMER, OFF_LINE = range(5)
DIRTY = 5  # DIRTY + i is a row rejected for REASONS[i]

# Share of rows per category; dirty rows split evenly over the reasons.
_SHARES = {TRANSFORMER: 0.52, SUSPECT: 0.03, LINE: 0.35, OFF_TRANSFORMER: 0.02,
           OFF_LINE: 0.04}
_DIRTY_SHARE = 0.04
_CLASS_SHARES = (0.40, 0.35, 0.25)
# Bus voltages that match each class within its 2 percent tolerance.
_CLASS_VARIANTS = {115.0: (115.0, 115.0, 114.0, 116.2), 138.0: (138.0, 138.0, 139.5),
                   230.0: (230.0, 230.0, 227.0)}
_LOW_SIDES = {115.0: (13.8, 34.5, 69.0), 138.0: (13.8, 34.5, 69.0), 230.0: (69.0, 115.0, 138.0)}
# GEV (mu, sigma, zeta) of transformer ratings, as in the reference profile.
_RATING_GEV = {115.0: (41.08, 27.38, 0.3732), 138.0: (66.82, 42.31, 0.4166),
               230.0: (154.79, 105.61, 0.2433)}
_OFF_TRANSFORMER_KVS = ((345.0, 138.0), (500.0, 230.0), (69.0, 13.8))
_OFF_LINE_KVS = (69.0, 120.0, 345.0, 500.0)


def _counts(n: int) -> list[int]:
    """Rows per category for a table of about n rows (every category > 0)."""
    counts = [max(3, round(n * _SHARES[c])) for c in range(DIRTY)]
    per_reason = max(3, round(n * _DIRTY_SHARE / len(REASONS)))
    return counts + [per_reason] * len(REASONS)


def _fmt(values, spec: str) -> list[str]:
    return [format(v, spec) for v in values.tolist()]


def branch_table(rng: np.random.Generator, n: int) -> dict:
    """Columns of about n branch rows in random order, and their truth.

    Returns numpy columns from_kv, to_kv, r, x, rating, tap (already
    rounded to the digits the writers print) plus `category` and `truth`.
    """
    counts = _counts(n)
    category = np.repeat(np.arange(len(counts)), counts)
    total = category.size
    cls = rng.choice(len(CLASS_KVS), size=total, p=_CLASS_SHARES)
    class_kv = np.asarray(CLASS_KVS)[cls]
    from_kv = np.empty(total)
    to_kv = np.empty(total)
    tap = np.zeros(total)
    for ci, kv in enumerate(CLASS_KVS):
        here = cls == ci
        from_kv[here] = rng.choice(_CLASS_VARIANTS[kv], size=int(here.sum()))
        to_kv[here] = rng.choice(_LOW_SIDES[kv], size=int(here.sum()))
    xfmr = (category == TRANSFORMER) | (category == SUSPECT)
    # Transformers: 80 percent set their tap; a tenth of those sit between
    # equal voltages and are transformers by the tap alone.
    tapped = xfmr & (rng.random(total) < 0.8)
    tap[tapped] = rng.choice((1.0, 0.9875, 1.025), size=int(tapped.sum()))
    phase = tapped & (rng.random(total) < 0.1)
    to_kv[phase] = from_kv[phase]
    line = ~xfmr
    to_kv[line] = from_kv[line]

    off_t = category == OFF_TRANSFORMER
    pick = rng.integers(len(_OFF_TRANSFORMER_KVS), size=int(off_t.sum()))
    from_kv[off_t] = np.asarray(_OFF_TRANSFORMER_KVS)[pick, 0]
    to_kv[off_t] = np.asarray(_OFF_TRANSFORMER_KVS)[pick, 1]
    tap[off_t] = 1.0
    off_l = category == OFF_LINE
    from_kv[off_l] = to_kv[off_l] = rng.choice(_OFF_LINE_KVS, size=int(off_l.sum()))

    # A third of the transformers have their high side on the to-terminal.
    swap = (xfmr | off_t) & (rng.random(total) < 0.3)
    from_kv[swap], to_kv[swap] = to_kv[swap], from_kv[swap].copy()

    # Transformer parameters on their own base, then on the system base,
    # drawn from the families the program fits, truncated by redrawing
    # (not clipping, which would pile values on the bounds).
    rating = np.empty(total)
    for ci, kv in enumerate(CLASS_KVS):
        here = np.flatnonzero(cls == ci)
        rating[here] = _truncated(lambda k, g=_RATING_GEV[kv]: _gev(rng, *g, k), 3.0, 1300.0, here.size)
    x_own = _truncated(lambda k: 0.125 + 0.03 * rng.standard_t(4.0, k), 0.01, 0.9, total)
    x = x_own * BASE_MVA / rating
    xr = _truncated(lambda k: _gev(rng, 22.3, 10.7, 0.21, k), 6.0, 500.0, total)
    suspect = category == SUSPECT
    xr[suspect] = rng.uniform(1.5, 3.5, int(suspect.sum()))
    # Lines: exponential reactance; capacity and X/R bell-shaped with
    # slightly heavy tails, so that every family's fit converges.
    lines = np.flatnonzero(line)
    x[lines] = _truncated(lambda k: rng.exponential(0.0087, k), 1e-5, 1.0, lines.size)
    rating[lines] = _truncated(lambda k: 180.0 + 50.0 * rng.standard_t(6.0, k), 5.0, 900.0, lines.size)
    xr[lines] = _truncated(lambda k: 8.0 + 2.5 * rng.standard_t(6.0, k), 0.5, 30.0, lines.size)
    rating = _round(rating, ".4g")
    x = _round(x, ".6g")
    r = _round(x / xr, ".6g")

    _plant_dirty(rng, category, r, x, rating, tap)

    order = rng.permutation(total)
    cols = {"from_kv": from_kv, "to_kv": to_kv, "r": r, "x": x, "rating": rating, "tap": tap}
    cols = {k: v[order] for k, v in cols.items()}
    cols["category"] = category[order]
    cols["class_kv"] = class_kv[order]
    cols["truth"] = _truth(category, class_kv)
    return cols


def _gev(rng, mu: float, sigma: float, zeta: float, size: int) -> np.ndarray:
    return mu + sigma * ((-np.log(rng.random(size))) ** -zeta - 1.0) / zeta


def _truncated(draw, lo: float, hi: float, size: int) -> np.ndarray:
    """draw(k) values, with those outside [lo, hi] drawn again."""
    out = draw(size)
    while True:
        bad = np.flatnonzero((out < lo) | (out > hi))
        if bad.size == 0:
            return out
        out[bad] = draw(bad.size)


def _round(values: np.ndarray, spec: str) -> np.ndarray:
    return np.asarray(_fmt(values, spec), dtype=float)


def _plant_dirty(rng, category, r, x, rating, tap) -> None:
    """Break dirty rows in place. Some rows also break a later rule, which
    must not change their reason."""
    nan, inf = float("nan"), float("inf")

    def rows(reason: int) -> tuple[np.ndarray, np.ndarray]:
        idx = np.flatnonzero(category == DIRTY + reason)
        return idx, rng.random(idx.size) < 0.5

    idx, also = rows(0)
    r[idx] = rng.choice((0.0, -0.0005), size=idx.size)
    x[idx[also]] = -0.01
    rating[idx[also]] = 0.0
    idx, also = rows(1)
    x[idx] = rng.choice((0.0, -0.02), size=idx.size)
    tap[idx[also]] = nan
    idx, also = rows(2)
    rating[idx] = 0.0
    tap[idx[also]] = nan
    idx, also = rows(3)
    rating[idx] = rng.choice((0.5, 4000.0, 9900.0), size=idx.size)
    tap[idx[also]] = inf
    idx, also = rows(4)
    tap[idx] = nan
    r[idx[also]] = inf


def _truth(category: np.ndarray, class_kv: np.ndarray) -> dict:
    dirty = category >= DIRTY
    classes = {}
    for kv in CLASS_KVS:
        here = class_kv == kv
        classes[f"{kv:g}"] = {
            "transformers": int(np.count_nonzero(here & ((category == TRANSFORMER) | (category == SUSPECT)))),
            "lines": int(np.count_nonzero(here & (category == LINE))),
            "suspects": int(np.count_nonzero(here & (category == SUSPECT))),
        }
    return {
        "rows": int(category.size),
        "kept": int(np.count_nonzero(~dirty)),
        "rejected": {reason: int(np.count_nonzero(category == DIRTY + i))
                     for i, reason in enumerate(REASONS)},
        "unclassified": int(np.count_nonzero((category == OFF_TRANSFORMER) | (category == OFF_LINE))),
        "classes": classes,
    }


def class_sizes(truth: dict) -> dict[tuple[str, str], int]:
    """Expected sample size per (parameter kind, class) from a truth dict."""
    out = {}
    for cls, c in truth["classes"].items():
        for kind in TRANSFORMER_KINDS:
            out[(kind, cls)] = c["transformers"]
        for kind in LINE_KINDS:
            out[(kind, cls)] = c["lines"]
    return out


def write_branch_csv(path: Path, seed: int, n: int) -> dict:
    """A canonical branch CSV of about n rows; returns its truth."""
    t = branch_table(np.random.default_rng(seed), n)
    total = t["category"].size
    ids = [f"B{i}" for i in range(1, total + 1)]
    buses = list(range(1, 2 * total + 1))
    columns = [ids, map(str, buses[0::2]), map(str, buses[1::2]),
               _fmt(t["from_kv"], "g"), _fmt(t["to_kv"], "g"), _fmt(t["r"], ".6g"),
               _fmt(t["x"], ".6g"), _fmt(t["rating"], ".4g"), _fmt(t["tap"], "g"),
               [f"{BASE_MVA:g}"] * total]
    rows = [",".join(cells) for cells in zip(*columns)]
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return t["truth"]


def write_matpower_case(path: Path, seed: int, n: int, name: str) -> dict:
    """A MATPOWER case file of about n branches in the layout of MATPOWER's
    own case files; returns its truth, plus `parallel`: the number of
    branches that repeat an earlier (from bus, to bus) pair."""
    rng = np.random.default_rng(seed)
    t = branch_table(rng, n)
    total = t["category"].size

    # One pool of buses per voltage; each branch takes its terminals from
    # the pools of its two voltages.
    levels, level_of = np.unique(np.concatenate([t["from_kv"], t["to_kv"]]), return_inverse=True)
    need = np.bincount(level_of, minlength=levels.size)
    pool_size = np.maximum(2, (need * 0.4).astype(int))
    first_bus = np.concatenate([[1], 1 + np.cumsum(pool_size)[:-1]])
    n_bus = int(pool_size.sum())
    f_lvl, t_lvl = level_of[:total], level_of[total:]
    f_off = rng.integers(pool_size[f_lvl])
    same = f_lvl == t_lvl
    t_off = rng.integers(pool_size[t_lvl])
    # Distinct terminals when both sides share a pool.
    t_off[same] = (f_off[same] + 1 + rng.integers(pool_size[t_lvl][same] - 1)) % pool_size[t_lvl][same]
    fbus = first_bus[f_lvl] + f_off
    tbus = first_bus[t_lvl] + t_off
    # Parallel branches: some rows repeat the terminals of the row before
    # them among rows between the same two voltages.
    order = np.lexsort((t_lvl, f_lvl))
    prev, cur = order[:-1], order[1:]
    copy = (f_lvl[prev] == f_lvl[cur]) & (t_lvl[prev] == t_lvl[cur]) & (rng.random(total - 1) < 0.05)
    fbus[cur[copy]] = fbus[prev[copy]]
    tbus[cur[copy]] = tbus[prev[copy]]
    pairs = np.unique(np.stack([fbus, tbus], axis=1), axis=0)

    bus_kv = np.repeat(levels, pool_size)
    bus_type = np.ones(n_bus, dtype=int)
    gen_bus = rng.choice(n_bus, size=max(2, n_bus // 20), replace=False) + 1
    bus_type[gen_bus - 1] = 2
    bus_type[gen_bus[0] - 1] = 3
    pd = np.round(rng.uniform(0.0, 80.0, n_bus), 1)
    qd = np.round(pd * rng.uniform(0.1, 0.4, n_bus), 1)

    charging = np.where(t["category"] == LINE, _round(t["x"] * rng.uniform(0.5, 2.0, total), ".4g"), 0.0)
    rate = _fmt(t["rating"], ".4g")
    out = [
        f"function mpc = {name}",
        f"%{name.upper()}  Synthetic {total}-branch case with planted data defects.",
        "",
        "%% MATPOWER Case Format : Version 2",
        "mpc.version = '2';",
        "",
        "%%-----  Power Flow Data  -----%%",
        "%% system MVA base",
        f"mpc.baseMVA = {BASE_MVA:g};",
        "",
        "%% bus data",
        "%\tbus_i\ttype\tPd\tQd\tGs\tBs\tarea\tVm\tVa\tbaseKV\tzone\tVmax\tVmin",
        "mpc.bus = [",
    ]
    out += [f"\t{i}\t{ty}\t{p:g}\t{q:g}\t0\t0\t1\t1\t0\t{kv:g}\t1\t1.1\t0.9;"
            for i, ty, p, q, kv in zip(range(1, n_bus + 1), bus_type.tolist(), pd.tolist(),
                                       qd.tolist(), bus_kv.tolist())]
    out += [
        "];",
        "",
        "%% generator data",
        "%\tbus\tPg\tQg\tQmax\tQmin\tVg\tmBase\tstatus\tPmax\tPmin\tPc1\tPc2\tQc1min\tQc1max"
        "\tQc2min\tQc2max\tramp_agc\tramp_10\tramp_30\tramp_q\tapf",
        "mpc.gen = [",
    ]
    out += [f"\t{b}\t100\t0\t300\t-300\t1\t100\t1\t250\t10\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;"
            for b in sorted(gen_bus.tolist())]
    out += [
        "];",
        "",
        "%% branch data",
        "%\tfbus\ttbus\tr\tx\tb\trateA\trateB\trateC\tratio\tangle\tstatus\tangmin\tangmax",
        "mpc.branch = [",
    ]
    out += [f"\t{f}\t{to}\t{r}\t{x}\t{b:g}\t{a}\t{a}\t{a}\t{tap}\t0\t1\t-360\t360;"
            for f, to, r, x, b, a, tap in zip(
                fbus.tolist(), tbus.tolist(), _matlab(t["r"], ".6g"), _matlab(t["x"], ".6g"),
                charging.tolist(), rate, _matlab(t["tap"], "g"))]
    out += [
        "];",
        "",
        "%%-----  OPF Data  -----%%",
        "%% generator cost data",
        "%\t1\tstartup\tshutdown\tn\tx1\ty1\t...\txn\tyn",
        "%\t2\tstartup\tshutdown\tn\tc(n-1)\t...\tc0",
        "mpc.gencost = [",
    ]
    out += ["\t2\t0\t0\t3\t0.01\t40\t0;"] * len(gen_bus)
    out += ["];", ""]
    path.write_text("\n".join(out), encoding="utf-8")
    truth = t["truth"]
    truth["parallel"] = int(total - pairs.shape[0])
    return truth


def _matlab(values: np.ndarray, spec: str) -> list[str]:
    """Numbers as MATLAB prints them: NaN and Inf, not nan and inf."""
    return [s.replace("nan", "NaN").replace("inf", "Inf") for s in _fmt(values, spec)]


def reference_profile() -> list[dict]:
    """The reference profile as the program shipped it when this benchmark
    was defined, frozen here so the inputs do not change with the program."""
    return json.loads(REFERENCE_PROFILE.read_text(encoding="utf-8"))


def line_capable_profile() -> list[dict]:
    """The reference profile plus fitted line capacity and X/R."""
    out = reference_profile()
    for entry in out:
        if entry["kind"] in LINE_FITS:
            entry["fitted"] = LINE_FITS[entry["kind"]]
    return out


def write_profile(path: Path, entries: list[dict]) -> None:
    path.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
