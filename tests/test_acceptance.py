"""End-to-end acceptance checks.

Each test covers one numbered criterion and emits a single
"ACCEPTANCE n: PASS/FAIL" line (echoed in the terminal summary).
Reference constants are duplicated literally here so the checks are
independent of the package's own data file.
"""

import json
import math

import numpy as np

from conftest import record_acceptance
from gridparams.cli import run
from gridparams.distributions import (
    Exponential,
    Gev,
    Normal,
    Tls,
    cdf,
    pdf,
    sample,
)
from gridparams.fitting import fit_mle, kl_divergence
from gridparams.ingest import ParseError, parse_branch_csv, parse_matpower_case, serialize_branch_csv
from gridparams.per_unit import BaseSpec, rebase_impedance, to_own_base
from gridparams.profiles import (
    DEFAULT_THRESHOLDS,
    ParameterKind,
    builtin_profile,
    lookup,
    validate,
)
from gridparams.analysis import (
    collect_samples,
    decorrelation_stats,
    observed_stats,
    spearman_own_by_class,
)
from gridparams.sampler import SyntheticTable, generate_transformers, params_to_branch_records
from gridparams.stats import band_fraction, spearman


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


# criterion 1 reference constants, duplicated by hand
XFMR_X_SUMMARY = {
    115.0: (0.1291, 0.1363, 3.92e-4, 1.0162, 0.8188),
    138.0: (0.1246, 0.1381, 1.00e-4, 1.26, 0.8201),
    230.0: (0.1260, 0.1392, 2.47e-4, 1.08, 0.8733),
}
MVA_SUMMARY = {
    115.0: (53.0, 71.30, 3.0, 384.0, 22.0, 140.0),
    138.0: (83.0, 117.24, 3.3, 616.0, 39.0, 239.0),
    230.0: (203.0, 246.61, 10.0, 1380.0, 62.5, 470.0),
}
XR_SUMMARY = {
    115.0: (25.39, 37.83, 0.0577, 5.41e3, 16.2, 47.5),
    138.0: (29.58, 39.73, 0.2033, 1.92e3, 19.1, 54.0),
    230.0: (44.37, 65.77, 0.1786, 4.03e3, 25.0, 84.0),
}
MVA_GEV = {
    115.0: (41.08, 27.38, 0.3732, 0.1295),
    138.0: (66.82, 42.31, 0.4166, 0.0990),
    230.0: (154.79, 105.61, 0.2433, 0.1148),
}
XR_GEV = {
    115.0: (22.29, 10.70, 0.2135, 0.0918),
    138.0: (25.88, 12.34, 0.2167, 0.0949),
    230.0: (37.79, 19.67, 0.2594, 0.0984),
}
LINE_FAMILIES = {
    ParameterKind.LINE_REACTANCE_COMMON_BASE: "exponential",
    ParameterKind.LINE_CAPACITY: "normal",
    ParameterKind.LINE_XR: "normal",
}


def test_criterion_1_profile_transcription():
    failures = []
    profile = builtin_profile()
    for kv, (med, mean, lo, hi, frac) in XFMR_X_SUMMARY.items():
        e = lookup(profile, ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, kv)
        s = e.summary
        _check(failures, (s.median, s.mean, s.min, s.max) == (med, mean, lo, hi), f"X summary {kv:g}")
        _check(failures, (e.band.lo, e.band.hi, e.band.fraction) == (0.05, 0.2, frac), f"X band {kv:g}")
        _check(failures, e.family == "tls" and e.fitted is None, f"X family tag {kv:g}")
    for kind, summaries, gevs in (
        (ParameterKind.TRANSFORMER_MVA_RATING, MVA_SUMMARY, MVA_GEV),
        (ParameterKind.TRANSFORMER_XR, XR_SUMMARY, XR_GEV),
    ):
        for kv, (med, mean, lo, hi, q10, q90) in summaries.items():
            e = lookup(profile, kind, kv)
            s = e.summary
            got = (s.median, s.mean, s.min, s.max, s.q10, s.q90)
            _check(failures, got == (med, mean, lo, hi, q10, q90), f"{kind.value} summary {kv:g}")
            mu, sigma, zeta, d_kl = gevs[kv]
            _check(failures, e.fitted == Gev(mu=mu, sigma=sigma, zeta=zeta), f"{kind.value} GEV {kv:g}")
            _check(failures, e.reference_d_kl == d_kl, f"{kind.value} D_KL {kv:g}")
    for kind, family in LINE_FAMILIES.items():
        for kv in (115.0, 138.0, 230.0):
            e = lookup(profile, kind, kv)
            _check(failures, e is not None and e.family == family and e.fitted is None, f"{kind.value} {kv:g}")
    _check(failures, len(profile) == 18, "entry count")
    record_acceptance(1, "builtin profile transcription is exact", failures)


def test_criterion_2_analytic_identities():
    failures = []
    for zeta in (-0.5, 0.1, 0.3732):
        got = cdf(Gev(mu=3.0, sigma=2.0, zeta=zeta), 3.0)
        _check(failures, abs(got - math.exp(-1.0)) <= 1e-12, f"GEV cdf at mu, zeta={zeta}")
    for mu in (0.5, 1.0, 4.0):
        got = pdf(Exponential(mu=mu), 0.0)
        _check(failures, abs(got - 1.0 / mu) <= 1e-12, f"exponential pdf(0), mu={mu}")
    for mu, sigma in ((0.0, 1.0), (2.0, 0.5)):
        got = pdf(Tls(mu=mu, sigma=sigma, nu=1.0), mu)
        _check(failures, abs(got - 1.0 / (math.pi * sigma)) <= 1e-12, f"TLS pdf at mu, sigma={sigma}")
    record_acceptance(2, "closed-form density identities hold to 1e-12", failures)


def test_criterion_3_mle_recovery():
    failures = []
    for label, table in (("mva", MVA_GEV), ("xr", XR_GEV)):
        for kv, (mu, sigma, zeta, _) in table.items():
            truth = Gev(mu=mu, sigma=sigma, zeta=zeta)
            res = fit_mle("gev", sample(truth, seed=7, n=20000))
            _check(failures, res.converged, f"{label} {kv:g} converged")
            for name, got, want in (
                ("mu", res.dist.mu, mu),
                ("sigma", res.dist.sigma, sigma),
                ("zeta", res.dist.zeta, zeta),
            ):
                rel = abs(got - want) / abs(want)
                _check(failures, rel <= 0.05, f"{label} {kv:g} {name} rel err {rel:.4f}")
    exp_fit = fit_mle("exponential", [1.0, 2.0, 3.0, 10.0])
    _check(failures, exp_fit.dist.mu == 4.0, "exponential closed form")
    norm_fit = fit_mle("normal", [1.0, 2.0, 3.0, 4.0])
    _check(failures, norm_fit.dist.mu == 2.5, "normal mean closed form")
    _check(failures, norm_fit.dist.sigma == math.sqrt(1.25), "normal sigma closed form")
    record_acceptance(3, "GEV refits within 5 percent; closed-form MLEs exact", failures)


def test_criterion_4_kl_correctness():
    failures = []
    from gridparams.stats import Histogram
    from gridparams.distributions import quantile

    split = math.log(10.0)
    h = Histogram(
        edges=(0.0, split, 20.0),
        densities=(0.5 / split, 0.5 / (20.0 - split)),
        counts=(1, 1),
    )
    got = kl_divergence(h, Exponential(mu=1.0)).d_kl
    _check(failures, abs(got - 0.5108256237659907) <= 1e-6, f"two-bin value {got!r}")

    d = Exponential(mu=2.0)
    edges = [0.0] + [quantile(d, p / 10) for p in range(1, 10)] + [40 * d.mu]
    widths = np.diff(edges)
    h = Histogram(
        edges=tuple(edges),
        densities=tuple(0.1 / w for w in widths),
        counts=(1000,) * 10,
    )
    self_kl = kl_divergence(h, d).d_kl
    _check(failures, self_kl <= 1e-12, f"self-KL {self_kl!r}")

    xs = sample(Exponential(mu=3.0), seed=7, n=50000)
    fit = fit_mle("exponential", xs)
    from gridparams.stats import histogram

    score = kl_divergence(histogram(xs, "fd"), fit.dist)
    _check(failures, score.d_kl < 0.05, f"large-sample KL {score.d_kl!r}")
    record_acceptance(4, "KL matches hand values; self-KL zero; sampled KL small", failures)


def test_criterion_5_decorrelation():
    failures = []
    items = generate_transformers(
        115.0, 5000, seed=20260816, profile=builtin_profile(), system_mva_base=100.0
    )
    x_own = np.array([it.x_pu_own for it in items])
    x_common = np.array([it.x_pu_common for it in items])
    mva = np.array([it.mva_rating for it in items])
    sp_own = spearman(x_own, mva)
    sp_common = spearman(x_common, mva)
    _check(failures, abs(sp_own) < 0.1, f"spearman own-base {sp_own:.4f}")
    _check(failures, sp_common < -0.3, f"spearman common-base {sp_common:.4f}")
    record_acceptance(5, "own-base X decorrelates from rating; common-base anticorrelates", failures)


def test_criterion_6_round_trip_validation():
    failures = []
    profile = builtin_profile()
    items = SyntheticTable.concat(
        generate_transformers(kv, 5000, seed=20260816 + i, profile=profile, system_mva_base=100.0)
        for i, kv in enumerate((115.0, 138.0, 230.0))
    )
    records = params_to_branch_records(items, system_mva_base=100.0)
    collected = collect_samples(records)
    observed = observed_stats(collected, profile)
    decorr = spearman_own_by_class(decorrelation_stats(collected))
    report = validate(
        observed, profile, DEFAULT_THRESHOLDS, transformer_decorrelation=decorr
    )
    _check(failures, report.overall_pass, "overall pass")
    for f in report.findings:
        if f.status == "fail":
            failures.append(f"{f.check} {f.kind.value} {f.class_kv:g}")
    non_skipped = [f for f in report.findings if f.status != "skipped"]
    _check(failures, len(non_skipped) > 0, "some checks actually ran")

    x_own = collected.values[(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0)]
    frac = band_fraction(x_own, 0.05, 0.2)
    _check(failures, abs(frac - 0.8188) <= 0.02, f"115 kV band fraction {frac:.4f}")
    record_acceptance(6, "synthetic fleet passes validation; band mass on target", failures)


def test_criterion_7_per_unit_conversion():
    failures = []
    got = rebase_impedance(0.08, BaseSpec(115.0, 50.0), BaseSpec(115.0, 100.0))
    _check(failures, abs(got - 0.16) <= 1e-12 * 0.16, "power-only rebase")
    got = rebase_impedance(0.1, BaseSpec(115.0, 100.0), BaseSpec(230.0, 100.0))
    _check(failures, abs(got - 0.025) <= 1e-12 * 0.025, "voltage-only rebase")
    _check(failures, to_own_base(1.0, 100.0, 50.0) == 0.5, "own-base example")
    _check(failures, to_own_base(0.25, 100.0, 100.0) == 0.25, "own-base identity")

    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(10000):
        a = BaseSpec(rng.uniform(1.0, 1000.0), rng.uniform(0.1, 5000.0))
        b = BaseSpec(rng.uniform(1.0, 1000.0), rng.uniform(0.1, 5000.0))
        z = rng.uniform(1e-6, 10.0)
        back = rebase_impedance(rebase_impedance(z, a, b), b, a)
        worst = max(worst, abs(back - z) / z)
    _check(failures, worst <= 1e-12, f"round-trip worst rel err {worst:.3e}")
    record_acceptance(7, "base conversions exact; 10000 round trips within 1e-12", failures)


def test_criterion_8_parser_conformance(tmp_path, capsys):
    failures = []
    header = "id,from_bus,to_bus,from_kv,to_kv,r_pu,x_pu,mva_rating,tap_ratio,system_mva_base"
    text = header + "\nt1,1,2,115,13.8,0.002,0.05,60,1.0,100\n"
    records = parse_branch_csv(text)
    round_text = serialize_branch_csv(records)
    _check(failures, list(parse_branch_csv(round_text)) == list(records), "CSV round trip identity")
    _check(failures, serialize_branch_csv(parse_branch_csv(round_text)) == round_text, "serialization fixed point")

    case = (
        "function mpc = case3\n"
        "mpc.baseMVA = 100;\n"
        "mpc.bus = [\n"
        "\t1\t3\t0\t0\t0\t0\t1\t1.0\t0\t115\t1\t1.1\t0.9;\n"
        "\t2\t1\t50\t10\t0\t0\t1\t1.0\t0\t115\t1\t1.1\t0.9;\n"
        "\t3\t1\t30\t5\t0\t0\t1\t1.0\t0\t13.8\t1\t1.1\t0.9;\n"
        "];\n"
        "mpc.branch = [\n"
        "\t1\t2\t0.01\t0.05\t0.02\t80\t80\t80\t0\t0\t1\t-30\t30;\n"
        "\t2\t3\t0.002\t0.04\t0\t60\t60\t60\t1.025\t0\t1\t-30\t30;\n"
        "];\n"
    )
    base, recs = parse_matpower_case(case)
    _check(failures, base == 100.0 and len(recs) == 2, "MATPOWER record count")
    line, xfmr = recs
    _check(
        failures,
        (line.id, line.from_bus, line.to_bus, line.from_kv, line.to_kv) == ("1-2-1", 1, 2, 115.0, 115.0)
        and (line.r_pu, line.x_pu, line.mva_rating, line.tap_ratio, line.system_mva_base)
        == (0.01, 0.05, 80.0, 0.0, 100.0),
        "MATPOWER line record",
    )
    _check(
        failures,
        (xfmr.id, xfmr.from_kv, xfmr.to_kv, xfmr.tap_ratio, xfmr.x_pu) == ("2-3-1", 115.0, 13.8, 1.025, 0.04),
        "MATPOWER transformer record",
    )

    bad_text = header + "\nt1,1,2,115,13.8,0.002,abc,60,1.0,100\n"
    try:
        parse_branch_csv(bad_text)
        failures.append("malformed CSV accepted")
    except ParseError as exc:
        _check(failures, exc.line == 2 and "line 2" in str(exc), "error names the line")

    bad = tmp_path / "bad.csv"
    bad.write_text(bad_text)
    code = run(["analyze", "--branches", str(bad)])
    err = capsys.readouterr().err
    _check(failures, code == 1, f"exit code {code}")
    _check(failures, "line 2" in err, "stderr names the line")
    record_acceptance(8, "CSV round trips; MATPOWER fixture parses; errors carry lines", failures)


def test_criterion_9_command_determinism(tmp_path, capsys):
    failures = []

    # one fixed fleet on disk; every command then runs twice against it
    rows, header = [], None
    for kv, seed in ((115, 31), (138, 32), (230, 33)):
        for tag in ("a", "b"):
            p = tmp_path / f"gen{kv}{tag}.csv"
            assert run(["generate", "--class", str(kv), "--n", "150", "--seed", str(seed), "--out", str(p)]) == 0
        if (tmp_path / f"gen{kv}a.csv").read_bytes() != (tmp_path / f"gen{kv}b.csv").read_bytes():
            failures.append(f"generate params differ at {kv}")
        b = tmp_path / f"branches{kv}.csv"
        assert (
            run(["generate", "--class", str(kv), "--n", "150", "--seed", str(seed), "--emit", "branches", "--out", str(b)])
            == 0
        )
        b2 = tmp_path / f"branches{kv}_again.csv"
        assert (
            run(["generate", "--class", str(kv), "--n", "150", "--seed", str(seed), "--emit", "branches", "--out", str(b2)])
            == 0
        )
        if b.read_bytes() != b2.read_bytes():
            failures.append(f"generate branches differ at {kv}")
        lines = b.read_text().splitlines()
        header = lines[0]
        rows.extend(lines[1:])
    fleet = tmp_path / "fleet.csv"
    fleet.write_text(header + "\n" + "\n".join(rows) + "\n")

    for cmd in ("analyze", "fit", "validate"):
        out1, out2 = tmp_path / f"{cmd}1.json", tmp_path / f"{cmd}2.json"
        code1 = run([cmd, "--branches", str(fleet), "--out", str(out1)])
        code2 = run([cmd, "--branches", str(fleet), "--out", str(out2)])
        if code1 != code2 or code1 not in (0, 2):
            failures.append(f"{cmd} exit codes {code1}/{code2}")
        if out1.read_bytes() != out2.read_bytes():
            failures.append(f"{cmd} report differs between runs")

    hist1, hist2 = tmp_path / "h1", tmp_path / "h2"
    assert run(["hist", "--branches", str(fleet), "--out", str(hist1)]) == 0
    assert run(["hist", "--branches", str(fleet), "--out", str(hist2)]) == 0
    names1 = sorted(p.name for p in hist1.iterdir())
    names2 = sorted(p.name for p in hist2.iterdir())
    if names1 != names2:
        failures.append("hist file sets differ")
    for name in names1:
        if (hist1 / name).read_bytes() != (hist2 / name).read_bytes():
            failures.append(f"hist differs: {name}")
    capsys.readouterr()
    record_acceptance(9, "generate, analyze, fit, validate, hist are byte-stable", failures)
