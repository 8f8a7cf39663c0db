"""Command-line workflows, exercised in process through run()."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridparams.cli import run
from gridparams.distributions import Normal, family_tag
from gridparams.fitting import fit_and_score, select_best
from gridparams.ingest import CSV_HEADER, RejectReason
from gridparams.profiles import (
    ParameterKind,
    ValidationThresholds,
    builtin_profile,
    lookup,
    serialize_profile_json,
)

CASE3 = """\
function mpc = case3
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1.0\t0\t115\t1\t1.1\t0.9;
\t2\t1\t50\t10\t0\t0\t1\t1.0\t0\t115\t1\t1.1\t0.9;
\t3\t1\t30\t5\t0\t0\t1\t1.0\t0\t13.8\t1\t1.1\t0.9;
];
mpc.branch = [
\t1\t2\t0.01\t0.05\t0.02\t80\t80\t80\t0\t0\t1\t-30\t30;
\t2\t3\t0.002\t0.04\t0\t60\t60\t60\t1.025\t0\t1\t-30\t30;
];
"""


def _lines_profile_json() -> str:
    """The builtin profile with fitted line capacity and X/R, which generate --kind line needs."""
    fitted = {ParameterKind.LINE_CAPACITY: Normal(180.0, 60.0), ParameterKind.LINE_XR: Normal(8.0, 3.0)}
    return serialize_profile_json(
        [dataclasses.replace(e, fitted=fitted.get(e.kind, e.fitted)) for e in builtin_profile()])


def _generate_branches(tmp_path, n=800):
    """One synthetic fleet across all three classes, as a branch CSV."""
    paths = []
    for kv, seed in ((115, 11), (138, 12), (230, 13)):
        p = tmp_path / f"fleet{kv}.csv"
        code = run(
            [
                "generate",
                "--class",
                str(kv),
                "--n",
                str(n),
                "--seed",
                str(seed),
                "--emit",
                "branches",
                "--out",
                str(p),
            ]
        )
        assert code == 0
        paths.append(p)
    header, rows = None, []
    for p in paths:
        lines = p.read_text().splitlines()
        header = lines[0]
        rows.extend(lines[1:])
    merged = tmp_path / "fleet.csv"
    merged.write_text(header + "\n" + "\n".join(rows) + "\n")
    return merged


def test_version_and_help(capsys):
    assert run(["--version"]) == 0
    assert "gridparams" in capsys.readouterr().out
    assert run(["--help"]) == 0
    assert run(["generate", "--help"]) == 0


def test_unknown_flag_is_error():
    assert run(["analyze", "--nope"]) == 1


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["generate", "--class", "115", "--n", "50", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["generate", "--class", "115", "--n", "50", "--seed", "7", "--out", str(a)]) == 0
    assert run(["generate", "--class", "115", "--n", "50", "--seed", "8", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_generate_rejects_bad_seed():
    assert run(["generate", "--class", "115", "--n", "5", "--seed", "-1"]) == 1
    assert run(["generate", "--class", "115", "--n", "0", "--seed", "1"]) == 1


@pytest.mark.parametrize("flag, text", [("--seed", "abc"), ("--seed", "1.5"), ("--n", "1.5"), ("--n", "x")])
def test_generate_rejects_non_integer_seed_or_count(flag, text):
    argv = {"--class": "115", "--n": "5", "--seed": "1", flag: text}
    code, err = _run_quietly(["generate", *(part for item in argv.items() for part in item)])
    assert code == 1
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert f"got {text!r}" in err


def test_analyze_has_no_bins_option(tmp_path):
    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    code, err = _run_quietly(["analyze", "--case", str(case), "--bins", "5"])
    assert code == 1
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert "unrecognized arguments: --bins 5" in err


@pytest.mark.parametrize("argv, reason", [
    (["fit", "--bins", "x"], "'fd' or an integer >= 2, got 'x'"),
    (["hist", "--bins", "1"], "'fd' or an integer >= 2, got '1'"),
    (["validate", "--bins", "2.5"], "'fd' or an integer >= 2, got '2.5'"),
    (["analyze", "--classes", "115,115"], "voltage classes 115.0 and 115.0 overlap"),
    (["fit", "--classes", "-5"], "must be finite and > 0, got -5.0"),
    (["analyze", "--classes", "115,abc"], "'abc'"),
])
def test_a_bad_flag_is_reported_before_any_input_is_read(tmp_path, argv, reason):
    missing = tmp_path / "missing.csv"
    code, err = _run_quietly([*argv, "--branches", str(missing), "--out", str(tmp_path / "out")])
    assert code == 1
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    assert f"error: argument {argv[1]}: " in lines[0] and reason in lines[0]
    assert "missing.csv" not in err


@pytest.mark.parametrize("command", ["fit", "validate", "hist"])
def test_fit_validate_and_hist_take_bins(tmp_path, command):
    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    code, err = _run_quietly([command, "--case", str(case), "--bins", "5", "--out", str(tmp_path / "out")])
    assert code in ((0, 2) if command == "validate" else (0,))
    assert err == ""


def test_generate_line_needs_profile_params(tmp_path, capsys):
    code = run(
        ["generate", "--class", "115", "--n", "5", "--seed", "1", "--kind", "line"]
    )
    assert code == 1
    assert "LineCapacity" in capsys.readouterr().err


def test_analyze_structure(tmp_path):
    fleet = _generate_branches(tmp_path, n=200)
    out = tmp_path / "analysis.json"
    assert run(["analyze", "--branches", str(fleet), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["classes"]) == {"115", "138", "230"}
    per_class = payload["classes"]["115"]
    assert per_class["TransformerMvaRating"]["n"] == 200
    assert per_class["LineCapacity"] == "no data"
    assert payload["filter"]["kept"] == 600
    assert payload["filter"]["unclassified"] == 0
    assert "decorrelation" in per_class
    assert "autotransformer_suspects" in per_class
    assert payload["meta"]["inputs"]


def test_analyze_matpower(tmp_path):
    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    out = tmp_path / "analysis.json"
    assert run(["analyze", "--case", str(case), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    per_class = payload["classes"]["115"]
    assert per_class["TransformerMvaRating"]["n"] == 1
    assert per_class["LineReactanceCommonBase"]["n"] == 1


def test_analyze_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "id,from_bus,to_bus,from_kv,to_kv,r_pu,x_pu,mva_rating,tap_ratio,system_mva_base\n"
        "t1,1,2,115,13.8,0.002,abc,60,1.0,100\n"
    )
    assert run(["analyze", "--branches", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "x_pu" in err


def _gridparams(*argv, cwd=None, env=None):
    """The CLI in a fresh interpreter, so that its stderr is what a user sees."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


def test_cli_import_skips_scipy_stats_and_optimize():
    # No scipy module at all, stats and optimize included.
    proc = _gridparams(
        "-c",
        "import sys, gridparams.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_analyze_and_hist_load_no_scipy(tmp_path):
    # Neither command evaluates a distribution, so neither pays for scipy.
    fleet = _generate_branches(tmp_path, n=150)
    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    argvs = [
        ["analyze", "--branches", str(fleet), "--out", str(tmp_path / "a.json")],
        ["analyze", "--case", str(case), "--out", str(tmp_path / "b.json")],
        ["hist", "--branches", str(fleet), "--out", str(tmp_path / "hists")],
    ]
    proc = _gridparams(
        "-c",
        "import sys; from gridparams.cli import run; "
        f"codes = [run(argv) for argv in {argvs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("[0, 0, 0] []")


def test_generate_loads_no_scipy(tmp_path):
    # The t and normal quantiles that generate samples through are the package's own.
    profile = tmp_path / "lines.json"
    profile.write_text(_lines_profile_json())
    argvs = [["generate", "--class", "115", "--n", "500", "--seed", "1", "--kind", kind, "--emit", emit,
              "--profile", str(profile), "--out", str(tmp_path / f"{kind}-{emit}.csv")]
             for kind in ("transformer", "line") for emit in ("params", "branches")]
    proc = _gridparams(
        "-c",
        "import sys; from gridparams.cli import run; "
        f"codes = [run(argv) for argv in {argvs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("[0, 0, 0, 0] []")


def _as_matpower_case(fleet, path):
    """The branch CSV as a MATPOWER case, two buses of its own per branch."""
    rows = [line.split(",") for line in fleet.read_text().splitlines()[1:]]
    bus = "\t{}\t1\t0\t0\t0\t0\t1\t1.0\t0\t{}\t1\t1.1\t0.9;\n"
    buses = "".join(bus.format(2 * i + 1, r[3]) + bus.format(2 * i + 2, r[4]) for i, r in enumerate(rows))
    branches = "".join(
        f"\t{2 * i + 1}\t{2 * i + 2}\t{r[5]}\t{r[6]}\t0\t{r[7]}\t{r[7]}\t{r[7]}\t{r[8]}\t0\t1\t-30\t30;\n"
        for i, r in enumerate(rows)
    )
    path.write_text(f"function mpc = fleet\nmpc.baseMVA = 100;\nmpc.bus = [\n{buses}];\n"
                    f"mpc.branch = [\n{branches}];\n")
    return path


def test_fit_and_validate_load_no_scipy(tmp_path):
    # The t and GEV fits run the package's own BFGS, and the t constant, score and
    # cdf and the normal cdf are the package's own.
    fleet = _generate_branches(tmp_path, n=150)
    fleet_case = _as_matpower_case(fleet, tmp_path / "fleet.m")
    case3 = tmp_path / "case3.m"
    case3.write_text(CASE3)
    argvs = []
    for i, source in enumerate([["--branches", str(fleet)], ["--case", str(fleet_case)], ["--case", str(case3)]]):
        argvs += [["fit", *source, "--out", str(tmp_path / f"fit{i}.json")],
                  ["validate", *source, "--out", str(tmp_path / f"validate{i}.json")]]
    proc = _gridparams(
        "-c",
        "import sys; from gridparams.cli import run; "
        f"codes = [run(argv) for argv in {argvs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    # The three-branch case fails its checks (exit 2), but it still ran them.
    assert proc.stdout.strip().endswith("[0, 0, 0, 0, 0, 2] []")
    for i in range(2):  # the fleet in both formats: t and GEV fits for 3 kinds in 3 classes
        fits = json.loads((tmp_path / f"fit{i}.json").read_text())["fits"]
        scored = [f for by_kind in fits.values() for cell in by_kind.values() if isinstance(cell, dict)
                  for f in cell["fits"] if f["family"] in ("tls", "gev")]
        assert len(scored) == 18 and all(f["converged"] for f in scored)


# The X/R values of three 115 kV transformers, as the CI workflow writes them.
_XR3 = ",".join(CSV_HEADER) + "\n" + "".join(
    f"t{i + 1},{2 * i + 1},{2 * i + 2},115,13.8,1,{x},100,1,100\n"
    for i, x in enumerate([13.877815272949906, 13.931529322237637, 10.874929036291789]))


def test_fit_of_three_transformers_loads_no_scipy(tmp_path):
    # The X/R values of three 115 kV transformers: the GEV search heads below
    # zeta = -1, stops short of a stationary point, and reports the fit not converged.
    xr3 = tmp_path / "xr3.csv"
    xr3.write_text(_XR3)
    argv = ["fit", "--branches", str(xr3), "--out", str(tmp_path / "xr3.json")]
    proc = _gridparams(
        "-c",
        "import sys; from gridparams.cli import run; "
        f"code = run({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("0 []")
    cell = json.loads((tmp_path / "xr3.json").read_text())["fits"]["115"]["TransformerXr"]
    gev = next(f for f in cell["fits"] if f["family"] == "gev")
    assert not gev["converged"] and gev["message"].startswith("search ended at max |score|")
    assert cell["best_family"] == "normal"


def test_validate_zero_reference_median_is_an_input_error(tmp_path):
    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    profile = tmp_path / "profile.json"
    profile.write_text(
        json.dumps([{"kind": "TransformerXr", "class_kv": 115.0, "summary": {"median": 0}}])
    )
    proc = _gridparams(
        "-m", "gridparams", "validate", "--case", str(case), "--profile", str(profile)
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "reference median must be > 0" in proc.stderr


def test_arithmetic_errors_exit_1(monkeypatch, capsys):
    import gridparams.cli as cli

    def divide(args, inputs):
        return 1 / 0

    monkeypatch.setattr(cli, "_collect", divide)
    assert run(["analyze", "--branches", "unused.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--branches", "--case"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"id,from_bus\n\xff\n" if flag == "--branches" else b"\xffmpc\n")
    proc = _gridparams("-m", "gridparams", "analyze", flag, str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    line = 2 if flag == "--branches" else 1
    assert proc.stderr == f"error: line {line}: byte 0xff is not valid UTF-8\n"


@pytest.mark.parametrize("command", ["generate", "validate"])
def test_profile_or_thresholds_that_are_not_utf8_are_an_input_error(tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"[\n\xff]\n")
    if command == "generate":
        argv = ["generate", "--class", "115", "--n", "10", "--seed", "1", "--profile", str(bad)]
    else:
        case = tmp_path / "case3.m"
        case.write_text(CASE3)
        argv = ["validate", "--case", str(case), "--thresholds", str(bad)]
    proc = _gridparams("-m", "gridparams", *argv)
    assert proc.returncode == 1
    assert proc.stderr == "error: line 2: byte 0xff is not valid UTF-8\n"


def test_each_input_file_is_read_once_and_its_bytes_are_hashed(tmp_path, monkeypatch):
    import hashlib

    import gridparams.cli as cli

    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    profile = tmp_path / "profile.json"
    profile.write_text("[]")
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text("{}")
    reads = []
    read_bytes = cli.Path.read_bytes

    def counted(path):
        reads.append(str(path))
        return read_bytes(path)

    monkeypatch.setattr(cli.Path, "read_bytes", counted)
    argv = ["validate", "--case", str(case), "--profile", str(profile), "--thresholds", str(thresholds)]
    out = tmp_path / "report.json"
    assert run([*argv, "--out", str(out)]) in (0, 2)
    assert sorted(reads) == sorted(map(str, (case, profile, thresholds)))
    digests = json.loads(out.read_text())["meta"]["inputs"]
    for path in (case, profile, thresholds):
        assert digests[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_analyze_missing_file(capsys):
    assert run(["analyze", "--branches", "/nonexistent/x.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_green_fleet(tmp_path):
    fleet = _generate_branches(tmp_path)
    out = tmp_path / "report.json"
    assert run(["validate", "--branches", str(fleet), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["overall_pass"] is True
    statuses = {f["status"] for f in payload["findings"]}
    assert "fail" not in statuses


def test_validate_report_is_deterministic(tmp_path):
    fleet = _generate_branches(tmp_path, n=150)
    a, b = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["validate", "--branches", str(fleet), "--out", str(a)]) == 0
    assert run(["validate", "--branches", str(fleet), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_validate_flags_distorted_case(tmp_path):
    fleet = _generate_branches(tmp_path, n=300)
    text = fleet.read_text().splitlines()
    header = text[0].split(",")
    xi = header.index("x_pu")
    rows = [text[0]]
    for line in text[1:]:
        cells = line.split(",")
        cells[xi] = repr(float(cells[xi]) * 5.0)
        rows.append(",".join(cells))
    distorted = fleet.with_name("distorted.csv")
    distorted.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report.json"
    assert run(["validate", "--branches", str(distorted), "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["overall_pass"] is False
    assert any(f["status"] == "fail" for f in payload["findings"])


def test_validate_threshold_override(tmp_path):
    fleet = _generate_branches(tmp_path, n=300)
    overrides = tmp_path / "strict.json"
    overrides.write_text(json.dumps({"median_rel": 1e-9}))
    code = run(
        ["validate", "--branches", str(fleet), "--thresholds", str(overrides)]
    )
    assert code == 2
    overrides.write_text(json.dumps({"bogus_key": 1.0}))
    assert (
        run(["validate", "--branches", str(fleet), "--thresholds", str(overrides)])
        == 1
    )


def test_fit_reports_best_family(tmp_path):
    fleet = _generate_branches(tmp_path, n=600)
    out = tmp_path / "fits.json"
    assert run(["fit", "--branches", str(fleet), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    section = payload["fits"]["115"]["TransformerMvaRating"]
    assert section["best_family"] == "gev"
    families = [f["family"] for f in section["fits"]]
    assert families == ["tls", "gev", "exponential", "normal"]


def test_hist_writes_per_parameter_files(tmp_path, capsys):
    fleet = _generate_branches(tmp_path, n=150)
    outdir = tmp_path / "hists"
    assert run(["hist", "--branches", str(fleet), "--out", str(outdir)]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert len(names) == 9
    assert "TransformerMvaRating_115.csv" in names
    text = (outdir / "TransformerMvaRating_115.csv").read_text()
    assert text.startswith("bin_lo,bin_hi,count,density")
    listed = capsys.readouterr().out
    assert "TransformerMvaRating_115.csv" in listed


def test_stdout_output_matches_file(tmp_path, capsys):
    fleet = _generate_branches(tmp_path, n=100)
    assert run(["analyze", "--branches", str(fleet)]) == 0
    stdout_payload = capsys.readouterr().out
    out = tmp_path / "a.json"
    assert run(["analyze", "--branches", str(fleet), "--out", str(out)]) == 0
    assert stdout_payload == out.read_text()


def test_memory_error_is_an_input_error(monkeypatch, capsys):
    import gridparams.cli as cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(cli, "generate_transformers", out_of_memory)
    assert run(["generate", "--class", "115", "--n", "100000000000", "--seed", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: Unable to allocate 745. GiB for an array with shape (100000000000,)\n"
    )


def test_classes_match_profile_entries_within_the_class_tolerance(tmp_path):
    fleet = _generate_branches(tmp_path, n=150)
    findings = []
    for classes in ("115,138,230", "115.0000000001,138,230", "230,138,115"):
        out = tmp_path / "report.json"
        assert run(["validate", "--branches", str(fleet), "--classes", classes, "--out", str(out)]) == 0
        findings.append(json.loads(out.read_text())["findings"])
    assert findings[0] == findings[1] == findings[2]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_BUILTIN = json.loads(serialize_profile_json(builtin_profile()))


@st.composite
def _profiles(draw):
    """Any JSON value, or the builtin profile with one value replaced by one."""
    if draw(st.booleans()):
        return draw(_json_values)
    profile = json.loads(json.dumps(_BUILTIN))
    entry = draw(st.sampled_from(profile))
    key = draw(st.sampled_from(["kind", "class_kv", "summary", "band", "fitted", "reference_d_kl", "x"]))
    if isinstance(entry.get(key), dict) and draw(st.booleans()):
        inner = entry[key]
        if "params" in inner and draw(st.booleans()):
            inner = inner["params"]
        inner[draw(st.sampled_from([*inner, "hi", "params", "x"]))] = draw(_json_values)
    else:
        entry[key] = draw(_json_values)
    return profile


_thresholds = _json_values | st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(ValidationThresholds)] + ["x"]),
    _json_values | st.floats(0.0, 10.0),
    max_size=3,
)


def _run_quietly(argv):
    """run(argv): (exit code, stderr); stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_profiles(), st.sampled_from(["analyze", "validate", "generate"]), _thresholds | st.none())
@example([1], "validate", None)
@example([{"kind": "TransformerXr", "class_kv": 115, "band": {"lo": 1, "fraction": 0.5}}], "validate", None)
@example([{"kind": "TransformerXr", "class_kv": 115, "fitted": 3}], "validate", None)
@example([{"kind": "TransformerXr", "class_kv": 115, "summary": {"median": None}}], "validate", None)
@example(_BUILTIN, "validate", {"median_rel": None})
def test_any_profile_or_thresholds_json_exits_0_1_or_2_without_a_traceback(profile, command, thresholds):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "case3.m").write_text(CASE3)
        (tmp / "profile.json").write_text(json.dumps(profile))
        if command == "generate":
            argv = ["generate", "--class", "115", "--n", "5", "--seed", "1"]
        else:
            argv = [command, "--case", str(tmp / "case3.m")]
        argv += ["--profile", str(tmp / "profile.json")]
        if command == "validate" and thresholds is not None:
            (tmp / "thresholds.json").write_text(json.dumps(thresholds))
            argv += ["--thresholds", str(tmp / "thresholds.json")]
        code, err = _run_quietly(argv)
    assert code in ((0, 1) if command != "validate" else (0, 1, 2))
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


# ------------------------------------------------------------ report cells


def _json_report(tmp_path, argv):
    out = tmp_path / "report.json"
    code = run([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_fit_reports_unfittable_and_no_data_cells(tmp_path):
    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    code, payload = _json_report(tmp_path, ["fit", "--case", str(case), "--classes", "115,138"])
    assert code == 0
    # case3 has one transformer at 115 kV: a constant sample no family fits.
    cell = payload["fits"]["115"]["TransformerMvaRating"]
    assert cell.startswith("unfittable: ") and "all values identical" in cell
    assert payload["fits"]["138"] == {kind.value: "no data" for kind in ParameterKind}


def test_fit_reports_a_sample_no_family_admits(tmp_path):
    # At a system base of 1e308 the own-base reactances are 0 and 5e-324: their
    # mean and standard deviation round to 0, so every family's fit raises.
    branches = tmp_path / "tiny.csv"
    branches.write_text(",".join(CSV_HEADER) + "\n"
                        "t1,1,2,115,13.8,1e-30,1e-20,1,1,1e308\n"
                        "t2,3,4,115,13.8,1e-30,3e-16,1.6,1,1e308\n")
    code, payload = _json_report(tmp_path, ["fit", "--branches", str(branches)])
    assert code == 0
    cell = payload["fits"]["115"]["TransformerReactanceOwnBase"]
    assert cell == "unfittable: no family admits this sample"


@pytest.mark.parametrize("first, message", [
    ("l1,1,2,115,115,1e-300,1e10,100,0,100", "error: branch 'l1': X/R is not finite (inf)\n"),
    ("t1,1,2,115,13.8,0.002,0.05,60,1,1e-307", "error: branch 't1': own-base reactance is not finite (inf)\n"),
])
@pytest.mark.parametrize("command", ["analyze", "fit", "validate", "hist"])
def test_a_row_past_float_range_fails_every_ingest_command(tmp_path, command, first, message):
    # Every field is finite and positive, so the row passes the filter.
    branches = tmp_path / "big.csv"
    branches.write_text(",".join(CSV_HEADER) + f"\n{first}\n"
                        "l2,3,4,115,115,0.002,0.01,100,0,100\nl3,5,6,115,115,0.003,0.02,120,0,100\n")
    out = tmp_path / "out"
    code, err = _run_quietly([command, "--branches", str(branches), "--out", str(out)])
    assert (code, err) == (1, message)
    assert not out.exists()


def test_validate_rejects_unknown_fitted_fields(tmp_path):
    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps([{"kind": "TransformerXr", "class_kv": 115,
                                    "fitted": {"family": "gev", "parms": {"mu": 1, "sigma": 1, "zeta": 0}}}]))
    code, err = _run_quietly(["validate", "--case", str(case), "--profile", str(profile)])
    assert code == 1
    assert err == "error: unknown fitted fields: ['parms']\n"


@pytest.mark.parametrize("flag, text, message", [
    ("--thresholds", '{"kl_max_nats": true}', "threshold kl_max_nats: expected a number, got True"),
    ("--thresholds", '{"kl_max_nats": "0.5"}', "threshold kl_max_nats: expected a number, got '0.5'"),
    ("--profile", '[{"kind": "TransformerXr", "class_kv": "115", "family": "gev"}]',
     "class_kv: expected a number, got '115'"),
], ids=["threshold-true", "threshold-string", "class_kv-string"])
def test_a_json_value_that_is_not_a_json_number_is_an_input_error(tmp_path, flag, text, message):
    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    path = tmp_path / "input.json"
    path.write_text(text)
    code, err = _run_quietly(["validate", "--case", str(case), flag, str(path)])
    assert (code, err) == (1, f"error: {message}\n")


def test_validate_skips_the_family_check_of_a_constant_sample(tmp_path):
    # Twelve 115 kV lines, all rated 100 MVA: the capacity sample is constant.
    branches = tmp_path / "lines.csv"
    branches.write_text(",".join(CSV_HEADER) + "\n" + "".join(
        f"l{i},{2 * i + 1},{2 * i + 2},115,115,{0.001 * (i + 1)},{0.01 * (i + 2)},100,0,100\n"
        for i in range(12)
    ))
    code, payload = _json_report(tmp_path, ["validate", "--branches", str(branches)])
    assert code in (0, 2)
    [finding] = [f for f in payload["findings"]
                 if f["kind"] == "LineCapacity" and f["check"] == "FamilyCheck"]
    assert finding["status"] == "skipped"


def test_validate_bins_sets_the_bins_of_the_family_check(tmp_path):
    # 200 lines at 115 kV rated 100..299 MVA: the capacity sample has a FamilyCheck.
    branches = tmp_path / "lines.csv"
    branches.write_text(",".join(CSV_HEADER) + "\n" + "".join(
        f"l{i},{2 * i + 1},{2 * i + 2},115,115,{0.001 * (i % 7 + 1)},{0.01 * (i % 5 + 2)},{100 + i},0,100\n"
        for i in range(200)
    ))
    excess = {}
    for bins in ("fd", "5"):
        code, payload = _json_report(tmp_path, ["validate", "--branches", str(branches), "--bins", bins])
        assert code in (0, 2)
        [finding] = [f for f in payload["findings"]
                     if f["kind"] == "LineCapacity" and f["check"] == "FamilyCheck"]
        excess[bins] = finding["observed"]
    # The excess on the 5-bin histogram that KlCheck would use, computed directly.
    entry = lookup(builtin_profile(), ParameterKind.LINE_CAPACITY, 115.0)
    scored = fit_and_score(np.arange(100.0, 300.0), bins=5)
    declared = next(s.d_kl for f, s in scored if family_tag(f.dist) == entry.family)
    assert excess["5"] == declared - select_best(scored)[1].d_kl
    assert excess["5"] != excess["fd"]


def test_fit_prints_no_warning_on_three_transformers(tmp_path):
    # The GEV search on these three X/R values runs toward the unbounded likelihood below zeta = -1.
    branches = tmp_path / "xr3.csv"
    branches.write_text(_XR3)
    proc = _gridparams("-W", "error", "-m", "gridparams", "fit", "--branches", str(branches),
                       "--out", str(tmp_path / "fit.json"))
    assert proc.returncode == 0 and proc.stderr == ""


def _extreme_csv(rows) -> str:
    return ",".join(CSV_HEADER) + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def _five_transformers(scale):
    return _extreme_csv(
        (f"t{i}", 2 * i + 1, 2 * i + 2, 115, 13.8, x * scale / 20, x * scale, mva, 1, 100)
        for i, (x, mva) in enumerate(zip((3, 5, 4, 7, 6), (50, 120, 80, 200, 150)))
    )


# Samples whose moments overflow or underflow unless the sample is rescaled first.
_EXTREME = {
    "big": _five_transformers(1e200),
    "small": _five_transformers(1e-170),
    "lines": _extreme_csv(
        (f"l{i}", 2 * i + 1, 2 * i + 2, 138, 138, 1e306 * (1 + i / 30), 1e307 * (1 + i / 30), 100 + 5 * i, 0, 100)
        for i in range(30)
    ),
}


@pytest.mark.parametrize("name", sorted(_EXTREME))
def test_extreme_samples_give_finite_reports_without_a_warning(tmp_path, capsys, name):
    branches = tmp_path / f"{name}.csv"
    branches.write_text(_EXTREME[name])

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a report")

    reports = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("analyze", "fit", "validate"):
            out = tmp_path / f"{command}.json"
            code = run([command, "--branches", str(branches), "--out", str(out)])
            assert code in ((0, 2) if command == "validate" else (0,))
            reports[command] = json.loads(out.read_text(), parse_constant=reject)
        assert run(["hist", "--branches", str(branches), "--out", str(tmp_path / "hist")]) == 0
    assert capsys.readouterr().err == ""
    classes = reports["analyze"]["classes"]
    if name == "lines":
        mean = classes["138"]["LineReactanceCommonBase"]["mean"]
        assert mean == pytest.approx(1e307 * (1 + 14.5 / 30), rel=1e-12)
    else:  # the true values, the same for both scales
        d = classes["115"]["decorrelation"]
        assert d["pearson_own"] == pytest.approx(0.9931211200964818, abs=1e-12)
        assert d["pearson_common"] == pytest.approx(0.9960065188076062, abs=1e-12)


def test_analyze_of_rows_rejected_for_non_finite_kvs_or_zero_r_prints_nothing(tmp_path, capsys):
    branches = tmp_path / "rejected.csv"
    branches.write_text(_extreme_csv([
        ("ok", 1, 2, 115, 13.8, 0.002, 0.04, 60, 1.0, 100),
        ("inf", 3, 4, "inf", "inf", 0.002, 0.04, 60, 1.0, 100),
        ("nan", 5, 6, "nan", 13.8, 0.002, 0.04, 60, 0.0, 100),
        ("neg", 7, 8, 115, "-inf", 0.002, 0.04, 60, 0.0, 100),
        ("r0", 9, 10, 115, 115, 0.0, 0.04, 60, 0.0, 100),
        ("r0x0", 11, 12, 115, 13.8, 0.0, 0.0, 60, 1.0, 100),
    ]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = _json_report(tmp_path, ["analyze", "--branches", str(branches)])
    assert code == 0 and capsys.readouterr() == ("", "")
    assert payload["filter"]["rejected"] == {"NonFinite": 3, "NonPositiveR": 2}


def test_analyze_counts_rejections_by_reason_name(tmp_path):
    branches = tmp_path / "planted.csv"
    branches.write_text(
        ",".join(CSV_HEADER) + "\n"
        "ok,1,2,115,13.8,0.002,0.04,60,1.0,100\n"
        "r0,1,2,115,13.8,0,0.04,60,1.0,100\n"
        "r1,1,2,115,13.8,-0.001,0.04,60,1.0,100\n"
        "x,1,2,115,13.8,0.002,-0.01,60,1.0,100\n"
        "zero,1,2,115,13.8,0.002,0.04,0,1.0,100\n"
        "big,1,2,115,13.8,0.002,0.04,5000,1.0,100\n"
        "nan,1,2,115,13.8,0.002,0.04,60,nan,100\n"
    )
    code, payload = _json_report(tmp_path, ["analyze", "--branches", str(branches)])
    assert code == 0
    assert payload["filter"] == {
        "kept": 1,
        "rejected": {"NonPositiveR": 2, "NonPositiveX": 1, "ZeroRating": 1, "ExtremeRating": 1, "NonFinite": 1},
        "unclassified": 0,
    }
    assert set(payload["filter"]["rejected"]) == {reason.value for reason in RejectReason}


_ANALYZE_GOLDEN = Path(__file__).parent / "data" / "analyze_golden.json"


def _planted_fleet() -> str:
    """A branch CSV with classified transformers and lines, autotransformer
    suspects, unclassified rows, and rows for every RejectReason, some of
    which break several rules."""
    rows = [f"t{i},{i},{100 + i},115,13.8,0.002,{0.03 + 0.004 * i!r},{40 + 15 * i},1.0,100" for i in range(12)]
    rows += [f"h{i},{20 + i},{120 + i},230,115,0.001,{0.02 + 0.01 * i!r},{200 + 50 * i},0,100" for i in range(5)]
    rows += [f"l{i},{40 + i},{60 + i},138,138,0.001,{0.008 + 0.0015 * i!r},{150 + 20 * i},0,100" for i in range(8)]
    rows += [
        "auto115,1,2,115,13.8,0.01,0.03,90,1.0,100",  # X/R 3: suspect
        "auto230,3,4,230,138,0.02,0.05,300,1.0,100",  # X/R 2.5: suspect
        "l345,5,6,345,345,0.001,0.01,400,0,100",  # no class
        "t69,7,8,69,13.8,0.002,0.05,30,1.0,100",  # no class
        "r0,1,2,115,13.8,0,0.04,60,1.0,100",
        "rneg,1,2,115,13.8,-0.001,0.04,60,1.0,100",
        "x0,1,2,115,13.8,0.002,0,60,1.0,100",
        "xneg,1,2,115,13.8,0.002,-0.02,60,1.0,100",
        "zero,1,2,115,13.8,0.002,0.04,0,1.0,100",
        "small,1,2,115,13.8,0.002,0.04,0.5,1.0,100",
        "big,1,2,115,13.8,0.002,0.04,5000,1.0,100",
        "infmva,1,2,115,13.8,0.002,0.04,inf,1.0,100",
        "nanmva,1,2,115,13.8,0.002,0.04,nan,1.0,100",
        "nantap,1,2,115,13.8,0.002,0.04,60,nan,100",
        "infbase,1,2,115,13.8,0.002,0.04,60,1.0,inf",
        "all,1,2,nan,13.8,-1,-1,0,1.0,100",  # every rule but the rating bounds
        "xbig,1,2,115,13.8,0.002,-0.01,5000,1.0,100",
        "zeronan,1,2,115,13.8,0.002,0.04,0,nan,100",
    ]
    return ",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n"


def test_analyze_report_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # Relative paths: the report's meta block names each input by its path.
    monkeypatch.chdir(tmp_path)
    Path("planted.csv").write_text(_planted_fleet())
    Path("case3.m").write_text(CASE3)
    reports = {}
    for name, flag in (("planted.csv", "--branches"), ("case3.m", "--case")):
        assert run(["analyze", flag, name]) == 0
        reports[name] = capsys.readouterr().out
    planted = json.loads(reports["planted.csv"])
    assert set(planted["filter"]["rejected"]) == {reason.value for reason in RejectReason}
    assert planted["filter"]["unclassified"] == 2
    assert [planted["classes"][kv]["autotransformer_suspects"] for kv in ("115", "230")] == [1, 1]
    assert reports == json.loads(_ANALYZE_GOLDEN.read_text(encoding="utf-8"))


def test_analyze_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # BLAS splits a long dot product across its threads, which moves the last
    # bits of a correlation; the report must read the same with one or two.
    fleet = tmp_path / "fleet.csv"
    assert run(["generate", "--class", "115", "--n", "30000", "--seed", "3", "--emit", "branches",
                "--out", str(fleet)]) == 0
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"analyze-{threads}.json"
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = _gridparams("-m", "gridparams", "analyze", "--branches", str(fleet), "--out", str(out), env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


_FIT_GOLDEN = Path(__file__).parent / "data" / "fit_golden.json"


def test_fit_report_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # The planted fleet's classes hold 13, 8 and 6 transformers; on xr3.csv the
    # GEV search stops short below zeta = -1.
    monkeypatch.chdir(tmp_path)
    Path("planted.csv").write_text(_planted_fleet())
    Path("xr3.csv").write_text(_XR3)
    reports = {}
    for name in ("planted.csv", "xr3.csv"):
        assert run(["fit", "--branches", name]) == 0
        reports[name] = capsys.readouterr().out
    assert reports == json.loads(_FIT_GOLDEN.read_text(encoding="utf-8"))


_GENERATE_HIST_GOLDEN = Path(__file__).parent / "data" / "generate_hist_golden.json"


def _generate_and_hist_outputs(capsys) -> dict:
    """The text that generate and hist write in the working directory, by
    file name, and hist's stdout: both kinds with both --emit forms, and the
    planted fleet's histograms with Freedman-Diaconis and fixed-count bins."""
    Path("lines.json").write_text(_lines_profile_json())
    Path("planted.csv").write_text(_planted_fleet())
    outputs = {}
    for kind in ("transformer", "line"):
        for emit in ("params", "branches"):
            name = f"{kind}-{emit}.csv"
            argv = ["generate", "--class", "138", "--n", "25", "--seed", "7", "--kind", kind,
                    "--emit", emit, "--profile", "lines.json", "--out", name]
            assert run(argv) == 0
            outputs[name] = Path(name).read_text(encoding="utf-8")
    for bins in ("fd", "7"):
        out_dir = f"hist-{bins}"
        assert run(["hist", "--branches", "planted.csv", "--bins", bins, "--out", out_dir]) == 0
        outputs[f"{out_dir} stdout"] = capsys.readouterr().out
        for path in sorted(Path(out_dir).iterdir()):
            outputs[f"{out_dir}/{path.name}"] = path.read_text(encoding="utf-8")
    return outputs


def test_generate_and_hist_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = _generate_and_hist_outputs(capsys)
    assert len([name for name in outputs if name.startswith("hist-fd/")]) == 9
    assert outputs == json.loads(_GENERATE_HIST_GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["analyze", "fit", "validate"])
def test_every_json_report_carries_the_same_meta_block(tmp_path, command):
    import hashlib

    from gridparams import __version__

    case = tmp_path / "case3.m"
    case.write_text(CASE3)
    code, payload = _json_report(tmp_path, [command, "--case", str(case)])
    assert code in ((0, 2) if command == "validate" else (0,))
    digest = hashlib.sha256(case.read_bytes()).hexdigest()
    thresholds = dataclasses.asdict(ValidationThresholds()) if command == "validate" else None
    assert payload["meta"] == {
        "version": __version__,
        "inputs": {str(case): digest},
        "seed": None,
        "thresholds": thresholds,
    }


@pytest.mark.parametrize("lv_kv", ["-inf", "0", "-5"])
def test_generate_branches_rejects_a_non_positive_low_side(lv_kv):
    argv = ["generate", "--class", "115", "--n", "5", "--seed", "1", "--emit", "branches", f"--lv-kv={lv_kv}"]
    code, err = _run_quietly(argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "lv_kv" in err, err


@pytest.mark.parametrize("kind", ["transformer", "line"])
def test_generate_branches_rejects_an_infinite_base(tmp_path, kind):
    profile = tmp_path / "lines.json"
    profile.write_text(_lines_profile_json())
    out = tmp_path / "fleet.csv"
    code, err = _run_quietly(["generate", "--class", "115", "--n", "5", "--seed", "1", "--kind", kind,
                              "--emit", "branches", "--base", "inf", "--profile", str(profile), "--out", str(out)])
    assert (code, err) == (1, "error: system_mva_base must be finite and > 0, got inf\n")
    assert not out.exists()


def test_generate_accepts_a_huge_nu():
    code, err = _run_quietly(["generate", "--class", "115", "--n", "5", "--seed", "1", "--nu", "1e308"])
    assert (code, err) == (0, "")


def test_fit_and_validate_reports_are_identical_across_fresh_interpreters(tmp_path):
    # Two interpreters with different hash seeds: no report may depend on
    # set or dict order, or on anything else that differs between processes.
    fleet = _generate_branches(tmp_path, n=300)
    for command in ("fit", "validate"):
        reports = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"{command}-{hash_seed}.json"
            proc = _gridparams("-m", "gridparams", command, "--branches", str(fleet), "--out", str(out),
                               env={"PYTHONHASHSEED": hash_seed})
            assert proc.returncode in (0, 2) and proc.stderr == "", proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], command


# ------------------------------------------------------------ argv property


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """case3, a small three-class fleet and a profile with fitted line
    parameters, shared by the argv property."""
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "case3.m").write_text(CASE3)
    (tmp / "lines.json").write_text(_lines_profile_json())
    inputs = {"--case": str(tmp / "case3.m"), "--branches": str(_generate_branches(tmp, n=20))}
    return inputs, tmp


def _bin_count_at_most_10k(text: str) -> bool:
    try:
        return int(text) <= 10**4
    except ValueError:
        return True


_numbers = st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.integers(-10**6, 10**6).map(str)
_any_value = st.text(max_size=12) | _numbers
_classes = _any_value | st.lists(_numbers, min_size=1, max_size=4).map(",".join)
_bins = st.sampled_from(["fd", "2", "7", "10000"]) | _any_value.filter(_bin_count_at_most_10k)
_positive = st.sampled_from(["100", "4.5", "13.8"]) | _any_value


@st.composite
def _argvs(draw, inputs: dict, out_dir: Path):
    command = draw(st.sampled_from(["analyze", "fit", "validate", "hist", "generate"]))
    optional = []
    if command == "generate":
        argv = [command, f"--class={draw(st.sampled_from(['115', '138', '230']) | _numbers)}",
                f"--n={draw(st.integers(-1, 50))}", f"--seed={draw(st.integers(-1, 2**64))}"]
        optional = [f"--kind={draw(st.sampled_from(['transformer', 'line']))}",
                    f"--emit={draw(st.sampled_from(['params', 'branches']))}",
                    f"--base={draw(_positive)}", f"--nu={draw(_positive)}", f"--lv-kv={draw(_positive)}",
                    f"--profile={out_dir / 'lines.json'}"]
    else:
        flag = draw(st.sampled_from(sorted(inputs)))
        argv = [command, flag, inputs[flag]]
        optional = [f"--classes={draw(_classes)}"]
        if command != "analyze":  # analyze reports no histogram and takes no --bins
            optional.append(f"--bins={draw(_bins)}")
        if command == "hist":
            argv.append(f"--out={out_dir / 'hist'}")
    return argv + [opt for opt in optional if draw(st.booleans())]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_1_or_2_with_one_error_line(argv_inputs, data):
    inputs, tmp = argv_inputs
    argv = data.draw(_argvs(inputs, tmp))
    code, err = _run_quietly(argv)
    assert code in ((0, 1, 2) if argv[0] == "validate" else (0, 1))
    assert "Traceback" not in err
    if code == 1:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
