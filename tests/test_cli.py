"""Command-line workflows, exercised in process through run()."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gridparams.cli import run
from gridparams.distributions import Normal
from gridparams.ingest import CSV_HEADER, RejectReason
from gridparams.profiles import ParameterKind, ValidationThresholds, builtin_profile, serialize_profile_json

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


def test_fit_and_validate_load_no_scipy_optimize(tmp_path):
    # The t and GEV fits run the package's own BFGS; scipy.optimize is imported
    # only by the Nelder-Mead fallback, which none of these fits needs.
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
        "print(codes, 'scipy.special' in sys.modules, 'scipy.optimize' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    # The three-branch case fails its checks (exit 2), but it still ran them.
    assert proc.stdout.strip().endswith("[0, 0, 0, 0, 0, 2] True False")
    for i in range(2):  # the fleet in both formats: t and GEV fits for 3 kinds in 3 classes
        fits = json.loads((tmp_path / f"fit{i}.json").read_text())["fits"]
        scored = [f for by_kind in fits.values() for cell in by_kind.values() if isinstance(cell, dict)
                  for f in cell["fits"] if f["family"] in ("tls", "gev")]
        assert len(scored) == 18 and all(f["converged"] for f in scored)


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

    def divide(args):
        return 1 / 0

    monkeypatch.setitem(cli._COMMANDS, "analyze", divide)
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
    for classes in ("115,138,230", "115.0000000001,138,230"):
        out = tmp_path / "report.json"
        assert run(["validate", "--branches", str(fleet), "--classes", classes, "--out", str(out)]) == 0
        findings.append(json.loads(out.read_text())["findings"])
    assert findings[0] == findings[1]


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


def test_fit_prints_no_warning_on_three_transformers(tmp_path):
    # The GEV search on these three X/R values meets a non-finite score.
    branches = tmp_path / "xr3.csv"
    branches.write_text(",".join(CSV_HEADER) + "\n" + "".join(
        f"t{i},{2 * i + 1},{2 * i + 2},115,13.8,1,{xr},100,1,100\n"
        for i, xr in enumerate([13.877815272949906, 13.931529322237637, 10.874929036291789])
    ))
    proc = _gridparams("-W", "error", "-m", "gridparams", "fit", "--branches", str(branches),
                       "--out", str(tmp_path / "fit.json"))
    assert proc.returncode == 0 and proc.stderr == ""


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
    fitted = {ParameterKind.LINE_CAPACITY: Normal(180.0, 60.0), ParameterKind.LINE_XR: Normal(8.0, 3.0)}
    profile = [dataclasses.replace(e, fitted=fitted.get(e.kind, e.fitted)) for e in builtin_profile()]
    (tmp / "lines.json").write_text(serialize_profile_json(profile))
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
        optional = [f"--classes={draw(_classes)}", f"--bins={draw(_bins)}"]
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
