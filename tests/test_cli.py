"""Command-line workflows, exercised in process through run()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridparams.cli import run

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


def _gridparams(*argv, cwd=None):
    """The CLI in a fresh interpreter, so that its stderr is what a user sees."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
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
