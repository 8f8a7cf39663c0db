"""The benchmark's workloads: which inputs each writes and which gridparams
commands it runs on them, with the check for each command's output.

- fleet-csv: one large branch CSV through analyze, fit, validate and
  hist. CSV parsing, per-row filtering and collection, decorrelation and
  Nelder-Mead fits on large samples (fit, and validate's family checks
  on line classes) do most of the work.
- synth-gen: generate only. The sampler and the writers of branch and
  parameter CSV do the work; nothing is parsed, collected or fitted.
- cases-matpower: three MATPOWER case files of real-case sizes through
  analyze, fit and validate. Ingest takes the MATPOWER path, and process
  start and imports are a large share of each command's wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs

# Sizes: (full run, smoke run).
FLEET_ROWS = (100_000, 3_000)
GENERATE_ROWS = (50_000, 500)
CASE_BRANCHES = ((2_500, 10_000, 25_000), (150, 300, 600))


@dataclass
class Invocation:
    """One gridparams command line, run with the work directory as cwd."""

    command: str
    args: dict[str, str]
    branches: int  # branch rows the command ingests or emits
    check: Callable[[Path, int, str], list[str]]  # (work dir, exit code, stdout)
    truth: dict = field(default_factory=dict)

    @property
    def id(self) -> str:
        source = self.args.get("branches") or self.args.get("case") or self.args["out"]
        return f"{self.command}:{source}"

    def argv(self) -> list[str]:
        out = [self.command]
        for flag, value in self.args.items():
            out += [f"--{flag}", value]
        return out


def _read(work: Path, inv_args: dict) -> str:
    return (work / inv_args["out"]).read_text(encoding="utf-8")


def _ingest_commands(source_flag: str, source: str, truth: dict, profile: list[dict]) -> list[Invocation]:
    src = {source_flag: source}
    stem = Path(source).stem
    analyze = {**src, "profile": "reference.json", "out": f"analyze-{stem}.json"}
    fit = {**src, "out": f"fit-{stem}.json"}
    validate = {**src, "profile": "reference.json", "out": f"validate-{stem}.json"}
    rows = truth["rows"]

    def expect_zero(code: int) -> list[str]:
        return [] if code == 0 else [f"exit code {code}"]

    return [
        Invocation("analyze", analyze, rows, lambda w, code, _: expect_zero(code)
                   or checks.check_analyze(_read(w, analyze), truth), truth),
        Invocation("fit", fit, rows, lambda w, code, _: expect_zero(code)
                   or checks.check_fit(_read(w, fit), truth), truth),
        Invocation("validate", validate, rows, lambda w, code, _: [f"exit code {code}"]
                   if code not in (0, 2) else checks.check_validate(_read(w, validate), code, profile),
                   truth),
    ]


def fleet_csv(work: Path, seed: int, smoke: bool) -> list[Invocation]:
    truth = inputs.write_branch_csv(work / "fleet.csv", seed, FLEET_ROWS[smoke])
    profile = inputs.reference_profile()
    inputs.write_profile(work / "reference.json", profile)
    hist = {"branches": "fleet.csv", "out": "hist"}
    return _ingest_commands("branches", "fleet.csv", truth, profile) + [
        Invocation("hist", hist, truth["rows"], lambda w, code, stdout:
                   [f"exit code {code}"] if code else checks.check_hist(w / "hist", stdout, truth), truth),
    ]


def cases_matpower(work: Path, seed: int, smoke: bool) -> list[Invocation]:
    profile = inputs.reference_profile()
    inputs.write_profile(work / "reference.json", profile)
    out = []
    for i, n in enumerate(CASE_BRANCHES[smoke]):
        name = f"case{n}"
        truth = inputs.write_matpower_case(work / f"{name}.m", [seed, i], n, name)
        out += _ingest_commands("case", f"{name}.m", truth, profile)
    return out


def synth_gen(work: Path, seed: int, smoke: bool) -> list[Invocation]:
    profile = inputs.line_capable_profile()
    inputs.write_profile(work / "lines.json", profile)
    n = str(GENERATE_ROWS[smoke])
    runs = [("115", "transformer", "branches"), ("138", "transformer", "branches"),
            ("230", "transformer", "branches"), ("138", "line", "branches"),
            ("230", "transformer", "params")]
    out = []
    for i, (kv, kind, emit) in enumerate(runs):
        args = {"class": kv, "n": n, "seed": str((seed * 16 + i) % 2**64), "kind": kind,
                "emit": emit, "profile": "lines.json", "out": f"gen-{kind}-{kv}-{emit}.csv"}

        def check(w: Path, code: int, _stdout: str, args=args) -> list[str]:
            if code:
                return [f"exit code {code}"]
            return checks.check_generate(_read(w, args), args, profile)

        out.append(Invocation("generate", args, int(n), check))
    return out


WORKLOADS = {"fleet-csv": fleet_csv, "synth-gen": synth_gen, "cases-matpower": cases_matpower}
