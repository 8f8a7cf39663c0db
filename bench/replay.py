"""Traced in-process run of a workload, for the per-layer metrics.

The replay wraps public gridparams functions in spans and then runs each
command line of the workload through `gridparams.cli.run` in this
process, so the traced calls follow the command's own order. The wrapped
functions are the names `gridparams.cli` binds, plus `fit_mle`,
`kl_divergence` and `histogram` as `gridparams.fitting` binds them, so
that each family's fit inside `fit_and_score` is timed on its own.

Calls made inside `profiles.validate` (its FamilyCheck fits and KlCheck
scores) are not recorded: they count in validate's span, as `per_unit`
and `distributions` count in the spans of their callers. A command's
wall time as a child minus the total of its top-level spans is
`cli.overhead_s`: interpreter start, imports, argument parsing, input
hashing, and JSON and file writing.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import os
import time
from pathlib import Path

# (module of gridparams, attribute, span name); fit_mle's span is named by family.
WRAPPED = (
    ("cli", "parse_branch_csv", "ingest.parse_branch_csv"),
    ("cli", "parse_matpower_case", "ingest.parse_matpower_case"),
    ("cli", "parse_profile_json", "profiles.parse_profile_json"),
    ("cli", "collect_samples", "analysis.collect_samples"),
    ("cli", "observed_stats", "analysis.observed_stats"),
    ("cli", "decorrelation_stats", "analysis.decorrelation_stats"),
    ("cli", "spearman_own_by_class", "analysis.spearman_own_by_class"),
    ("cli", "fit_and_score", "fitting.fit_and_score"),
    ("cli", "select_best", "fitting.select_best"),
    ("cli", "validate", "profiles.validate"),
    ("cli", "histogram", "stats.histogram"),
    ("cli", "histogram_csv", "stats.histogram_csv"),
    ("cli", "generate_transformers", "sampler.generate_transformers"),
    ("cli", "generate_lines", "sampler.generate_lines"),
    ("cli", "params_to_branch_records", "sampler.params_to_branch_records"),
    ("cli", "params_csv", "sampler.params_csv"),
    ("cli", "serialize_branch_csv", "ingest.serialize_branch_csv"),
    ("fitting", "histogram", "stats.histogram"),
    ("fitting", "fit_mle", "fitting.fit_mle"),
    ("fitting", "kl_divergence", "fitting.kl_divergence"),
)
_FIT_SPAN = {"tls": "fitting.fit_mle.tls", "gev": "fitting.fit_mle.gev",
             "exponential": "fitting.fit_mle.closed_form", "normal": "fitting.fit_mle.closed_form"}
OPAQUE = frozenset({"profiles.validate"})  # calls inside are not recorded

# Spans whose summed self time is reported, as "<name>_s".
TIMED_SPANS = (
    "ingest.parse_branch_csv",
    "ingest.parse_matpower_case",
    "analysis.collect_samples",
    "analysis.observed_stats",
    "analysis.decorrelation_stats",
    "fitting.fit_mle.tls",
    "fitting.fit_mle.gev",
    "fitting.fit_mle.closed_form",
    "fitting.kl_divergence",
    "profiles.validate",
    "stats.histogram",
    "stats.histogram_csv",
    "sampler.generate_transformers",
    "sampler.generate_lines",
    "sampler.params_to_branch_records",
    "sampler.params_csv",
    "ingest.serialize_branch_csv",
)
COUNTERS = (
    "ingest.records",
    "ingest.bytes_in",
    "ingest.bytes_out",
    "analysis.kept",
    "analysis.rejected",
    "analysis.unclassified",
    "analysis.suspects",
    "fitting.nm_iterations",
    "profiles.findings",
    "profiles.family_checks",
    "sampler.rows",
)
PEAKS = ("ingest.rss_after_parse_mb", "analysis.rss_after_collect_mb")


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, group)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._open: list[int] = []
        self.group = ""

    def opaque(self) -> bool:
        return bool(self._open) and self.spans[self._open[-1]][0] in OPAQUE

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.group))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent, group = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, group)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def top_level_s(self, group: str) -> float:
        return sum(end - start for _, start, end, parent, g in self.spans if parent < 0 and g == group)

    def count(self, prefix: str) -> int:
        return sum(name.startswith(prefix) for name, *_ in self.spans)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "command": g}
                for n, s, e, p, g in self.spans]


def span_cost_s(samples: int = 2000) -> float:
    """Time to record one empty span, median of three batches."""
    costs = []
    for _ in range(3):
        t = Tracer()
        start = time.perf_counter()
        for _ in range(samples):
            with t.span("x"):
                pass
        costs.append((time.perf_counter() - start) / samples)
    return sorted(costs)[1]


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Replay:
    """Runs command lines in process under spans; collects counts and problems."""

    def __init__(self, work: Path):
        self.work = work
        self.tracer = Tracer()
        self.counts = {name: 0 for name in COUNTERS}
        self.peaks = {name: 0.0 for name in PEAKS}
        self.converged = 0
        self.problems: list[str] = []
        self.truth: dict = {}
        self._after = {
            "ingest.parse_branch_csv": self._parsed,
            "ingest.parse_matpower_case": self._parsed,
            "analysis.collect_samples": self._collected,
            "fitting.fit_mle": self._fitted,
            "profiles.validate": self._validated,
            "sampler.generate_transformers": self._sampled,
            "sampler.generate_lines": self._sampled,
            "sampler.params_csv": self._written,
            "ingest.serialize_branch_csv": self._written,
        }

    @contextlib.contextmanager
    def installed(self):
        """Wrap the functions of WRAPPED for the duration of the block."""
        import importlib

        saved = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(f"gridparams.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        tracer, after = self.tracer, self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.opaque():
                return fn(*args, **kwargs)
            span = _FIT_SPAN.get(args[0], name) if name == "fitting.fit_mle" else name
            with tracer.span(span):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return traced

    def run(self, inv) -> tuple[int, str, float]:
        """Run one command line in process: (exit code, stdout, top-level span seconds)."""
        from gridparams import cli

        self.tracer.group = inv.id
        self.truth = inv.truth
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(inv.argv())
        finally:
            os.chdir(cwd)
        if stderr.getvalue().strip():
            self.problems.append(f"{inv.id} in process: stderr {stderr.getvalue().strip()[-300:]!r}")
        gc.collect()
        return code, stdout.getvalue(), self.tracer.top_level_s(inv.id)

    # What each wrapped call adds to the counts, from its result and arguments.

    def _parsed(self, result, args) -> None:
        records = result if isinstance(args[0], bytes) else result[1]
        data = args[0] if isinstance(args[0], bytes) else args[0].encode("utf-8")
        self.counts["ingest.records"] += len(records)
        self.counts["ingest.bytes_in"] += len(data)
        self.peaks["ingest.rss_after_parse_mb"] = max(self.peaks["ingest.rss_after_parse_mb"], _rss_mb())
        if "parallel" in self.truth:
            parallel = sum(not r.id.endswith("-1") for r in records)
            if parallel != self.truth["parallel"]:
                self.problems.append(f"{self.tracer.group}: {parallel} parallel branch ids, planted {self.truth['parallel']}")

    def _collected(self, collected, args) -> None:
        self.counts["analysis.kept"] += collected.kept
        self.counts["analysis.rejected"] += len(collected.rejected)
        self.counts["analysis.unclassified"] += collected.unclassified
        self.counts["analysis.suspects"] += sum(collected.suspect_counts.values())
        self.peaks["analysis.rss_after_collect_mb"] = max(
            self.peaks["analysis.rss_after_collect_mb"], _rss_mb())

    def _fitted(self, fit, args) -> None:
        self.converged += fit.converged
        self.counts["fitting.nm_iterations"] += fit.iterations

    def _validated(self, report, args) -> None:
        self.counts["profiles.findings"] += len(report.findings)
        self.counts["profiles.family_checks"] += sum(f.check == "FamilyCheck" for f in report.findings)

    def _sampled(self, items, args) -> None:
        self.counts["sampler.rows"] += len(items)

    def _written(self, text, args) -> None:
        self.counts["ingest.bytes_out"] += len(text.encode("utf-8"))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything run so far."""
        self_s = self.tracer.self_times()
        out: dict[str, float] = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED_SPANS}
        out.update(self.counts)
        out.update(self.peaks)
        fits = self.tracer.count("fitting.fit_mle.")
        out["fitting.converged_frac"] = self.converged / fits if fits else 0.0
        return out
