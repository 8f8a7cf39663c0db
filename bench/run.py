"""Benchmark of the gridparams command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fleet-csv --seed 1 --seconds 35 --trace 0

The benchmark writes a workload's inputs from the seed (inputs.py), then
runs the workload's gridparams command lines as child processes, one at a
time, round after round until --seconds have passed, and checks every
output against the planted truth (checks.py) and against earlier runs of
the same command line (byte equality). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it records the environment and the per-command times.

--trace 0 reports the end-to-end metrics. Times are scaled to the
reference speed: multiplied by REFERENCE_S over the fastest run, in this
run, of calibrate.py, a fixed program that each round starts with.
  norm_wall_s          one round of the workload: the sum over its command
                       lines of the fastest wall time in the run, spawn to
                       reap, at the reference speed
  norm_branches_per_s  branch rows ingested or emitted in one round /
                       norm_wall_s
  peak_rss_mb          the largest peak RSS of any one child (from wait4)
  setup_s              median time to write the workload's inputs, at the
                       reference speed
The line before the result holds the unscaled figures.
--trace 1 runs each command line once as a child and once in process
through gridparams.cli.run, with spans around the gridparams functions
the command calls (replay.py), and reports the per-layer metrics.

--smoke shrinks every input to at most a few thousand rows, for the benchmark's
own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SUBCOMMANDS = ("generate", "analyze", "fit", "validate", "hist")
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                  "NUMEXPR_NUM_THREADS")}
CHILD_ENV = {
    "PATH": os.environ.get("PATH", os.defpath),
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
    **SINGLE_THREAD,
}
GRIDPARAMS = [sys.executable, "-m", "gridparams"]
CALIBRATE = [sys.executable, str(BENCH / "calibrate.py")]
REFERENCE_S = 1.0  # calibrate.py's wall time at the reference speed


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


class Runner:
    """Runs children one at a time and checks what each command line writes."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self._seen: dict[str, tuple[str, list[str]]] = {}  # id -> (digest, problems)

    def child(self, argv: list[str]) -> tuple[float, int, float, str]:
        """Run argv to completion: (wall s, exit code, peak RSS MB, stdout)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise ChildTimeout
        with open(self.work / ".stdout", "w+b") as out, open(self.work / ".stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=CHILD_ENV, stdout=out, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace")
        if stderr.strip():
            self.problems.append(f"{' '.join(argv[3:])}: stderr {stderr.strip()[-300:]!r}")
        rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
        return wall, proc.returncode, rss_mb, stdout

    def calibrate(self) -> float:
        """Wall time of one run of the fixed reference program."""
        wall, code, _, _ = self.child(CALIBRATE)
        if code:
            raise RuntimeError(f"calibrate.py exited {code}")
        return wall

    def invoke(self, inv) -> float:
        """Run one command line as a child, check its output, return its wall time."""
        clear(self.work / inv.args["out"])
        wall, code, rss_mb, stdout = self.child(GRIDPARAMS + inv.argv())
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        self.record(inv, code, stdout)
        return wall

    def record(self, inv, code: int, stdout: str) -> None:
        """Count one run of a command line; it fails if its output fails the
        check, or differs from the output of an earlier run of the same line."""
        digest = _digest(code, stdout, self.work / inv.args["out"])
        seen = self._seen.get(inv.id)
        if seen is None:
            try:
                problems = inv.check(self.work, code, stdout)
            except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
            self._seen[inv.id] = (digest, problems)
        elif seen[0] != digest:
            problems = ["output differs from an earlier run of the same input"]
        else:
            problems = seen[1]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{inv.id}: {p}" for p in problems[:3]]


def clear(out: Path) -> None:
    if out.is_dir():
        shutil.rmtree(out)
    else:
        out.unlink(missing_ok=True)


def _digest(code: int, stdout: str, out: Path) -> str:
    h = hashlib.sha256(f"{code}\n{stdout}".encode())
    files = sorted(out.iterdir()) if out.is_dir() else [out] if out.is_file() else []
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload, work: Path, seed: int, smoke: bool, repeats: bool):
    """Write the inputs; with repeats, at least five times and for two
    seconds, for a median set-up time."""
    times: list[float] = []
    while not times or repeats and (len(times) < 5 or sum(times) < 2.0):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        invocations = workload(work, seed, smoke)
        times.append(time.perf_counter() - start)
    return invocations, times


def measure(runner: Runner, invocations, seconds: float) -> dict[str, list[float]]:
    """Rounds of every command line until `seconds` pass (at least one round);
    a command line is not started if its median so far would overrun. The
    reference program runs twice a round, before the first command line and
    before the middle one; its times are under "calibration"."""
    walls: dict[str, list[float]] = {inv.id: [] for inv in invocations}
    walls["calibration"] = []
    stop = time.perf_counter() + seconds
    while True:
        for i, inv in enumerate(invocations):
            done = walls[inv.id]
            if done and time.perf_counter() + statistics.median(done) > stop:
                return walls
            if i in (0, len(invocations) // 2):
                walls["calibration"].append(runner.calibrate())
            done.append(runner.invoke(inv))


def per_command(invocations, walls: dict[str, float]) -> dict[str, float]:
    out = {cmd: 0.0 for cmd in SUBCOMMANDS}
    for inv in invocations:
        out[inv.command] += walls[inv.id]
    return out


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
    }


def untraced(runner: Runner, invocations, seconds: float, setup_times: list[float]):
    walls = measure(runner, invocations, seconds)
    # The machine's speed drifts by tens of percent over minutes; dividing by
    # the reference program's time, taken in the same run, cancels the drift.
    calibration = walls.pop("calibration")
    speed = REFERENCE_S / min(calibration)
    fastest = {key: min(v) for key, v in walls.items()}
    wall_s = sum(fastest.values())
    branches = sum(inv.branches for inv in invocations)
    metrics = {
        "norm_wall_s": (wall_s * speed, "s"),
        "norm_branches_per_s": (branches / (wall_s * speed), "1/s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times) * speed, "s"),
    }
    detail = {"wall_s": wall_s,
              "branches_per_s": branches / wall_s,
              "setup_s": statistics.median(setup_times),
              "calibration_s": min(calibration),
              "calibration_runs": len(calibration),
              "per_command_s": per_command(invocations, fastest),
              "median_round_s": sum(statistics.median(v) for v in walls.values()),
              "setup_repeats": len(setup_times),
              "samples_s": {**walls, "calibration": calibration}}
    return metrics, detail


def traced(runner: Runner, invocations, trace_file: Path):
    """Each command line once as a child, then once in process under spans."""
    import replay

    imports = []
    for _ in range(3):
        wall, code, _, _ = runner.child([sys.executable, "-c", "import gridparams"])
        if code:
            raise RuntimeError(f"import gridparams exited {code}")
        imports.append(wall)
    sys.path.insert(0, str(ROOT / "src"))
    rep = replay.Replay(runner.work)
    walls, layer_s, in_process = {}, {}, {}
    with rep.installed():
        for inv in invocations:
            walls[inv.id] = runner.invoke(inv)
            clear(runner.work / inv.args["out"])
            start = time.perf_counter()
            code, stdout, layer_s[inv.id] = rep.run(inv)
            in_process[inv.id] = time.perf_counter() - start
            runner.record(inv, code, stdout)
    if rep.problems:
        runner.failed += 1
        runner.problems += rep.problems
    spans = len(rep.tracer.spans)
    metrics = {
        "import.gridparams_s": statistics.median(imports),
        "cli.overhead_s": sum(walls[key] - layer_s[key] for key in walls),
        **{f"cli.{cmd}_s": s for cmd, s in per_command(invocations, walls).items()},
        **rep.metrics(),
        "trace.spans": spans,
        "trace.span_cost_s": replay.span_cost_s() * spans,
    }
    trace_file.write_text(json.dumps(rep.tracer.to_json()) + "\n", encoding="utf-8")
    units = {"_s": "s", "_mb": "MB", "_frac": "fraction", "bytes_in": "B", "bytes_out": "B"}
    out = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = (value, unit)
    detail = {"trace_file": str(trace_file.relative_to(ROOT)),
              "child_s": per_command(invocations, walls),
              "in_process_s": per_command(invocations, in_process),
              "spans_s": per_command(invocations, layer_s)}
    return out, detail


def main(argv=None) -> int:
    # Single-threaded BLAS for the traced replay too; numpy reads this when
    # it is first imported, which the workloads module does.
    os.environ.update(SINGLE_THREAD)
    import workloads

    ap = argparse.ArgumentParser(description="Benchmark of the gridparams command line.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (ROOT / "src" / "gridparams" / "__init__.py").is_file():
        print(f"error: no gridparams sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    signal.signal(signal.SIGALRM, _alarm)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        invocations, setup_times = set_up(workloads.WORKLOADS[args.workload], work, args.seed,
                                      args.smoke, repeats=not args.trace)
        runner = Runner(work, deadline)
        _, code, _, _ = runner.child(GRIDPARAMS + ["--version"])  # untimed: compiles .pyc files
        if code != 0:
            print(f"error: gridparams --version exited {code}: {runner.problems}", file=sys.stderr)
            return 1
        runner.problems.clear()
        if args.trace:
            metrics, detail = traced(runner, invocations,
                                     WORK / f"trace-{args.workload}-{args.seed}.json")
        else:
            metrics, detail = untraced(runner, invocations, args.seconds, setup_times)
    except ChildTimeout:
        print(f"error: run exceeded {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": environment(), **detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
