#!/usr/bin/env python3
"""qgrass benchmark: time the CLI as users run it, and check every answer.

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --trace 0     # every workload, one after another

Run it from anywhere; it runs the package in `src/` next to this directory.
One client, closed loop: each invocation of the workload is a fresh
interpreter (`python3 -m qgrass.cli ...`), started only after the previous
one exited, so at most one qgrass process runs at a time.  A pass runs every
invocation of the workload once, in an order drawn from the seed; passes
repeat until the next one would end after `--seconds`.  Every workload but
sweep-default runs on one CPU (see ONE_CPU).

On a shared host the speed of the CPUs drifts by up to 2x within minutes,
and the hypervisor takes them away for a varying share of the time (steal).
So while each child runs, this process times a fixed slice of pure-Python
work (probe_chunk) on each of its CPUs in turn, and reads the steal counters
of /proc/stat before and after it.  Wall times lose the stolen time, and all
end-to-end times are divided by the slowdown the probes show (see stolen_s
and slowdown): they read in seconds of an unshared CPU running at the
reference speed.  The unscaled times are printed as well.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs one untraced
and one traced pass (through trace_cli.py) and reports the per-layer metrics
and the tracing overhead.  Every invocation is checked against a known
answer; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

from trace_cli import TRACE_MARK, union_length

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ANSWERS = BENCH_DIR / "answers"
TRACE_CLI = BENCH_DIR / "trace_cli.py"

SETUP_LAUNCHES_PER_PASS = 4
PROBE_PERIOD_S = 0.05  # one probe_chunk() per CPU in turn, this often, while a child runs
# probe_chunk() time at the reference speed: a fixed constant, the median
# fast-half probe time of 45 passes on the machine of the README baseline, so
# scaled seconds read close to measured ones there.
PROBE_REF_S = 0.00052
SELF_SUM_TOLERANCE = 0.01
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s, even when a child hangs

# README "Findings": the candidate bases that fail, as (family, ell, k, m).
FINDINGS = {
    ("h-basis", 2, 5, 2),
    ("h-basis", 3, 5, 3),
    ("kschur-basis", 2, 5, 2),
    ("kschur-basis", 3, 5, 3),
    ("kschur-basis", 4, 5, 3),
    ("kschur-basis", 4, 5, 4),
    ("kschur-basis", 5, 2, 2),
    ("kschur-basis", 6, 2, 2),
}


# ---------------------------------------------------------------------------
# Known answers.  A check returns None on success, else what was wrong; it
# may raise ValueError, IndexError or KeyError on output it cannot parse.


def _load_answers() -> dict:
    with open(ANSWERS / "closed_forms.json", encoding="utf-8") as fh:
        return json.load(fh)


def plucker_degree(n: int) -> int:
    """Degree of LG(n, 2n) in its Plucker embedding:
    N! 2^(n(n-1)/2) prod_{i=1..n} (i-1)!/(2i-1)!, with N = n(n+1)/2."""
    num = factorial(n * (n + 1) // 2) * 2 ** (n * (n - 1) // 2)
    den = 1
    for i in range(1, n + 1):
        num *= factorial(i - 1)
        den *= factorial(2 * i - 1)
    if num % den:
        raise ArithmeticError(f"Plucker degree of LG({n}, {2 * n}) is not an integer")
    return num // den


def _text_cases(stdout: str) -> tuple[list[tuple[str, str, dict]], str]:
    """Parse a text report into (status, name, params) rows and its summary line."""
    rows = []
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        head = line.split(" | ")[0].split()
        params = dict(item.split("=", 1) for item in head[2:])
        rows.append((head[0], head[1], params))
    return rows, lines[-1]


def check_golden(name: str):
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        if stdout != (ANSWERS / name).read_text(encoding="utf-8"):
            return f"stdout differs from the golden {name}"
        return None

    return check


def check_series(key: str):
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        if [int(c) for c in stdout.strip().split(",")] != _load_answers()[key]:
            return f"series differs from the closed form {key}"
        return None

    return check


def check_basis_5x5(code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    rows, summary = _text_cases(stdout)
    want = [("PASS", fam, {"ell": "5", "k": "5", "m": str(m)})
            for fam in ("h-basis", "kschur-basis") for m in range(1, 6)]
    if rows != want or summary != "summary: pass=10 fail=0 error=0":
        return f"expected the 10 (5,5) basis cases to pass, got {summary!r}"
    return None


def check_findings(code: int, stdout: str) -> str | None:
    if code != 1:
        return f"exit code {code}, expected 1"
    rows, summary = _text_cases(stdout)
    failed = {(name, int(p["ell"]), int(p["k"]), int(p["m"])) for status, name, p in rows if status == "FAIL"}
    others = [r for r in rows if r[0] not in ("PASS", "FAIL")]
    if failed != FINDINGS or others or summary != "summary: pass=12 fail=8 error=0":
        return f"failures differ from the README Findings: {sorted(failed ^ FINDINGS)} {others} {summary!r}"
    return None


def check_lg9(code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    report = json.loads(stdout)
    if report.get("summary") != {"pass": 14, "fail": 0, "error": 0}:
        return f"summary {report.get('summary')}, expected 14 passes"
    top = [c for c in report["cases"] if c["name"] == "lg-top-power"]
    want = f"top coefficient {plucker_degree(9)}"
    if len(top) != 1 or top[0]["detail"] != want:
        return f"lg-top-power detail {[c['detail'] for c in top]}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# Workloads.


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    check: Callable[[int, str], str | None]


def _config(name: str) -> str:
    return str((BENCH_DIR / "configs" / name).relative_to(ROOT))


WORKLOADS: dict[str, list[Invocation]] = {
    # The command users run most: 314 small tasks through the thread pool, no
    # --jobs flag so the default worker count applies.
    "sweep-default": [
        Invocation(("verify", "all"), check_golden("sweep-default.txt")),
    ],
    # Single large Grassmannian computations past the default grid: in-box
    # Pieri products and echelon inserts, no harness or thread pool.
    "grass-stretch": [
        Invocation(("hilb", "grass", "--ell", "7", "--k", "7", "--m", "2"), check_series("grass 7 7 2")),
        Invocation(("hilb", "grass", "--ell", "6", "--k", "6", "--m", "3"), check_series("grass 6 6 3")),
    ],
    # Unbounded Schur expansions (h_to_schur, k_schur) and echelon membership
    # tests, plus the README Findings, which must fail exactly as pinned.
    "basis-stretch": [
        Invocation(("verify", "all", "--config", _config("basis-5x5.json")), check_basis_5x5),
        Invocation(("verify", "all", "--config", _config("basis-findings.json")), check_findings),
    ],
    # The Lagrangian rewriting ring and the echelon, with no Schur work.
    "lg-stretch": [
        Invocation(("hilb", "lg", "--n", "10", "--m", "5"), check_series("lg 10 5")),
        Invocation(("verify", "lg", "--n", "9", "--format", "json"), check_lg9),
    ],
}


# Workloads whose processes run on a single CPU.  They measure computation,
# not parallelism: hilb is single-threaded, and with two pool threads on two
# CPUs basis-stretch's wall time mostly measured how long GIL hand-offs
# waited for the other CPU, which varied by 30% between runs.  On one CPU
# the probes and the steal counters also describe exactly the CPU the work
# ran on.  sweep-default keeps both CPUs, so parallelism changes show there.
ONE_CPU = {"grass-stretch", "basis-stretch", "lg-stretch"}


# ---------------------------------------------------------------------------
# Running children.


@dataclass
class Child:
    """A finished child process.  Rusage is its own, from wait4."""
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    probes: list[float]  # probe_chunk() times taken while it ran
    stolen_s: float  # time the hypervisor held its CPUs (see stolen_s)


@dataclass
class Result:
    args: tuple[str, ...]
    child: Child
    trace: dict | None = None


def probe_chunk() -> float:
    """Seconds taken by one fixed slice of pure-Python work of the kind
    qgrass's inner loops do: tuple keys, dict updates, int products."""
    table: dict = {}
    start = time.perf_counter()
    for i in range(1500):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


def cpu_ticks() -> dict[int, list[int]]:
    """The per-CPU counters of /proc/stat, in clock ticks: user, nice,
    system, idle, iowait, irq, softirq, steal, ..."""
    with open("/proc/stat", encoding="ascii") as fh:
        return {
            int(fields[0][3:]): [int(x) for x in fields[1:]]
            for fields in (line.split() for line in fh)
            if fields[0][:3] == "cpu" and fields[0][3:].isdigit()
        }


def stolen_s(before: dict[int, list[int]], after: dict[int, list[int]], cpus: set[int]) -> float:
    """Seconds the hypervisor held the CPUs of a process that ran on `cpus`
    between two cpu_ticks() readings: each CPU's steal time, weighted by that
    CPU's share of the busy time, since a process loses only the steal that
    falls while it is running there."""
    steal = {c: after[c][7] - before[c][7] for c in cpus}
    busy = {c: sum(after[c][i] - before[c][i] for i in (0, 1, 2, 5, 6)) for c in cpus}
    total = sum(busy.values())
    if not total:
        return 0.0
    return sum(steal[c] * busy[c] for c in cpus) / total / os.sysconf("SC_CLK_TCK")


def run_child(argv: list[str], env: dict, timeout: float, cpus: set[int]) -> Child:
    """Run argv to completion on `cpus`.  While it runs, this process wakes
    every PROBE_PERIOD_S and times probe_chunk() on each of `cpus` in turn."""
    with tempfile.TemporaryFile(dir=BENCH_DIR) as out, tempfile.TemporaryFile(dir=BENCH_DIR) as err:
        timed_out = False
        probes: list[float] = []
        rotation = itertools.cycle(sorted(cpus))
        ticks = cpu_ticks()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        exited = os.pidfd_open(proc.pid)
        try:
            while not select.select([exited], [], [], PROBE_PERIOD_S)[0]:
                if time.perf_counter() - start > timeout:
                    timed_out = True
                    proc.kill()
                    break
                os.sched_setaffinity(0, {next(rotation)})
                probes.append(probe_chunk())
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        stolen = stolen_s(ticks, cpu_ticks(), cpus)
        out.seek(0)
        err.seek(0)
        return Child(
            code=os.waitstatus_to_exitcode(status),
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            timed_out=timed_out,
            probes=probes,
            stolen_s=stolen,
        )


class Runner:
    def __init__(self, seed: int, cpus: set[int]):
        self.cpus = cpus
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        # str hashes drive no qgrass output, but pin them per seed all the same
        self.env["PYTHONHASHSEED"] = str(seed % 4294967296)
        self.started = time.perf_counter()
        self.attempted = 0
        self.errors: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def invoke(self, inv: Invocation, traced: bool) -> Result:
        entry = [str(TRACE_CLI)] if traced else ["-m", "qgrass.cli"]
        child = run_child([sys.executable, *entry, *inv.args], self.env, self.remaining(), self.cpus)
        stderr = child.stderr
        trace = None
        if traced:
            lines = stderr.split("\n")
            marks = [line for line in lines if line.startswith(TRACE_MARK)]
            stderr = "\n".join(line for line in lines if not line.startswith(TRACE_MARK))
            try:
                trace = json.loads(marks[-1][len(TRACE_MARK):]) if marks else None
            except ValueError:
                trace = None
        if child.timed_out:
            error = "timed out"
        elif "Traceback (most recent call last)" in stderr:
            error = "traceback on stderr: " + stderr.strip().splitlines()[-1]
        else:
            try:
                error = inv.check(child.code, child.stdout)
            except (ValueError, IndexError, KeyError) as exc:
                error = f"unparseable output ({type(exc).__name__}: {exc}): {child.stdout[:80]!r}"
            if error is None and traced and trace is None:
                error = "no trace written"
        self.attempted += 1
        if error:
            self.errors.append(f"qgrass {' '.join(inv.args)}: {error}")
        return Result(inv.args, child, trace)

    def run_pass(self, invocations: list[Invocation], rng: random.Random, traced: bool) -> list[Result]:
        order = list(invocations)
        rng.shuffle(order)
        return [self.invoke(inv, traced) for inv in order]

    def setup_times(self, launches: int) -> tuple[list[Child], list[float]]:
        """Fresh interpreters that import the CLI and build its parser,
        computing nothing; the launches that worked, and the probe times
        taken before and during each."""
        script = "import qgrass.cli as c; c.build_parser(); print(c.__file__)"
        launched: list[Child] = []
        probes: list[float] = []
        for _ in range(launches):
            probes.append(probe_chunk())
            child = run_child([sys.executable, "-c", script], self.env, self.remaining(), self.cpus)
            probes += child.probes
            self.attempted += 1
            out = child.stdout.strip()
            loaded = Path(out).resolve() if out else None
            if child.code != 0 or child.timed_out or loaded != (SRC / "qgrass" / "cli.py").resolve():
                self.errors.append(
                    f"setup launch: exit {child.code}, loaded {loaded}, {child.stderr.strip()[-200:]}"
                )
            else:
                launched.append(child)
        return launched, probes


# ---------------------------------------------------------------------------
# Statistics and reports.


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as
    (percentile, value); None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(name: str, unit: str, samples: list[float]) -> str:
    med = statistics.median(samples)
    hi = high_percentile(samples)
    tail = f"p{hi[0]:.1f}={hi[1]:.4f}" if hi else "no percentile has 10 samples above it"
    return f"{name:<14} median={med:.4f} {unit:<3} {tail}  (n={len(samples)})"


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> list[str]:
    return [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"python={platform.python_version()} cpu_count={os.cpu_count()} "
        f"default_jobs={os.cpu_count() or 1} commit={commit_id()}",
        "client model: closed loop, 1 client, one qgrass process at a time"
        + (", pinned to one CPU" if args.workload in ONE_CPU else ""),
    ]


def slowdown(probes: list[float]) -> float:
    """How much slower than the reference the CPUs ran probe_chunk(): the
    mean of the faster half of the probe times, over PROBE_REF_S.  The slower
    half holds the probes that the scheduler interrupted."""
    fast = sorted(probes)[: max(1, len(probes) // 2)]
    return statistics.fmean(fast) / PROBE_REF_S


def measure(runner: Runner, workload: str, rng: random.Random, seconds: float) -> tuple[dict, list[str]]:
    """Untraced passes until the next would end after `seconds`.  Set-up
    launches are spread between the passes, so both sample the whole run.
    Wall times lose the time the hypervisor held the CPUs, and all times are
    divided by the slowdown the probes measured while they ran, so they read
    in seconds of an unshared CPU running at the reference speed."""
    invocations = WORKLOADS[workload]
    runner.setup_times(1)  # warms the file and bytecode caches; not a sample
    launched: list[Child] = []
    setup_probes: list[float] = []
    passes: list[list[Result]] = []
    begun = time.perf_counter()
    while True:
        children, probes = runner.setup_times(SETUP_LAUNCHES_PER_PASS)
        launched += children
        setup_probes += probes
        passes.append(runner.run_pass(invocations, rng, traced=False))
        elapsed = time.perf_counter() - begun
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or runner.remaining() < 2 * per_pass:
            break
    children, probes = runner.setup_times(SETUP_LAUNCHES_PER_PASS)
    launched += children
    setup_probes += probes
    raw_wall = [sum(r.child.wall_s for r in p) for p in passes]
    raw_cpu = [sum(r.child.cpu_s for r in p) for p in passes]
    stolen = [sum(r.child.stolen_s for r in p) for p in passes]
    factors = [slowdown([x for r in p for x in r.child.probes]) for p in passes]
    wall = [(w - st) / f for w, st, f in zip(raw_wall, stolen, factors)]
    cpu = [c / f for c, f in zip(raw_cpu, factors)]
    rss = [max(r.child.rss_mb for r in p) for p in passes]
    setup_factor = slowdown(setup_probes)
    raw_setup = [c.wall_s for c in launched] or [0.0]
    setup = [(c.wall_s - c.stolen_s) / setup_factor for c in launched] or [0.0]
    lines = [
        describe("wall_s", "s", wall),
        describe("cpu_s", "s", cpu),
        describe("peak_rss_mb", "MB", rss),
        describe("setup_s", "s", setup),
        "  slowdown of each pass: " + " ".join(f"{f:.3f}" for f in factors)
        + f"; of the set-up launches: {setup_factor:.3f}",
        "  stolen s of each pass: " + " ".join(f"{st:.3f}" for st in stolen)
        + f"; of the set-up launches: {sum(c.stolen_s for c in launched):.3f}",
        "  unscaled wall s of each pass: " + " ".join(f"{w:.3f}" for w in raw_wall),
        f"  unscaled medians: wall_s {statistics.median(raw_wall):.4f} s, "
        f"cpu_s {statistics.median(raw_cpu):.4f} s, setup_s {statistics.median(raw_setup):.4f} s",
    ]
    for inv in invocations:
        times = [r.child.wall_s for p in passes for r in p if r.args == inv.args]
        lines.append(f"  qgrass {' '.join(inv.args)}: unscaled wall median {statistics.median(times):.4f} s")
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, lines


def layer_metrics(results: list[Result], untraced_wall: float) -> tuple[dict, list[str]]:
    """Sum the traces of one pass into the per-layer metrics."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    memos: dict[str, dict] = {}
    checks: list[tuple[float, float]] = []
    sweeps: list[tuple[float, float]] = []
    self_sum = main_s = thread_excess = 0.0
    for r in results:
        t = r.trace or {"spans": {}, "counts": {}, "memos": {}, "intervals": {}}
        for name, s in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, m in t["memos"].items():
            acc = memos.setdefault(name, {"hits": 0, "misses": 0, "entries": 0})
            for key in acc:
                acc[key] += m[key]
        inv_checks = [tuple(iv) for iv in t["intervals"].get("harness.check", [])]
        checks += inv_checks
        sweeps += [tuple(iv) for iv in t["intervals"].get("harness.sweep", [])]
        self_sum += sum(s["self_s"] for s in t["spans"].values())
        main_s += t["spans"].get("cli.main", {}).get("total_s", 0.0)
        # checks run in pool threads: their time adds to the main thread's
        thread_excess += sum(b - a for a, b in inv_checks) - union_length(inv_checks)

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["schur.pieri_h.calls"] = (span("schur.pieri_h", "calls"), "count")
    m["schur.pieri_h.self_s"] = (span("schur.pieri_h", "self_s"), "s")
    m["schur.pieri_h.terms_out"] = (counts.get("schur.pieri_h.terms_out", 0), "count")
    m["schur.h_to_schur.calls"] = (span("schur.h_to_schur", "calls"), "count")
    m["schur.h_to_schur.self_s"] = (span("schur.h_to_schur", "self_s"), "s")
    terms_in = counts.get("grassmann.project.terms_in", 0)
    m["grassmann.project.calls"] = (span("grassmann.project", "calls"), "count")
    m["grassmann.project.self_s"] = (span("grassmann.project", "self_s"), "s")
    m["grassmann.project.terms_in"] = (terms_in, "count")
    m["grassmann.project.kept_ratio"] = (ratio(counts.get("grassmann.project.terms_kept", 0), terms_in), "ratio")
    m["grassmann.subalgebra_hilbert.calls"] = (span("grassmann.subalgebra_hilbert", "calls"), "count")
    m["grassmann.subalgebra_hilbert.self_s"] = (span("grassmann.subalgebra_hilbert", "self_s"), "s")
    m["grassmann.basis_report.self_s"] = (span("grassmann.basis_report", "self_s"), "s")
    adds = span("echelon.add_vector", "calls")
    m["echelon.add_vector.calls"] = (adds, "count")
    m["echelon.add_vector.self_s"] = (span("echelon.add_vector", "self_s"), "s")
    m["echelon.add_vector.useful_ratio"] = (ratio(counts.get("echelon.add_vector.useful", 0), adds), "ratio")
    for name in ("echelon.contains_vector", "echelon.basis_rows", "kschur.k_schur",
                 "lagrangian.lg_subalgebra_hilbert", "lagrangian.lg_top_power"):
        m[name + ".calls"] = (span(name, "calls"), "count")
        m[name + ".self_s"] = (span(name, "self_s"), "s")
    m["partitions.enumerate.calls"] = (counts.get("partitions.enumerate.calls", 0), "count")
    m["partitions.enumerate.self_s"] = (span("partitions.enumerate", "self_s"), "s")
    m["partitions.k_conjugate.calls"] = (span("partitions.k_conjugate", "calls"), "count")
    m["partitions.k_conjugate.self_s"] = (span("partitions.k_conjugate", "self_s"), "s")
    m["partitions.Partition.constructed"] = (counts.get("partitions.Partition.constructed", 0), "count")
    m["qseries.formula.calls"] = (span("qseries.formula", "calls"), "count")
    m["qseries.formula.self_s"] = (span("qseries.formula", "self_s"), "s")
    m["qseries.q_binomial.calls"] = (counts.get("qseries.q_binomial.calls", 0), "count")
    durations = sorted(b - a for a, b in checks)
    hi = high_percentile(durations)
    sweep_s = sum(b - a for a, b in sweeps)
    m["harness.check.calls"] = (span("harness.check", "calls"), "count")
    m["harness.check.p50_s"] = (statistics.median(durations) if durations else 0.0, "s")
    m["harness.check.p_hi_s"] = (hi[1] if hi else (durations[-1] if durations else 0.0), "s")
    m["harness.check.sum_s"] = (sum(durations), "s")
    m["harness.sweep.self_s"] = (span("harness.sweep", "self_s"), "s")
    m["harness.task_overlap"] = (ratio(sum(durations), sweep_s), "ratio")
    m["cli.main.calls"] = (span("cli.main", "calls"), "count")
    m["cli.main.self_s"] = (span("cli.main", "self_s"), "s")
    for name, c in sorted(memos.items()):
        m[name + ".hit_ratio"] = (ratio(c["hits"], c["hits"] + c["misses"]), "ratio")
        m[name + ".dup_misses"] = (c["misses"] - c["entries"], "count")
        m[name + ".entries"] = (c["entries"], "count")
    traced_wall = sum(r.child.wall_s for r in results)
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    # Self times partition the main thread's cli.main span plus the time pool
    # threads ran alongside it, so this is 1 up to rounding.
    self_sum_ratio = ratio(self_sum, main_s + thread_excess)

    verdict = "ok" if abs(self_sum_ratio - 1) <= SELF_SUM_TOLERANCE else "OUT OF TOLERANCE"
    lines = [
        f"traced wall {traced_wall:.4f} s, untraced wall {untraced_wall:.4f} s",
        f"span self times sum to {self_sum:.4f} s against cli.main {main_s:.4f} s + pool-thread "
        f"overlap {thread_excess:.4f} s: ratio {self_sum_ratio:.5f}, tolerance {SELF_SUM_TOLERANCE} ({verdict})",
        f"time no layer claims (cli.main and harness.sweep self): "
        f"{span('cli.main', 'self_s') + span('harness.sweep', 'self_s'):.4f} s",
    ]
    if hi:
        lines.append(f"harness.check.p_hi_s is p{hi[0]:.1f} of {len(durations)} checks")
    lines.append("layer self time (s): " + ", ".join(
        f"{name}={s['self_s']:.3f}" for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
    ))
    return m, lines


def run_workload(args, cpus: set[int]) -> tuple[dict, Runner, list[str]]:
    """Run one workload on `cpus`, or on the lowest of them for ONE_CPU."""
    if args.workload in ONE_CPU:
        cpus = {min(cpus)}
    runner = Runner(args.seed, cpus)
    rng = random.Random(f"{args.workload}:{args.seed}")
    lines = environment(args)
    lines.append("invocations: " + "; ".join("qgrass " + " ".join(i.args) for i in WORKLOADS[args.workload]))
    if args.trace:
        runner.setup_times(1)  # warms the file and bytecode caches
        untraced = runner.run_pass(WORKLOADS[args.workload], rng, traced=False)
        traced = runner.run_pass(WORKLOADS[args.workload], rng, traced=True)
        metrics, more = layer_metrics(traced, sum(r.child.wall_s for r in untraced))
    else:
        metrics, more = measure(runner, args.workload, rng, args.seconds)
    lines += more
    share = len(runner.errors) / runner.attempted
    lines.append(f"error_share    {share:.4f} (failed/attempted = {len(runner.errors)}/{runner.attempted})")
    lines += ["FAILED: " + e for e in runner.errors]
    return metrics, runner, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qgrass" / "cli.py").is_file():
        print(f"error: no qgrass sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through run_child, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    ok = True
    cpus = os.sched_getaffinity(0)  # read once: run_child moves this process between CPUs
    for name in sorted(WORKLOADS) if args.all else [args.workload]:
        metrics, runner, lines = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), cpus)
        print("\n".join(lines))
        result = {
            "correct": not runner.errors,
            "attempted": runner.attempted,
            "failed": len(runner.errors),
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        ok = ok and not runner.errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
