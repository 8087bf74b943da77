"""paritylab benchmark: wall time of CLI jobs as users run them, plus a traced run.

    python3 perfbench/run.py --workload {single,sweep,startup} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from `src/` there
and writes only under `.perfbench_work/`, so two runs in one checkout must not
overlap.

One client runs a closed loop: each job is a fresh `python -m paritylab`
process, started when the previous one has ended.  The seed picks and orders
the jobs of a run from the pool in `pool.py`; every pass runs that list once.
Passes repeat until the next one would end after --seconds (at least two).
Every job is checked: exit code as the CLI contract requires, no `Traceback`
on stderr, and rows byte-identical to `reference.json`.

--trace 0 prints the end-to-end metrics (medians; tracing off):
  setup_s      fresh interpreter to the end of `import paritylab`, over
               several imports made before the passes
  wall_s       one pass over the job list, over passes
  job_s.p50    one job, over all jobs of the run
  job_s.tail   one job, at the highest percentile with 10 jobs beyond it
               (the maximum when a run has fewer than 20 jobs)
  cpu_s        user + system CPU time of the jobs of one pass, over passes
  peak_rss_mb  largest resident set of any job of a pass, over passes
fail_ratio (failed / attempted jobs) is printed too; the result line carries
it as `failed` and `attempted`, not as a metric, since it is 0 on most
workloads.

--trace 1 alternates untraced passes with traced ones, in which each job runs
under `tracejob.py`, and prints the per-layer metrics: self time of each
wrapped layer and its counts per pass (median over traced passes),
`-X importtime` figures of a fresh interpreter, the DP cost model computed
from the weights the DP was called with, and the tracing overhead.  The
merged spans are written once, at the end, to .perfbench_work/.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
`correct` is false when a job gave a wrong answer or broke the contract,
except the jobs pool.py lists as known defects of the program; those are
still counted in `failed`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / pool.OUT_DIR

SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
MIN_PASSES = 2
JOB_TIMEOUT_S = 60.0
# no pass starts that is expected to end later than this after the start
RUN_LIMIT_S = 140.0

# ---------------------------------------------------------------------------
# running one process
# ---------------------------------------------------------------------------


@dataclass
class Finished:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], env: dict[str, str]) -> Finished:
    """Run cmd to its end; wall time, CPU time and peak RSS of that process."""
    with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # KiB on Linux
            out.read(),
            err.read(),
        )


# ---------------------------------------------------------------------------
# jobs and passes
# ---------------------------------------------------------------------------


def load_reference() -> dict[str, str]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def problem(job: pool.Job, fin: Finished, written: bytes | None, reference: dict[str, str]) -> str | None:
    """Why the job broke its contract, or None; `written` is its --out file."""
    if b"Traceback" in fin.stderr:
        return f"traceback, exit {fin.exit_code}"
    if fin.exit_code != job.exit_code:
        return f"exit {fin.exit_code}, contract wants {job.exit_code}"
    if job.exit_code != 0:
        return None
    if job.out is None:
        rows = fin.stdout
    elif fin.stdout:
        return "rows on stdout although --out was given"
    else:
        rows = written
    if rows != reference[job.ref].encode("utf-8"):
        return "output differs from reference"
    return None


@dataclass
class JobResult:
    job: pool.Job
    fin: Finished
    problem: str | None
    output_bytes: int
    spans: dict | None = None


@dataclass
class Pass:
    wall_s: float
    results: list[JobResult]

    @property
    def cpu_s(self) -> float:
        return sum(r.fin.cpu_s for r in self.results)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.fin.rss_mb for r in self.results)


def run_pass(jobs: list[pool.Job], reference: dict[str, str], env, traced: bool) -> Pass:
    results = []
    start = time.perf_counter()
    for job in jobs:
        spans_file = WORK / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracejob.py"), str(spans_file), *job.argv]
        else:
            cmd = [sys.executable, "-m", "paritylab", *job.argv]
        fin = spawn(cmd, env)
        written = None
        if job.out is not None and (ROOT / job.out).exists():
            written = (ROOT / job.out).read_bytes()
            (ROOT / job.out).unlink()
        output_bytes = len(fin.stdout) + len(written or b"")
        result = JobResult(job, fin, problem(job, fin, written, reference), output_bytes)
        if traced and spans_file.exists():
            result.spans = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
        results.append(result)
    return Pass(time.perf_counter() - start, results)


def run_passes(jobs, reference, env, started: float, seconds: float, modes: list[bool], min_cycles: int):
    """Repeat the cycle of modes (traced or not) until the next cycle would overrun."""
    passes: dict[bool, list[Pass]] = {mode: [] for mode in modes}
    cycles = 0
    measure_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for mode in modes:
            passes[mode].append(run_pass(jobs, reference, env, mode))
        cycles += 1
        now = time.perf_counter()
        next_end = now + (now - cycle_start)
        if next_end - started > RUN_LIMIT_S:
            break
        if cycles >= min_cycles and next_end - measure_start > seconds:
            break
    return passes


# ---------------------------------------------------------------------------
# set-up and import
# ---------------------------------------------------------------------------

IMPORT_PROBE = "import paritylab, sys; sys.stdout.write(paritylab.__file__)"


def time_imports(env) -> list[Finished]:
    runs = []
    for _ in range(SETUP_IMPORTS):
        fin = spawn([sys.executable, "-c", IMPORT_PROBE], env)
        where = Path(fin.stdout.decode("utf-8", "replace")).resolve()
        if fin.exit_code != 0 or SRC not in where.parents:
            raise SystemExit(
                f"error: `import paritylab` from {SRC} failed (exit {fin.exit_code}, "
                f"got {where}): {fin.stderr.decode('utf-8', 'replace')[-500:]}"
            )
        runs.append(fin)
    return runs


def import_breakdown(stderr: str) -> dict[str, float]:
    """Cumulative seconds per top-level package from `-X importtime` output.

    Lines are post-order with two spaces of indent per level, so walking them
    backwards meets every module after its importer.  A package counts where
    it is first entered from outside itself.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        text = fields[2].rstrip()[1:]
        name = text.lstrip(" ")
        rows.append(((len(text) - len(name)) // 2, name, int(fields[1]) / 1e6))
    totals = {"paritylab": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and all(p != package for _, p in stack):
            totals[package] += cumulative
        stack.append((depth, package))
    return totals


def import_layers(env) -> dict[str, float]:
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        fin = spawn([sys.executable, "-X", "importtime", "-c", "import paritylab"], env)
        if fin.exit_code != 0:
            raise SystemExit("error: `python -X importtime -c 'import paritylab'` failed")
        samples.append(import_breakdown(fin.stderr.decode("utf-8", "replace")))
    return {f"import.{k}_s": statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# the DP cost model (computed, not measured).  It is written out here rather
# than imported, so the counters keep their meaning when the engine changes.
# ---------------------------------------------------------------------------


def m_max(n: int) -> int:
    return (math.isqrt(8 * n + 1) - 1) // 2


def limb_bits(n: int) -> int:
    """W of the packed DP: pi*sqrt(n/3)/ln 2 + 16 guard bits, whole bytes."""
    bits = int(math.pi * math.sqrt(max(n, 1) / 3.0) / math.log(2.0)) + 16
    return (bits + 7) // 8 * 8


def state_bytes(n: int) -> int:
    """(2*m_max(n)+1) packed integers of (n+1) limbs of W bits each."""
    return (2 * m_max(n) + 1) * (n + 1) * limb_bits(n) // 8


def limb_adds(n: int) -> int:
    """One shifted big-integer add per part and difference offset."""
    return n * (2 * m_max(n) + 1)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """Value at the highest percentile that has at least 10 samples beyond it.

    Below 20 samples that percentile is under the median, which is no tail,
    so the maximum is reported instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count >= 20:
        return ordered[count - 11], f"p{100.0 * (count - 10) / count:.1f} of {count} jobs"
    return ordered[-1], f"max of {count} jobs (under 20, the percentile with 10 beyond is below the median)"


def all_results(passes: list[Pass]) -> list[JobResult]:
    return [r for p in passes for r in p.results]


def tally(results: list[JobResult]) -> tuple[bool, int, int]:
    failed = [r for r in results if r.problem]
    correct = all(r.job.known_defect for r in failed)
    return correct, len(results), len(failed)


def end_to_end(setup: list[Finished], passes: list[Pass]) -> dict[str, tuple[float, str]]:
    jobs = [r.fin.wall_s for r in all_results(passes)]
    return {
        "setup_s": (statistics.median(f.wall_s for f in setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "job_s.p50": (statistics.median(jobs), "s"),
        "job_s.tail": (tail(jobs)[0], "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    own = {}
    for span_id, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        own[span_id] = (end - start) - covered
    return own


SPAN_METRICS = (
    ("exact.pd_distribution", "exact.pd_distribution_s"),
    ("exact.pd_distribution_family", "exact.pd_distribution_family_s"),
    ("asymptotics.estimate_thm2", "asymptotics.estimate_thm2_s"),
    ("distribution.histogram_of", "distribution.histogram_of_s"),
    ("distribution.bias_profile_of", "distribution.bias_profile_of_s"),
    ("specialfn.euler_maclaurin", "specialfn.euler_maclaurin_s"),
    ("checks.run_suite", "checks.run_suite_s"),
)


def layer_totals(traced: Pass) -> tuple[dict[str, float], dict[str, tuple[int, float, float]]]:
    """Per-layer metrics of one traced pass, and (calls, total s, self s) per span name."""
    m = {name: 0.0 for _, name in SPAN_METRICS}
    m.update(
        {
            "exact.pd_distribution_calls": 0,
            "exact.family_calls": 0,
            "exact.weights_out": 0,
            "exact.state_mb": 0.0,
            "exact.limb_adds": 0,
            "exact.limb_bits_added": 0,
            "asymptotics.estimate_thm2_calls": 0,
            "distribution.density_calls": 0,
            "specialfn.erfc_calls": 0,
            "checks.run": 0,
            "checks.failed": 0,
            "cli.main_s": 0.0,
            "cli.self_s": 0.0,
            "cli.output_bytes": sum(r.output_bytes for r in traced.results),
        }
    )
    by_name: dict[str, list] = {}
    span_key = dict(SPAN_METRICS)
    for result in traced.results:
        if result.spans is None:
            continue
        spans = result.spans["spans"]
        own = self_times(spans)
        for span_id, _, name, start, end, attrs in spans:
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own[span_id]
            if name in span_key:
                m[span_key[name]] += own[span_id]
            if name == "cli.main":
                m["cli.main_s"] += end - start
                m["cli.self_s"] += own[span_id]
            if name.startswith("exact.") and attrs:  # no attrs when the call raised
                n = attrs["n"]
                m["exact.pd_distribution_calls" if name == "exact.pd_distribution" else "exact.family_calls"] += 1
                m["exact.weights_out"] += attrs["out"]
                m["exact.state_mb"] = max(m["exact.state_mb"], state_bytes(n) / 1e6)
                m["exact.limb_adds"] += limb_adds(n)
                m["exact.limb_bits_added"] += limb_adds(n) * (n + 1) * limb_bits(n)
            if name == "asymptotics.estimate_thm2":
                m["asymptotics.estimate_thm2_calls"] += 1
            if name == "checks.run_suite" and attrs:
                m["checks.run"] += attrs["run"]
                m["checks.failed"] += attrs["failed"]
        counts = result.spans["counts"]
        m["distribution.density_calls"] += counts.get("distribution.density", 0)
        m["specialfn.erfc_calls"] += counts.get("specialfn.erfc", 0)
    return m, {k: tuple(v) for k, v in by_name.items()}


_IMPORT = "setup_s on every workload, wall_s on startup"
_SINGLE = "wall_s, job_s.p50 on single"
_MODEL = "peak_rss_mb, cpu_s on single and sweep (computed)"
_THM2 = "wall_s on sweep (predicted share < 1%)"
_DENSITY = "job_s.p50 on single (predicted share < 1%)"
_STARTUP = "wall_s on startup"
_CLI = "cpu_s, wall_s on sweep; wall_s on startup"
# name: (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "import.paritylab_s": ("s", _IMPORT),
    "import.scipy_s": ("s", _IMPORT),
    "import.numpy_s": ("s", _IMPORT),
    "exact.pd_distribution_s": ("s", _SINGLE),
    "exact.pd_distribution_calls": ("count", _SINGLE),
    "exact.pd_distribution_family_s": ("s", "wall_s on sweep"),
    "exact.family_calls": ("count", "wall_s on sweep"),
    "exact.weights_out": ("count", "wall_s, peak_rss_mb on sweep"),
    "exact.state_mb": ("MB", _MODEL),
    "exact.limb_adds": ("count", _MODEL),
    "exact.limb_bits_added": ("bit", _MODEL),
    "asymptotics.estimate_thm2_s": ("s", _THM2),
    "asymptotics.estimate_thm2_calls": ("count", _THM2),
    "distribution.histogram_of_s": ("s", _DENSITY),
    "distribution.bias_profile_of_s": ("s", _DENSITY),
    "distribution.density_calls": ("count", _DENSITY),
    "specialfn.euler_maclaurin_s": ("s", "wall_s on startup (the only user of scipy)"),
    "specialfn.erfc_calls": ("count", _STARTUP),
    "checks.run_suite_s": ("s", _STARTUP),
    "checks.run": ("count", _STARTUP),
    "checks.failed": ("count", _STARTUP),
    "cli.main_s": ("s", _CLI),
    "cli.self_s": ("s", _CLI),
    "cli.output_bytes": ("byte", _CLI),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s of a pass"),
}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def report_jobs(jobs: list[pool.Job], results: list[JobResult]) -> None:
    print(f"jobs of one pass ({len(jobs)}), one fresh process each, closed loop, one client:")
    for job in jobs:
        print("  paritylab " + " ".join(job.argv))
    failed = [r for r in results if r.problem]
    print(f"{len(failed)} of {len(results)} jobs failed")
    seen = set()
    for r in failed:
        key = (r.job.ref, r.problem)
        if key in seen:
            continue
        seen.add(key)
        label = f"known defect: {r.job.known_defect}" if r.job.known_defect else "NEW FAILURE"
        print(f"  FAILED {' '.join(r.job.argv)}: {r.problem} [{label}]")


def report_cost_model(passes: list[Pass], setup: list[Finished]) -> None:
    """Computed DP state of the largest single job against its measured peak RSS."""
    largest = max(passes[0].results, key=lambda r: int(r.job.argv[r.job.argv.index("--n") + 1]))
    n = int(largest.job.argv[largest.job.argv.index("--n") + 1])
    rss = statistics.median(
        r.fin.rss_mb for p in passes for r in p.results if r.job.ref == largest.job.ref
    )
    base = statistics.median(f.rss_mb for f in setup)
    print(
        f"cost model, largest job `{' '.join(largest.job.argv)}`: computed DP state "
        f"exact.state_mb = (2*m_max+1)*(n+1)*W/8 = {state_bytes(n) / 1e6:.2f} MB "
        f"(m_max {m_max(n)}, W {limb_bits(n)} bits); measured peak_rss_mb {rss:.1f} MB, "
        f"of which a bare `import paritylab` is {base:.1f} MB"
    )
    print(
        "  the --huge help claims a multi-GB DP state above n = 3000; computed: "
        + ", ".join(f"n={k}: {state_bytes(k) / 1e6:.1f} MB" for k in (3001, 5000))
    )


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=pool.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stop request takes the normal exit path, which kills and reaps the job
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (SRC / "paritylab" / "__init__.py").is_file():
        print(f"error: no paritylab package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    reference = load_reference()
    jobs = pool.choose(args.workload, args.seed, len(os.sched_getaffinity(0)))
    missing = [j.ref for j in jobs if j.exit_code == 0 and j.ref not in reference]
    if missing:
        print(f"error: no reference output for {missing}; run make_reference.py", file=sys.stderr)
        return 2
    env = child_env()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, python {sys.version.split()[0]}")

    if not args.trace:
        setup = time_imports(env)
        passes = run_passes(jobs, reference, env, started, args.seconds, [False], MIN_PASSES)[False]
        results = all_results(passes)
        report_jobs(jobs, results)
        metrics = end_to_end(setup, passes)
        print(f"{len(passes)} passes; job_s.tail is the {tail([r.fin.wall_s for r in results])[1]}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<12} {value:10.4f} {unit}")
        correct, attempted, failed = tally(results)
        print(f"  {'fail_ratio':<12} {failed / attempted:10.4f} ratio (result line: failed / attempted)")
        if args.workload == "single":
            report_cost_model(passes, setup)
        print(result_line(correct, attempted, failed, metrics))
        return 0

    imports = import_layers(env)
    passes = run_passes(jobs, reference, env, started, args.seconds, [False, True], 1)
    plain, traced = passes[False], passes[True]
    results = all_results(plain) + all_results(traced)
    report_jobs(jobs, results)
    per_pass = [layer_totals(p) for p in traced]
    metrics: dict[str, tuple[float, str]] = {}
    for name, (unit, _) in PER_LAYER.items():
        if name.startswith("import."):
            metrics[name] = (imports[name], unit)
        elif name == "trace.overhead_s":
            overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
            metrics[name] = (overhead, unit)
        else:
            values = [m[name] for m, _ in per_pass]
            # counts repeat exactly from pass to pass; keep them whole
            middle = statistics.median_low if unit in ("count", "bit", "byte") else statistics.median
            metrics[name] = (middle(values), unit)
    spans_by_name = per_pass[0][1]
    pass_s = traced[0].wall_s
    print(f"{len(plain)} untraced and {len(traced)} traced passes; spans of the first traced pass ({pass_s:.3f} s):")
    print(f"  {'span':<32} {'calls':>6} {'total s':>10} {'self s':>10} {'self/pass':>9}")
    for name, (calls, total, own) in sorted(spans_by_name.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<32} {calls:6d} {total:10.4f} {own:10.4f} {own / pass_s:9.1%}")
    print("per-layer metrics, per pass (median over traced passes), and what each should move:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:16.6g} {unit:<5} -> {PER_LAYER[name][1]}")
    trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(
        json.dumps(
            [
                {"pass": i, "argv": r.job.argv, **r.spans}
                for i, p in enumerate(traced)
                for r in p.results
                if r.spans is not None
            ]
        ),
        encoding="utf-8",
    )
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    print(result_line(*tally(results), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
