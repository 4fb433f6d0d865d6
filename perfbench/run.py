"""The gvpa benchmark.

    python3 perfbench/run.py --workload grid|closure|translate --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --pin        # re-pin the output digests

Run from any directory; the program under test is the `src/gvpa` next to
this directory. Every job is one `gvpa` command in a fresh interpreter,
run one at a time (a closed loop with one client), and every answer is
checked against a known one (see workloads.py).

--trace 0 measures the end-to-end metrics: one pass over the workload's
jobs, then more runs of them in the same order while the next one fits in
S seconds; each job's time is its median over its runs. A fixed speed
probe runs after every job, and the timings are scaled by the probe's
nominal time over its median time in the run, which cancels the drift of
the machine's speed between runs. --trace 1 makes one traced pass, each job
through perfbench/layers.py, then one untraced pass to show the tracing
overhead, and reports the per-layer metrics.

A human-readable report goes to stderr. The last line on stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import families  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Outcome  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
CONSOLE = "from gvpa.cli import console_main; console_main()"
SETUP_REPS = 11
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 160.0
# The speed probe: the benchmark's own oracle exploring a fixed ring. It
# shares no code with gvpa, so only the machine's speed can move it.
PROBE_SPEC = families.ring(3, 6, "0abc")
PROBE_NOMINAL_S = 0.030

UNITS = {"corpus_s": "s", "job_s_p50": "s", "job_s_max": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "ok_share": "ratio"}


class Runner:
    """Runs jobs as child processes in one work directory, one at a time."""

    def __init__(self, workdir: Path, tag: str, expected: dict, deadline: float):
        self.workdir = workdir
        self.tag = tag
        self.expected = expected
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.probes: list[float] = []

    def run(self, job: Job, traced: bool = False, pinned: dict | None = None):
        """Runs and judges one job. Returns (wall seconds, peak RSS in MB,
        output bytes, spans file or None)."""
        self.attempted += 1
        outdir = self.workdir / (job.args[job.args.index("--out") + 1]
                                 if "--out" in job.args else "_none")
        shutil.rmtree(outdir, ignore_errors=True)
        spans = self.workdir / "_spans.json"
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "layers.py"), str(spans), *job.args]
        else:
            argv = [sys.executable, "-c", CONSOLE, *job.args]
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            self.failures.append((job.name, "not run: the run's deadline passed"))
            return 0.0, 0.0, 0, None
        out_path, err_path = self.workdir / "_stdout", self.workdir / "_stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
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
        self.probes.append(probe())
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(proc.returncode,
                          out_path.read_text(encoding="utf-8", errors="replace"),
                          err_path.read_text(encoding="utf-8", errors="replace"), outdir)
        if wall >= timeout:
            reason = f"timed out after {timeout:.0f} s"
        else:
            reason = workloads.judge(job, outcome, self.expected, self.tag, pinned)
        if reason:
            self.failures.append((job.name, reason))
        written = out_path.stat().st_size
        if outdir.is_dir():
            written += sum(p.stat().st_size for p in outdir.iterdir())
        span_file = spans if traced and spans.is_file() else None
        if traced and span_file is None and not reason:
            self.failures.append((job.name, "the traced job wrote no spans"))
        return wall, usage.ru_maxrss / 1024, written, span_file


def probe() -> float:
    start = time.perf_counter()
    for _ in range(5):
        families.explore(PROBE_SPEC)
    return time.perf_counter() - start


def median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(runner: Runner, setup: Job) -> list[float]:
    runner.run(setup)  # warm-up: byte-compiles src and fills the page cache
    return [runner.run(setup)[0] for _ in range(SETUP_REPS)]


def run_pass(runner: Runner, jobs: list[Job]) -> float:
    start = time.perf_counter()
    for job in jobs:
        runner.run(job)
    return time.perf_counter() - start


def end_to_end(runner: Runner, setup: Job, jobs: list[Job], seconds: float):
    setup_times = measure_setup(runner, setup)
    walls = {job.name: [] for job in jobs}
    rss = {job.name: [] for job in jobs}
    start = time.perf_counter()
    # One full pass, then round-robin while the next job's median fits.
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        if i >= len(jobs) and (time.perf_counter() - start
                               + median(walls[job.name]) > seconds):
            break
        wall, mb, _, _ = runner.run(job)
        walls[job.name].append(wall)
        rss[job.name].append(mb)
    # The VM's speed drifts by up to 2x over minutes, alike for gvpa and
    # the probe; timings are scaled to the probe's nominal speed.
    speed = PROBE_NOMINAL_S / median(runner.probes)
    per_job = {name: median(w) * speed for name, w in walls.items()}
    metrics = {
        "corpus_s": sum(per_job.values()),
        "job_s_p50": median(list(per_job.values())),
        "job_s_max": max(per_job.values()),
        "setup_s": median(setup_times) * speed,
        "peak_rss_mb": max(median(r) for r in rss.values()),
        "ok_share": 1 - len(runner.failures) / runner.attempted,
    }
    runs = sum(len(w) for w in walls.values())
    lines = [f"{runs} runs of {len(jobs)} jobs in {time.perf_counter() - start:.1f} s; "
             "a job's time is its median over its runs, corpus_s their sum; "
             f"setup_s is the median of {SETUP_REPS} runs of "
             f"`gvpa {' '.join(setup.args)}`",
             f"timings are wall times x {speed:.4f}, the probe's nominal "
             f"{PROBE_NOMINAL_S} s over its median of {len(runner.probes)} runs "
             "here; divide by it for the raw wall times"]
    lines += [f"  {name:<16} {value:>12.4f} {UNITS[name]}" for name, value in metrics.items()]
    lines.append(f"  job_s_max is the slowest of {len(jobs)} jobs; failed_share = "
                 f"{len(runner.failures)}/{runner.attempted}")
    lines += [f"  {per_job[name]:8.3f} s  x{len(w)}  {name}" for name, w in walls.items()]
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, lines


def traced(runner: Runner, setup: Job, jobs: list[Job], out_file: Path):
    setup_s = median(measure_setup(runner, setup))
    traces, report = [], []
    for job in jobs:
        wall, rss, written, span_file = runner.run(job, traced=True)
        if span_file is None:
            continue
        trace = json.loads(span_file.read_text(encoding="utf-8"))
        trace["own_s"] = layers.self_times(trace["spans"])
        trace.update(job=job.name, args=job.args, wall_s=wall, rss_mb=rss,
                     output_bytes=written)
        traces.append(trace)
    if not traces:
        return {}, ["no traced job finished"]
    totals = layers.pass_layers(traces)
    totals["cli.output_bytes"] = sum(t["output_bytes"] for t in traces)
    untraced = run_pass(runner, jobs)
    net = untraced - len(jobs) * setup_s
    totals["trace.untraced_net_s"] = net
    totals["trace.overhead_share"] = totals["cli.main_s"] / net - 1 if net > 0 else 0.0

    out_file.parent.mkdir(exist_ok=True)
    out_file.write_text(json.dumps(traces), encoding="utf-8")
    report.append(f"traced pass of {len(traces)} jobs, spans in {out_file}")
    report.append(f"  in-process total {totals['cli.main_s']:.3f} s traced vs "
                  f"{net:.3f} s untraced ({untraced:.3f} s corpus minus "
                  f"{len(jobs)} x {setup_s:.3f} s set-up)")
    report += [f"  {name:<26} {value:>14.6g}" for name, value in sorted(totals.items())]
    report.append("  per job: wall_s main_s mcrl2.explorations candidates kept_ratio")
    for t in traces:
        job = layers.job_layers(t)
        kept = (job["mcrl2.transitions"] / job["mcrl2.candidates"]
                if job["mcrl2.candidates"] else 0.0)
        report.append(f"  {t['wall_s']:7.3f} {job['cli.main_s']:7.3f} "
                      f"{job['mcrl2.explorations']:2d} {job['mcrl2.candidates']:8d} "
                      f"{kept:.4f}  {t['job']}")
    return {k: (v, layers.unit(k)) for k, v in totals.items()}, report


def load_expected() -> dict:
    return json.loads(workloads.EXPECTED_FILE.read_text(encoding="utf-8"))


def pin():
    """Runs every job once, all workloads at both sizes, and rewrites the
    pinned digests. Only for a deliberate change of the output format."""
    pinned: dict = {}
    for workload in workloads.WORKLOADS:
        for small in (False, True):
            workdir = BENCH / "_work" / f"pin-{workload}-{int(small)}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            tag, setup, jobs = workloads.build(workload, 0, workdir, small=small)
            runner = Runner(workdir, tag, {}, time.perf_counter() + 600)
            for job in [setup] + jobs:
                runner.run(job, pinned=pinned)
            shutil.rmtree(workdir)
            if runner.failures:
                sys.exit(f"not pinned, jobs failed: {runner.failures}")
    workloads.EXPECTED_FILE.write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if not (SRC / "gvpa" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'gvpa'} is missing", file=sys.stderr)
        return 2
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    # One CPU for the benchmark and its children: jobs never overlap, and
    # the probe measures the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + RUN_DEADLINE_S
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tag, setup, jobs = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(workdir, tag, load_expected(), deadline)
        if args.trace:
            out_file = BENCH / "_out" / f"trace-{args.workload}-{args.seed}.json"
            metrics, report = traced(runner, setup, jobs, out_file)
        else:
            metrics, report = end_to_end(runner, setup, jobs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}", file=sys.stderr)
    for line in report:
        print(line, file=sys.stderr)
    for name, reason in runner.failures:
        print(f"  FAILED {name}: {reason}", file=sys.stderr)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
