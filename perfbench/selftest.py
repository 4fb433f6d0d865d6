"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs the smallest instance of every workload and expects every answer to
be right; then feeds deliberately wrong expected answers and expects each
to be reported as a failure; checks the oracle against the closed-form
counts; and checks what the traced run records for two small jobs.
Exits 1 on the first problem.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import time
from pathlib import Path

import run
from run import BENCH, Runner
import families as F
import layers
import workloads


def fail(message: str):
    print(f"FAIL {message}")
    sys.exit(1)


def check_oracle():
    for n, k in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        got = F.explore(F.worker_grid(n, k, "0abc"))
        if got != F.grid_counts(n, k):
            fail(f"oracle {got} != closed form {F.grid_counts(n, k)} for W({n},{k})")
    for n, L in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        got = F.explore(F.ring(n, L, "0abc"))
        if got != F.ring_counts(n, L):
            fail(f"oracle {got} != closed form {F.ring_counts(n, L)} for R({n},{L})")
    if F.explore(F.traffic("0abc")) != (6, 9):
        fail("oracle disagrees with the paper's traffic example (6 states, 9 transitions)")
    print("ok oracle matches the closed forms")


def check_workload(workload: str, workdir: Path, expected: dict):
    tag, setup, jobs = workloads.build(workload, 1, workdir, small=True)
    runner = Runner(workdir, tag, expected, time.perf_counter() + 600)
    for job in [setup] + jobs:
        runner.run(job)
    if runner.failures:
        fail(f"{workload}: right answers reported as wrong: {runner.failures}")
    print(f"ok {workload}: {len(jobs) + 1} small jobs answered right")

    # Wrong expected answers: a flipped digest, a wrong count or verdict.
    wrong = {name: {label: "0" * 64 for label in pins} for name, pins in expected.items()}
    for job in jobs:
        variants = []
        if job.pins:
            variants.append(("digest", job, wrong))
        variants.append(("exit code", dataclasses.replace(
            job, expect_code=1 - job.expect_code), expected))
        if job.command == "lts":
            variants.append(("count", dataclasses.replace(
                job, check=workloads.lts_check(1, 0)), expected))
        for what, variant, answers in variants:
            probe = Runner(workdir, tag, answers, time.perf_counter() + 600)
            probe.run(variant)
            if not probe.failures:
                fail(f"{workload}: wrong {what} for {job.name} was not reported")
    print(f"ok {workload}: every wrong expected answer was reported as a failure")
    return tag, jobs


def check_trace(workload: str, workdir: Path, tag: str, jobs, expected: dict):
    runner = Runner(workdir, tag, expected, time.perf_counter() + 600)
    for job in jobs:
        if job.command not in ("lts", "verify-translation"):
            continue
        _, _, _, span_file = runner.run(job, traced=True)
        if runner.failures or span_file is None:
            fail(f"traced {job.name}: {runner.failures or 'no spans'}")
        trace = json.loads(span_file.read_text())
        totals = layers.job_layers(trace)
        labels = {span[0] for span in trace["spans"]}
        if job.command == "lts":
            if any(label.startswith("mcrl2.") for label in labels):
                fail(f"traced {job.name}: an mcrl2 span on the source side")
            if totals["sos.states"] != workloads.aut_counts(
                    (workdir / "_stdout").read_text())[0]:
                fail(f"traced {job.name}: sos.states differs from the .aut header")
        elif totals["mcrl2.explorations"] != 2 or not 0 < totals["mcrl2.candidates"]:
            fail(f"traced {job.name}: {totals['mcrl2.explorations']} mCRL2 "
                 "explorations, expected 2")
        if not labels >= {"cli.main", "parser.parse_spec", "syntax.validate_spec"}:
            fail(f"traced {job.name}: spans {sorted(labels)}")
        print(f"ok traced {job.name}: {len(trace['spans'])} spans")


def main():
    check_oracle()
    expected = run.load_expected()
    root = BENCH / "_work" / f"selftest-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            workdir = root / workload
            workdir.mkdir(parents=True)
            tag, jobs = check_workload(workload, workdir, expected)
            check_trace(workload, workdir, tag, jobs, expected)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("PASS benchmark self-test")


if __name__ == "__main__":
    main()
