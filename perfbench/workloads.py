"""The benchmark's workloads: seeded input files, jobs and known answers.

Every job is one `gvpa` command line. Its check returns None when the
command's exit code, output and written files match the known answer,
and otherwise a one-line reason. Digests are taken after stripping the
seed's name tag, and compared with the pins in expected.json.
"""
from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import families as F

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Why each workload and size was chosen (perfbench/NOTES.md has more):
# grid: W(6,4) is the largest grid under the default --max-valuations of
#   4096; the equivalence jobs run on W(5,4) so one pass stays near 10 s.
# closure: R(4,8) has 4096 expressions, as many as W(6,4) has valuations,
#   so the two workloads weigh one axis against the other.
# translate: the mCRL2 side grows with k on W(1,k) and with the handshake
#   on R; R(3,2), the smallest three-component ring, takes about 5 s.
#   Only four instances also run `translate --out`, to keep a pass under
#   20 jobs.
SIZES = {
    "grid": {"lts": (6, 4), "modelcheck": (6, 4), "equivalence": (5, 4)},
    "closure": {"lts": (4, 8), "strong": (4, 6), "stateless": (4, 8),
                "distinguish": (4, 6), "modelcheck": (4, 8)},
    "translate": {"grids": [(1, k) for k in range(2, 9)] + [(2, 2)],
                  "rings": [(2, 2), (2, 4), (3, 2)], "draws": 3,
                  "emit": ["traffic", "W1_4", "W2_2", "R2_2"]},
}
# The smallest instance of each workload, for the self-test.
SMALL_SIZES = {
    "grid": {"lts": (2, 2), "modelcheck": (2, 3), "equivalence": (2, 2)},
    "closure": {"lts": (2, 2), "strong": (2, 2), "stateless": (2, 2),
                "distinguish": (2, 2), "modelcheck": (2, 2)},
    "translate": {"grids": [(1, 2)], "rings": [(2, 2)], "draws": 1,
                  "emit": ["traffic", "W1_2"]},
}
WORKLOADS = tuple(SIZES)


@dataclass
class Outcome:
    """What one run of a job left behind."""
    code: int
    stdout: str
    stderr: str
    outdir: Path


@dataclass
class Job:
    name: str                  # seed-independent; keys the pinned digests
    args: list[str]
    expect_code: int
    check: Callable[[Outcome], str | None]
    pins: dict[str, Callable[[Outcome], str]] = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.args[0]


def digest(text: str, tag: str) -> str:
    return hashlib.sha256(text.replace(tag, "").encode()).hexdigest()


def aut_counts(text: str) -> tuple[int, int] | None:
    match = re.match(r"des \((\d+),(\d+),(\d+)\)", text)
    return (int(match[3]), int(match[2])) if match else None


def judge(job: Job, outcome: Outcome, expected: dict, tag: str,
          pinned: dict | None = None) -> str | None:
    """None if the job's outcome is right, else why not. With `pinned`,
    records the digests instead of comparing them."""
    if "Traceback (most recent call last)" in outcome.stderr:
        return "traceback on stderr"
    if outcome.code != job.expect_code:
        return (f"exit code {outcome.code}, expected {job.expect_code}: "
                f"{outcome.stderr.strip()[-200:]}")
    reason = job.check(outcome)
    if reason:
        return reason
    for label, produce in job.pins.items():
        try:
            got = digest(produce(outcome), tag)
        except OSError as err:
            return f"{label}: {err}"
        if pinned is not None:
            pinned.setdefault(job.name, {})[label] = got
        elif expected.get(job.name, {}).get(label) != got:
            return f"{label}: digest {got[:12]} differs from the pinned one"
    return None


# ---------------------------------------------------------------------------
# Checks


def stdout_is(text: str):
    def check(o: Outcome):
        return None if o.stdout == text else f"stdout {o.stdout[:80]!r}, expected {text!r}"
    return check


def lts_check(states: int, transitions: int):
    def check(o: Outcome):
        got = aut_counts(o.stdout)
        if got != (states, transitions):
            return f"lts counts {got}, expected {(states, transitions)}"
        lines = o.stdout.count("\n")
        if lines != transitions + 1:
            return f"{lines} .aut lines for {transitions} transitions"
        return None
    return check


def witness_check(o: Outcome):
    lines = o.stdout.splitlines()
    if len(lines) != 2 or not lines[0].strip() or not lines[1].startswith("valuation: "):
        return f"no distinguishing formula and valuation in {o.stdout[:120]!r}"
    return None


def verify_check(states: int, transitions: int, n_vars: int):
    detail = (f"PASS structure-preservation (source {states}/{transitions}, "
              f"translated {states}/{transitions + states * n_vars})")

    def check(o: Outcome):
        lines = o.stdout.splitlines()
        failing = [line for line in lines if not line.startswith("PASS ")]
        if failing or len(lines) < 4:
            return f"not all checks pass: {failing[:2] or lines}"
        if detail not in lines:
            return f"structure-preservation line differs from {detail!r}"
        return None
    return check


def translate_check(base: str, states: int, transitions: int, n_vars: int):
    def check(o: Outcome):
        files = {p.name for p in o.outdir.iterdir()} if o.outdir.is_dir() else set()
        wanted = {f"{base}.mcrl2", f"{base}.source.aut", f"{base}.translated.aut"}
        if files != wanted:
            return f"wrote {sorted(files)}, expected {sorted(wanted)}"
        source = aut_counts((o.outdir / f"{base}.source.aut").read_text())
        target = aut_counts((o.outdir / f"{base}.translated.aut").read_text())
        if source != (states, transitions):
            return f"source .aut counts {source}, expected {(states, transitions)}"
        if target != (states, transitions + states * n_vars):
            return f"translated .aut counts {target}"
        return None
    return check


def read_out(name: str):
    return lambda o: (o.outdir / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Builders


def _write(workdir: Path, fname: str, spec: F.Spec) -> str:
    (workdir / fname).write_text(spec.text(), encoding="utf-8")
    return fname


def _valuation(spec: F.Spec, values: dict) -> str:
    return ",".join(f"{v}={values[v]}" for v in spec.variables)


def _grid(rng, tag, workdir, sizes):
    t = F.tagged(tag)
    jobs = []
    n, k = sizes["lts"]
    fname = _write(workdir, f"W{n}_{k}.gvpa", F.worker_grid(n, k, tag))
    jobs.append(Job(f"lts W({n},{k})", ["lts", fname], 0,
                    lts_check(*F.grid_counts(n, k)),
                    {"aut": lambda o: o.stdout}))

    # modelcheck from a seeded initial valuation; verdicts follow from W's
    # shape: w_i keeps x_i, assign(x_i, next) is the only update of x_i,
    # and every state has a successor.
    n, k = sizes["modelcheck"]
    r = [rng.randrange(k) for _ in range(n)]
    spec = F.worker_grid(n, k, tag, init=r)
    fname = _write(workdir, f"W{n}_{k}_init.gvpa", spec)
    v = spec.values
    x1, x2, w1 = t("x1"), t("x2"), t("w1")
    nxt, a = v[(r[0] + 1) % k], rng.randrange(k)
    plain = (f"[*] <*> true && [{w1}] ({x1} = {v[r[0]]}) "
             f"&& <assign({x1}, {nxt})> ({x1} = {nxt})")
    with_set = (f"set {x2} := {v[a]} . <assign({x2}, {v[(a + 1) % k]})> "
                f"({x2} = {v[(a + 1) % k]}) && <{w1}> ({x1} = {nxt})")
    jobs.append(Job(f"modelcheck W({n},{k})", ["modelcheck", fname, "--formula", plain],
                    0, stdout_is("true\n")))
    jobs.append(Job(f"modelcheck-set W({n},{k})",
                    ["modelcheck", fname, "--formula", with_set],
                    1, stdout_is("false\n")))

    n, k = sizes["equivalence"]
    spec = F.worker_grid(n, k, tag)
    fname = _write(workdir, f"W{n}_{k}.gvpa", spec)
    valuation = _valuation(spec, {x: rng.choice(spec.values) for x in spec.variables})
    left = " || ".join(t(f"W{i}") for i in range(1, n + 1))
    stuttered = " || ".join(t(f"S{i}") for i in range(1, n + 1))
    mutated = " || ".join([t("M1")] + [t(f"W{i}") for i in range(2, n + 1)])
    for mode in ("state-based", "stateless"):
        jobs.append(Job(f"bisim-{mode} W({n},{k})",
                        ["bisim", fname, "--mode", mode, "--left", left,
                         "--right", stuttered, "--valuation", valuation],
                        0, stdout_is(f"{mode}: bisimilar\n")))
    jobs.append(Job(f"distinguish-state-based W({n},{k})",
                    ["distinguish", fname, "--mode", "state-based", "--left", left,
                     "--right", mutated, "--valuation", valuation],
                    0, witness_check))
    return jobs, fname


def _closure(rng, tag, workdir, sizes):
    t = F.tagged(tag)
    jobs = []
    files = {}

    def ring_file(n, L):
        if (n, L) not in files:
            files[(n, L)] = _write(workdir, f"R{n}_{L}.gvpa", F.ring(n, L, tag))
        return files[(n, L)]

    def roots(n, shifted=False, rotated=False):
        comps = [t(f"C{i}_0") for i in range(1, n + 1)]
        if shifted:
            comps[0] = t("C1_1")
        if rotated:
            comps = comps[1:] + comps[:1]
        return f"encap({{{t('a1')}, {t('a2')}}}) ({' || '.join(comps)})"

    f_value = rng.choice((t("lo"), t("hi")))
    n, L = sizes["lts"]
    jobs.append(Job(f"lts R({n},{L})", ["lts", ring_file(n, L)], 0,
                    lts_check(*F.ring_counts(n, L)),
                    {"aut": lambda o: o.stdout}))
    # || is commutative and associative up to strong and stateless
    # bisimilarity, so the rotated ring is equivalent in both modes.
    for mode in ("strong", "stateless"):
        n, L = sizes[mode]
        jobs.append(Job(f"bisim-{mode} R({n},{L})",
                        ["bisim", ring_file(n, L), "--mode", mode,
                         "--left", roots(n), "--right", roots(n, rotated=True),
                         "--valuation", f"{t('f')}={f_value}"],
                        0, stdout_is(f"{mode}: bisimilar\n")))
    # With component 1 one stage ahead, s is enabled at once under f = lo;
    # the unshifted ring cannot synchronise before a t-step.
    n, L = sizes["distinguish"]
    jobs.append(Job(f"distinguish-stateless R({n},{L})",
                    ["distinguish", ring_file(n, L), "--mode", "stateless",
                     "--left", roots(n), "--right", roots(n, shifted=True),
                     "--valuation", f"{t('f')}={f_value}"],
                    0, witness_check))
    # Under f = hi no stage offers a1, so s is disabled; after t1, component
    # 1 offers a2 and the rest offer a1 once f = lo.
    n, L = sizes["modelcheck"]
    fname = _write(workdir, f"R{n}_{L}_init.gvpa",
                   F.ring(n, L, tag, f_init=int(f_value == t("hi"))))
    s, f = t("s"), t("f")
    formula = (f"set {f} := {t('hi')} . [{s}] false "
               f"&& <{t('t1')}> set {f} := {t('lo')} . <{s}> true")
    jobs.append(Job(f"modelcheck-set R({n},{L})",
                    ["modelcheck", fname, "--formula", formula],
                    0, stdout_is("true\n")))
    return jobs, ring_file(*sizes["strong"])


def _translate(rng, tag, workdir, sizes):
    instances = [("traffic", F.traffic(tag), (6, 9))]
    instances += [(f"W{n}_{k}", F.worker_grid(n, k, tag, extras=False),
                   F.grid_counts(n, k)) for n, k in sizes["grids"]]
    instances += [(f"R{n}_{L}", F.ring(n, L, tag), F.ring_counts(n, L))
                  for n, L in sizes["rings"]]
    for i in range(sizes["draws"]):
        spec, states, transitions = F.parseq_draw(rng, tag)
        instances.append((f"draw{i + 1}", spec, (states, transitions)))
    jobs = []
    for base, spec, (states, transitions) in instances:
        fname = _write(workdir, f"{base}.gvpa", spec)
        n_vars = len(spec.variables)
        jobs.append(Job(f"verify-translation {base}", ["verify-translation", fname],
                        0, verify_check(states, transitions, n_vars)))
        if base in sizes["emit"]:
            files = [f"{base}.mcrl2", f"{base}.source.aut", f"{base}.translated.aut"]
            jobs.append(Job(f"translate {base}",
                            ["translate", fname, "--out", f"out_{base}"], 0,
                            translate_check(base, states, transitions, n_vars),
                            {name: read_out(name) for name in files}))
    return jobs, "traffic.gvpa"


_BUILDERS = {"grid": _grid, "closure": _closure, "translate": _translate}


def build(workload: str, seed: int, workdir: Path, small: bool = False):
    """Writes the workload's input files into `workdir`. Returns the name
    tag, the set-up job (`validate` on the smallest spec) and the jobs in
    the seed's order."""
    rng = random.Random(f"{workload}/{seed}")
    tag = F.make_tag(rng)
    sizes = (SMALL_SIZES if small else SIZES)[workload]
    jobs, smallest = _BUILDERS[workload](rng, tag, workdir, sizes)
    setup = Job(f"validate {smallest}", ["validate", smallest], 0, stdout_is("ok\n"))
    rng.shuffle(jobs)
    return tag, setup, jobs
