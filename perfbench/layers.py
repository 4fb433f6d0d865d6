"""Per-layer tracing of one `gvpa` command, and the layer metrics.

Run as a script, it is a traced stand-in for the `gvpa` console script:

    PYTHONPATH=src python3 perfbench/layers.py SPANS.json ARGS...

It times a fresh import of gvpa.cli, rebinds the public entry points of
each layer in every gvpa module to timing wrappers (no source changes),
runs gvpa.cli.main(ARGS) and writes the spans and counters to SPANS.json
once the command has finished. A span records the wrapped function, its
parent span, its start and end, and counts taken from its result. A
recursive call records only the outermost span.

Imported, it turns the span files of a pass into the per-layer metrics.
"""
import sys
import time

# (module, function, span label). Each label is a layer boundary.
SPANS = [
    ("parser", "parse_spec"), ("parser", "parse_expr"),
    ("syntax", "validate_spec"),
    ("sos", "explore"), ("sos", "reachable_exprs"), ("sos", "export_lts"),
    ("hml", "build_state_space"), ("hml", "eval_formula"),
    ("hml", "eval_modal_on_lts"),
    ("bisim", "refinement_history"), ("bisim", "strong_bisim"),
    ("bisim", "state_based_bisim"), ("bisim", "stateless_bisim"),
    ("bisim", "distinguishing_formula_state_based"),
    ("bisim", "distinguishing_formula_stateless"),
    ("translate", "translate_init"), ("translate", "chi"),
    ("mcrl2", "explore_mcrl2"),
    ("translate", "emit_mcrl2_files"), ("translate", "build_consistency_map"),
    ("translate", "verify_variable_consistency"),
    ("translate", "check_theorem4"), ("translate", "check_corollary1"),
]
# Functions only counted: they run per state or per candidate.
COUNTERS = [("sos", "step"), ("mcrl2", "names_of")]
MODULES = ("syntax", "parser", "sos", "hml", "bisim", "mcrl2", "translate", "cli")


def _formula_nodes(formula) -> int:
    return 1 + sum(_formula_nodes(getattr(formula, part))
                   for part in ("sub", "left", "right") if hasattr(formula, part))


def _lts_size(result):
    lts = result[0]
    return {"states": len(lts.states), "transitions": len(lts.transitions)}


# Counts taken from a span's result, after its end time.
MEASURES = {
    "sos.explore": _lts_size,
    "mcrl2.explore_mcrl2": _lts_size,
    "sos.reachable_exprs": lambda r: {"exprs": len(r)},
    "hml.build_state_space": lambda r: {"states": len(r.states)},
    "bisim.refinement_history": lambda r: {"rounds": len(r) - 1},
    "bisim.distinguishing_formula_state_based": lambda r: {"nodes": _formula_nodes(r)},
    "bisim.distinguishing_formula_stateless": lambda r: {"nodes": _formula_nodes(r[0])},
}


class Tracer:
    def __init__(self):
        self.spans = []     # [label, parent index or None, start, end, counts]
        self.stack = []
        self.counts = {}

    def span(self, label, fn):
        spans, stack = self.spans, self.stack
        measure = MEASURES.get(label)
        busy = False

        def wrapper(*args, **kwargs):
            nonlocal busy
            if busy:
                return fn(*args, **kwargs)
            record = [label, stack[-1] if stack else None, 0.0, 0.0, {}]
            stack.append(len(spans))
            spans.append(record)
            busy = True
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                busy = False
                stack.pop()
            if measure is not None:
                record[4] = measure(result)
            return result
        return wrapper

    def counter(self, label, fn):
        counts = self.counts
        counts[label] = 0

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Rebinds each entry point wherever a gvpa module imported it."""
        import importlib

        modules = [importlib.import_module(f"gvpa.{m}") for m in MODULES]
        modules.append(importlib.import_module("gvpa"))
        for kind, points in ((self.span, SPANS), (self.counter, COUNTERS)):
            for module_name, fn_name in points:
                original = getattr(importlib.import_module(f"gvpa.{module_name}"),
                                   fn_name)
                wrapped = kind(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    start = time.perf_counter()
    import gvpa.cli
    import_s = time.perf_counter() - start
    import json

    tracer = Tracer()
    tracer.install()
    code = tracer.span("cli.main", gvpa.cli.main)(args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump({"import_s": import_s, "exit": code, "spans": tracer.spans,
                   "counts": tracer.counts}, out)
    return code


# ---------------------------------------------------------------------------
# Per-layer metrics of a pass

def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


# metric -> span labels whose self time it sums
TIME_METRICS = {
    "parser.parse_s": ["parser.parse_spec", "parser.parse_expr"],
    "syntax.validate_s": ["syntax.validate_spec"],
    "cli.self_s": ["cli.main"],
    "cli.export_s": ["sos.export_lts"],
    "sos.explore_s": ["sos.explore"],
    "sos.closure_s": ["sos.reachable_exprs"],
    "hml.grid_s": ["hml.build_state_space"],
    "hml.eval_s": ["hml.eval_formula", "hml.eval_modal_on_lts"],
    "bisim.structure_s": ["bisim.strong_bisim", "bisim.state_based_bisim",
                          "bisim.stateless_bisim"],
    "bisim.refine_s": ["bisim.refinement_history"],
    "bisim.distinguish_s": ["bisim.distinguishing_formula_state_based",
                            "bisim.distinguishing_formula_stateless"],
    "mcrl2.explore_s": ["mcrl2.explore_mcrl2"],
    "translate.chi_s": ["translate.translate_init", "translate.chi"],
    "translate.emit_s": ["translate.emit_mcrl2_files"],
    "translate.consistency_s": ["translate.build_consistency_map",
                                "translate.verify_variable_consistency"],
    "translate.theorem4_s": ["translate.check_theorem4"],
    "translate.corollary1_s": ["translate.check_corollary1"],
}
# metric -> (span label, count key); None sums the number of spans
COUNT_METRICS = {
    "sos.states": ("sos.explore", "states"),
    "sos.transitions": ("sos.explore", "transitions"),
    "sos.closure_calls": ("sos.reachable_exprs", None),
    "sos.closure_exprs": ("sos.reachable_exprs", "exprs"),
    "hml.grid_builds": ("hml.build_state_space", None),
    "hml.grid_states": ("hml.build_state_space", "states"),
    "bisim.refine_calls": ("bisim.refinement_history", None),
    "bisim.rounds": ("bisim.refinement_history", "rounds"),
    "mcrl2.explorations": ("mcrl2.explore_mcrl2", None),
    "mcrl2.states": ("mcrl2.explore_mcrl2", "states"),
    "mcrl2.transitions": ("mcrl2.explore_mcrl2", "transitions"),
}
FORMULA_SPANS = ("bisim.distinguishing_formula_state_based",
                 "bisim.distinguishing_formula_stateless")


def job_layers(trace: dict) -> dict:
    """Layer totals of one traced job."""
    spans = trace["spans"]
    own = self_times(spans)
    out = {name: 0.0 for name in TIME_METRICS}
    out.update({name: 0 for name in COUNT_METRICS})
    by_label = {}
    for i, (label, _, start, end, counts) in enumerate(spans):
        by_label.setdefault(label, []).append((own[i], end - start, counts))
    for name, labels in TIME_METRICS.items():
        out[name] = sum(o for label in labels for o, _, _ in by_label.get(label, ()))
    for name, (label, key) in COUNT_METRICS.items():
        entries = by_label.get(label, ())
        out[name] = len(entries) if key is None else sum(c[key] for _, _, c in entries)
    out["bisim.formula_nodes"] = sum(c["nodes"] for label in FORMULA_SPANS
                                     for _, _, c in by_label.get(label, ()))
    out["sos.step_calls"] = trace["counts"].get("sos.step", 0)
    out["mcrl2.candidates"] = trace["counts"].get("mcrl2.names_of", 0)
    out["cli.main_s"] = sum(d for _, d, _ in by_label.get("cli.main", ()))
    out["cli.import_s"] = trace["import_s"]
    return out


def pass_layers(job_traces: list[dict]) -> dict:
    """Sums of the jobs' layer totals; ratios and the import time (a
    median, since every job pays it once) are derived afterwards."""
    per_job = [job_layers(t) for t in job_traces]
    total = {name: sum(j[name] for j in per_job) for name in per_job[0]}
    imports = sorted(j["cli.import_s"] for j in per_job)
    total["cli.import_s"] = imports[len(imports) // 2]
    total["sos.transitions_per_s"] = (total["sos.transitions"] / total["sos.explore_s"]
                                      if total["sos.explore_s"] else 0.0)
    total["mcrl2.allow_kept_ratio"] = (total["mcrl2.transitions"] / total["mcrl2.candidates"]
                                       if total["mcrl2.candidates"] else 0.0)
    return total


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
