"""Batch command-line front end.

Exit codes: 0 success (and verdict "true" where applicable), 1 a checked
verdict is false, 2 input error (including a file that cannot be read or
is not UTF-8 text, a non-positive cap, input nested too deeply for
Python's recursion limit, and a write error on stdout), 3 the one
resource cap, `--max-states`, was exceeded, 4 an internal error (an
unexpected exception). Each is reported in one line, on stderr only.

Each handler loads its input, calls the library and prints what it
returns; verdicts and their wording live in the library (`verify-translation`
prints `translate.verification_checks`). Each command imports the layers it
runs when it runs, so a process loads no more of the package than its
command needs (`validate` loads only the parser and the term language).
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from pathlib import Path

from .errors import GvpaError, ResourceLimitError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--max-states", type=_positive_int, metavar="N",
                        default=argparse.SUPPRESS)

    top = argparse.ArgumentParser(
        prog="gvpa", parents=[common],
        description="Tooling for a process algebra with global variables.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="parse and check a specification")
    p.add_argument("file")

    p = sub.add_parser("lts", parents=[common],
                       help="generate the LTS of the init state")
    p.add_argument("file")
    p.add_argument("--format", choices=("aut", "dot"), default="aut")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("bisim", parents=[common], help="decide a bisimilarity")
    p.add_argument("file")
    p.add_argument("--mode", required=True,
                   choices=("strong", "state-based", "stateless"))
    p.add_argument("--left", required=True, metavar="NAME_OR_EXPR")
    p.add_argument("--right", required=True, metavar="NAME_OR_EXPR")
    p.add_argument("--valuation", metavar="x=v,...")

    p = sub.add_parser("modelcheck", parents=[common],
                       help="evaluate a formula at the init state")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", metavar="STR")
    group.add_argument("--formula-file", metavar="PATH")

    p = sub.add_parser("distinguish", parents=[common],
                       help="synthesize a distinguishing formula")
    p.add_argument("file")
    p.add_argument("--mode", required=True, choices=("state-based", "stateless"))
    p.add_argument("--left", required=True, metavar="NAME_OR_EXPR")
    p.add_argument("--right", required=True, metavar="NAME_OR_EXPR")
    p.add_argument("--valuation", metavar="x=v,...")

    p = sub.add_parser("translate", parents=[common],
                       help="emit .mcrl2/.mcf files")
    p.add_argument("file")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--formulas", metavar="PATH",
                   help="file with one check-fragment formula per line")

    p = sub.add_parser("verify-translation", parents=[common],
                       help="machine-check the translation on this spec")
    p.add_argument("file")
    p.add_argument("--formulas", metavar="PATH")

    return top


def _config(args):
    """The cap given on the command line, or the default one."""
    from .sos import DEFAULT_CONFIG, ExplorationConfig

    return ExplorationConfig(args.max_states) if "max_states" in args else DEFAULT_CONFIG


def _load(args):
    from .parser import parse_spec

    text = Path(args.file).read_text(encoding="utf-8")
    return parse_spec(text)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_validate(args) -> int:
    _load(args)  # parsing validates: any problem raises and exits 2
    _emit(args, {"ok": True, "problems": []}, "ok")
    return EXIT_OK


def _cmd_lts(args) -> int:
    from .sos import export_lts, generate_lts

    spec, init = _load(args)
    lts = generate_lts(spec, init, _config(args))
    if args.out:
        with Path(args.out).open("w", encoding="utf-8") as out:
            export_lts(lts, args.format, out)
        _emit(args, {"states": len(lts.states),
                     "transitions": len(lts.transitions),
                     "out": args.out},
              f"wrote {args.out}: {len(lts.states)} states, "
              f"{len(lts.transitions)} transitions")
    else:
        export_lts(lts, args.format, sys.stdout)
    return EXIT_OK


def _decide(args):
    """Loads the two sides and returns the verdict in the chosen mode and,
    when a state-based or stateless verdict is false, a distinguishing
    formula and the valuation it is evaluated at."""
    from .bisim import (
        distinguishing_formula_state_based, distinguishing_formula_stateless,
        state_based_bisim, stateless_bisim, strong_bisim,
    )
    from .parser import parse_expr, parse_valuation
    from .sos import GvState, explore

    spec, init = _load(args)
    cfg = _config(args)
    left = parse_expr(args.left, spec)
    right = parse_expr(args.right, spec)
    valuation = (parse_valuation(args.valuation, spec) if args.valuation
                 else init.valuation)
    if args.mode == "stateless":
        result = stateless_bisim(spec, left, right, cfg)
        if result.equivalent:
            return result, None, None
        return (result, *distinguishing_formula_stateless(result, at=valuation))
    s, t = GvState(left, valuation), GvState(right, valuation)
    if args.mode == "strong":
        lts, (si, ti) = explore(spec, [s, t], cfg)
        return strong_bisim(lts, si, ti), None, None
    result = state_based_bisim(spec, s, t, cfg)
    if result.equivalent:
        return result, None, None
    return result, distinguishing_formula_state_based(result), valuation


def _cmd_bisim(args) -> int:
    result, formula, witness = _decide(args)
    shown = None
    if formula is not None:
        from .hml import formula_str  # a bisimilar pair needs no formula module

        shown = formula_str(formula)
    payload = {
        "mode": args.mode,
        "verdict": result.equivalent,
        "relation_size": result.relation_size,
        "witness_formula": shown,
        "witness_valuation": str(witness) if witness is not None else None,
    }
    human = f"{args.mode}: {'bisimilar' if result.equivalent else 'not bisimilar'}"
    if shown is not None:
        human += f"\nformula: {shown}"
    if witness is not None:
        human += f"\nvaluation: {witness}"
    _emit(args, payload, human)
    return EXIT_OK if result.equivalent else EXIT_FALSE


def _cmd_modelcheck(args) -> int:
    from .hml import formula_str, fragment, holds, parse_formula
    from .sos import GvState

    spec, init = _load(args)
    cfg = _config(args)
    if args.formula is not None:
        text = args.formula
    else:
        text = Path(args.formula_file).read_text(encoding="utf-8")
    formula = parse_formula(text, spec)
    verdict = holds(spec, GvState(init.root, init.valuation), formula, cfg)
    _emit(args, {"verdict": verdict,
                 "fragment": fragment(formula),
                 "formula": formula_str(formula)},
          "true" if verdict else "false")
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_distinguish(args) -> int:
    from .hml import formula_str

    result, formula, witness = _decide(args)
    if result.equivalent:
        message = "bisimilar: no distinguishing formula exists"
        _emit(args, {"verdict": None, "message": message}, message)
        return EXIT_FALSE
    _emit(args, {"formula": formula_str(formula), "valuation": str(witness)},
          f"{formula_str(formula)}\nvaluation: {witness}")
    return EXIT_OK


def _load_formulas(path: str | None, spec) -> list:
    if path is None:
        return []
    from .hml import parse_formulas

    return parse_formulas(Path(path).read_text(encoding="utf-8"), spec)


def _cmd_translate(args) -> int:
    from . import translate as tr
    from .sos import export_lts

    spec, init = _load(args)
    formulas = [tr.translate_formula(f)
                for f in _load_formulas(args.formulas, spec)]
    pipeline = tr.run_pipeline(spec, init.root, init.valuation, _config(args))
    base = Path(args.file).stem
    files = tr.emit_mcrl2_files(pipeline.out, formulas, base=base)
    # .aut exports of both sides, for external ltscompare cross-validation
    files[f"{base}.source.aut"] = export_lts(pipeline.gv_lts, "aut")
    files[f"{base}.translated.aut"] = export_lts(pipeline.m_lts, "aut")
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    _emit(args, {"files": sorted(files)},
          "\n".join(f"wrote {directory / name}" for name in sorted(files)))
    return EXIT_OK


def _cmd_verify_translation(args) -> int:
    from . import translate as tr

    spec, init = _load(args)
    pipeline = tr.run_pipeline(spec, init.root, init.valuation, _config(args))
    checks = tr.verification_checks(pipeline, _load_formulas(args.formulas, spec))
    all_ok = all(ok for _, ok, _ in checks)
    payload = {"ok": all_ok,
               "consistency": pipeline.consistency.as_dict(),
               "checks": [{"name": name, "ok": ok, "detail": detail}
                          for name, ok, detail in checks]}
    human = "\n".join(
        f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
        for name, ok, detail in checks)
    _emit(args, payload, human)
    return EXIT_OK if all_ok else EXIT_FALSE


_COMMANDS = {
    "validate": _cmd_validate,
    "lts": _cmd_lts,
    "bisim": _cmd_bisim,
    "modelcheck": _cmd_modelcheck,
    "distinguish": _cmd_distinguish,
    "translate": _cmd_translate,
    "verify-translation": _cmd_verify_translation,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv, namespace=argparse.Namespace(json=False))
    try:
        code = _COMMANDS[args.command](args)
        # a write error at the last flush is an input error, too
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except ResourceLimitError as err:
        return _report(f"resource limit: {err}", EXIT_RESOURCE)
    except (GvpaError, OSError, UnicodeDecodeError) as err:
        return _report(f"error: {err}", EXIT_INPUT)
    except RecursionError:
        return _report("error: input nested too deeply for the recursion limit", EXIT_INPUT)
    except Exception as err:
        # a bug, not a verdict: exit 1 must keep meaning "false"
        return _report(f"internal error: {err!r}", EXIT_INTERNAL)


def _report(line: str, code: int) -> int:
    """Writes one line to stderr, never stdout, and returns ``code``; a
    closed (None) or read-only stderr loses the line but not the code."""
    with suppress(AttributeError, OSError):
        sys.stderr.write(line + "\n")
    return code


def console_main() -> None:
    """Runs `main` and ends the process once both streams are flushed,
    without finalising the interpreter: freeing every term and module can
    take longer than the command's own work. `main` flushed stdout and
    reported a failure there, so a flush error here changes no exit code."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, OSError):  # a closed stream is None
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
