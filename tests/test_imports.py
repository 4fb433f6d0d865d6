"""What importing the package and running one command loads.

`import gvpa` is lazy and each command imports only the layers it runs,
so a cold `gvpa validate` compiles three modules rather than all eight.
The footprint checks run each command in a fresh interpreter, where an
import cycle would show.
"""
import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import gvpa

DATA = pathlib.Path(__file__).parent / "data"
TRAFFIC = str(DATA / "traffic.gvpa")
SRC = str(pathlib.Path(gvpa.__file__).resolve().parent.parent)
LAYERS = pathlib.Path(__file__).parent.parent / "perfbench" / "layers.py"

# The public names of the package, by the module that defines them.
EXPORTS = {
    "errors": [
        "ContractViolationError", "FragmentError", "GvpaError",
        "ResourceLimitError", "SpecSyntaxError", "SpecValidationError",
    ],
    "syntax": [
        "Action", "Assign", "Choice", "CommFunction", "Cond", "Deadlock",
        "DomainDef", "Encap", "InitSpec", "Name", "Parallel", "Prefix",
        "ProcessExpr", "RecursiveSpec", "TransitionLabel", "Valuation",
        "enumerate_valuations", "expr_str", "label_str", "validate_comm",
        "validate_guardedness", "validate_spec",
    ],
    "parser": ["parse_expr", "parse_spec"],
    "sos": [
        "ExplorationConfig", "GvState", "Lts", "explore", "export_lts",
        "generate_lts", "reachable_exprs", "state_str", "step",
    ],
    "hml": [
        "And", "Box", "Check", "Diamond", "HFalse", "HTrue", "HmlFormula",
        "Not", "Or", "SetVar", "StateSpace", "build_state_space",
        "eval_formula", "eval_modal_on_lts", "formula_str", "fragment",
        "parse_formula", "set_all",
    ],
    "bisim": [
        "BisimResult", "distinguishing_formula_state_based",
        "distinguishing_formula_stateless", "state_based_bisim",
        "state_based_bisim_on_lts", "stateless_bisim", "strong_bisim",
    ],
}
# the sorted names above and the six modules, as `__all__` has listed them
ALL = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def _names_read(tree):
    """The names a module reads (as a name, an attribute or the module of a
    ``from`` import), except where a top-level definition reads its own."""
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.ImportFrom) and node.module:
                name = node.module.rpartition(".")[2]
            else:
                continue
            if name != own:
                yield name


class TestPackageExports:
    def test_all_is_unchanged(self):
        assert len(ALL) == 70
        assert gvpa.__all__ == ALL

    def test_each_name_is_its_module_attribute(self):
        for module_name, names in EXPORTS.items():
            module = importlib.import_module(f"gvpa.{module_name}")
            assert getattr(gvpa, module_name) is module
            for name in names:
                assert getattr(gvpa, name) is getattr(module, name), name

    def test_dir_lists_the_names(self):
        assert set(ALL) <= set(dir(gvpa))

    def test_star_import(self):
        namespace: dict = {}
        exec("from gvpa import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(ALL)
        assert namespace["parse_spec"] is gvpa.parser.parse_spec

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gvpa.no_such_name

    def test_each_name_has_a_caller(self):
        # read in the package outside its own definition, or traced by the
        # benchmark: a name only tests call is not shipped
        read = set()
        for path in pathlib.Path(gvpa.__file__).parent.glob("*.py"):
            read.update(_names_read(ast.parse(path.read_text(encoding="utf-8"))))
        spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        traced = {fn_name for _, fn_name in layers.SPANS + layers.COUNTERS}
        assert set(ALL) - read - traced == set()

    def test_submodule_imports(self):
        from gvpa import hml, mcrl2, syntax

        assert hml is sys.modules["gvpa.hml"]
        assert mcrl2 is sys.modules["gvpa.mcrl2"]
        assert syntax.Term is importlib.import_module("gvpa.syntax").Term
        import gvpa.sos

        assert gvpa.sos.GvState is gvpa.GvState


_BASE = {"gvpa", "gvpa.cli", "gvpa.errors", "gvpa.parser", "gvpa.syntax"}
_TRANSLATION = _BASE | {"gvpa.sos", "gvpa.hml", "gvpa.bisim", "gvpa.mcrl2",
                        "gvpa.translate"}

# (command line, the gvpa modules it loads)
FOOTPRINTS = {
    "validate": (["validate", TRAFFIC], _BASE),
    "lts": (["lts", TRAFFIC], _BASE | {"gvpa.sos"}),
    "bisim": (["bisim", TRAFFIC, "--mode", "strong", "--left", "CAR",
               "--right", "CAR"], _BASE | {"gvpa.sos", "gvpa.bisim"}),
    # a pair that is not bisimilar gets a distinguishing formula
    "bisim-distinct": (["bisim", TRAFFIC, "--mode", "stateless", "--left", "CAR",
                        "--right", "TLC"], _BASE | {"gvpa.sos", "gvpa.hml", "gvpa.bisim"}),
    "modelcheck": (["modelcheck", TRAFFIC, "--formula", "<drive> true"],
                   _BASE | {"gvpa.sos", "gvpa.hml"}),
    "distinguish": (["distinguish", TRAFFIC, "--mode", "stateless", "--left",
                     "CAR", "--right", "TLC"],
                    _BASE | {"gvpa.sos", "gvpa.hml", "gvpa.bisim"}),
    "translate": (["translate", TRAFFIC, "--out", "{out}"], _TRANSLATION),
    "verify-translation": (["verify-translation", TRAFFIC], _TRANSLATION),
}

# Prints the loaded modules the footprint checks look at, as the last line
# of stderr.
_REPORT = """
watched = ("gvpa", "dataclasses", "json")
loaded = [m for m in sys.modules if m.partition(".")[0] in watched]
sys.stderr.write("\\n" + " ".join(sorted(loaded)) + "\\n")
"""
_COMMAND = ("import sys\nfrom gvpa.cli import main\ncode = main(sys.argv[1:])\n"
            + _REPORT + "sys.exit(code)\n")


def _fresh(argv, code=_COMMAND):
    """Runs ``code`` with ``argv`` in a fresh interpreter; returns its exit
    code and the modules named on its last stderr line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr, done.stderr
    return done.returncode, set(done.stderr.splitlines()[-1].split())


class TestImportFootprint:
    @pytest.mark.parametrize("command", list(FOOTPRINTS))
    def test_command_loads_only_its_layers(self, tmp_path, command):
        argv, expected = FOOTPRINTS[command]
        code, loaded = _fresh([a.format(out=tmp_path / "out") for a in argv])
        assert code in (0, 1)
        assert loaded == expected

    def test_json_loads_only_with_the_flag(self):
        code, loaded = _fresh(["--json", "validate", TRAFFIC])
        assert code == 0
        assert "json" in loaded
        assert {m for m in loaded if not m.startswith("json")} == _BASE

    def test_import_gvpa_loads_nothing_else(self):
        code, loaded = _fresh([], "import sys\nimport gvpa\n" + _REPORT)
        assert code == 0
        assert loaded == {"gvpa"}
