"""The benchmark's tracer rebinds gvpa's layer entry points by identity.

perfbench/layers.py names each traced entry point as (module, function).
Every name must resolve to its own function object: a missing name breaks
`perfbench/run.py --trace 1`, and an alias of another entry point would be
wrapped twice and charged to the wrong layer.
"""
import importlib
import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve_to_distinct_functions():
    layers = _load_layers()
    seen = {}
    for module_name, fn_name in layers.SPANS + layers.COUNTERS:
        module = importlib.import_module(f"gvpa.{module_name}")
        fn = getattr(module, fn_name, None)
        assert callable(fn), f"gvpa.{module_name}.{fn_name} is missing"
        assert id(fn) not in seen, (
            f"gvpa.{module_name}.{fn_name} is the same object as {seen[id(fn)]}")
        seen[id(fn)] = f"gvpa.{module_name}.{fn_name}"
    for module_name in layers.MODULES:
        importlib.import_module(f"gvpa.{module_name}")
