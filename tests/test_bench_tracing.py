"""The traced benchmark run wraps library functions by name; a rename or a
move in the library must fail here, not silently drop a layer from the
bench's per-module metrics."""

import importlib
import importlib.util
import sys
from pathlib import Path

import cogrowth.cli  # noqa: F401  (the tracer wraps cli.main too)
import cogrowth.pipeline
from cogrowth import Alphabet, parse_word

ROOT = Path(__file__).parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions(tracing):
    """(owner, attribute) of every function that TRACED names."""
    for module, names in tracing.TRACED.items():
        for name in names:
            owner = importlib.import_module(f"cogrowth.{module}")
            *classes, attr = name.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            yield owner, attr


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr in traced_functions(tracing)
        if not hasattr(owner, attr)
    ]
    assert missing == []


def snapshot():
    """Every value bound in a cogrowth namespace or class dict."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cogrowth" or name.startswith("cogrowth.")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_records_reduce_step_and_restores_every_function():
    tracing = load_tracing()
    ab = Alphabet.from_spec("xyzt")
    gens = [parse_word("yX", ab), parse_word("yzYzt", ab)]
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        steps = cogrowth.pipeline.reduce_full(gens, ab).steps
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    assert calls["pipeline.reduce_step"] == len(steps) == 4
    assert calls["pipeline.reduce_full"] == 1
    assert tracer.counts["pipeline.steps"] == 4
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
