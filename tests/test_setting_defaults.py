"""One home per setting: a parameter in ``src/hopbench`` named after a
setting has no default, so its caller passes the value it read from
``PipelineConfig``. A default there would be a second copy of the setting,
and a caller that left the setting out would run under it silently. A
setting is a ``PipelineConfig`` field, or one of the names in
``LAYER_NAMES`` that layers give a setting (or the whole config)."""

from __future__ import annotations

import ast
from pathlib import Path

from hopbench.config import PipelineConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopbench"

LAYER_NAMES = {
    "model_name", "K_max", "n_restarts", "counting_unit", "theta_schedule", "percentile",
    "max_sentences", "dimension", "temperature", "master_seed", "rng_seed", "config",
}
SETTING_NAMES = set(PipelineConfig.__dataclass_fields__) | LAYER_NAMES

# (file, function, parameter) of the defaults that stay, each with its reason.
ALLOWED = {
    ("kg.py", "apply_frequencies", "counting_unit"): "perfbench/tests calls it without one; perfbench/ is fixed",
    ("align.py", "fuzzy_merge", "theta_schedule"): "perfbench/tests calls it without one; perfbench/ is fixed",
    ("toydata.py", "toy_config", "seed"): "the toy run's own seed",
}


def setting_defaults(node: ast.AST, prefix: str = ""):
    """(qualified function name, parameter) for each parameter named after a
    setting that has a default, in functions and methods under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            args = child.args
            positional = args.posonlyargs + args.args
            with_defaults = positional[len(positional) - len(args.defaults):]
            with_defaults += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from ((name, a.arg) for a in with_defaults if a.arg in SETTING_NAMES)
            yield from setting_defaults(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from setting_defaults(child, prefix + child.name + ".")
        else:
            yield from setting_defaults(child, prefix)


def test_no_parameter_named_after_a_setting_has_a_default():
    found = {
        (path.name, function, parameter)
        for path in sorted(PACKAGE.rglob("*.py"))
        for function, parameter in setting_defaults(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert not found - set(ALLOWED), "settings with a default:\n" + "\n".join(map(str, sorted(found - set(ALLOWED))))
    assert not set(ALLOWED) - found, f"stale allow-list entries: {sorted(set(ALLOWED) - found)}"


def test_the_scan_finds_defaults_of_functions_methods_and_keyword_parameters():
    source = """
def tokenize(text, language="EN"): ...
class Transport:
    def __init__(self, *, seed=0, timeout=60.0): ...
def run(config):
    def inner(items, rng_seed=None): ...
"""
    assert set(setting_defaults(ast.parse(source))) == {
        ("tokenize", "language"),
        ("Transport.__init__", "seed"),
        ("run.inner", "rng_seed"),
    }
