"""A provider failure is never data: no ``except`` clause in ``src/hopbench``
names ``ProviderError`` or one of its subclasses. The error reaches the CLI,
which exits with ``EXIT_PROVIDER`` (4), whatever the stage; a stage that
caught it would turn an outage into an answer, a discard or a missing vote
and record itself as done."""

from __future__ import annotations

import ast
from pathlib import Path

from hopbench import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopbench"

PROVIDER_ERRORS = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.ProviderError)
}


def _caught_names(handler: ast.ExceptHandler) -> list[str]:
    """The class names an ``except`` clause lists: ``E``, ``mod.E`` or a tuple of them."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", "") for t in types if t is not None]


def test_provider_errors_are_known():
    assert {"ProviderError", "TransportError", "ProtocolError", "ProviderFaultError"} <= PROVIDER_ERRORS


def test_no_stage_catches_a_provider_error():
    caught = [
        f"{path.relative_to(PACKAGE.parents[1])}:{node.lineno} except {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler)
        for name in _caught_names(node)
        if name in PROVIDER_ERRORS
    ]
    assert not caught, "a provider failure must end the stage (exit 4), not be handled:\n" + "\n".join(caught)
