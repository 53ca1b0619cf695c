"""No dead code in the package: every function, class and method defined in
``src/hopbench`` is named somewhere in ``src/hopbench`` or ``perfbench/``
outside its own ``def``/``class`` line. Tests do not count as a use: code
that only tests reach is deleted, and its tests go with it or are pointed at
the code the pipeline runs.

A use is a name token of code; comments, docstrings and messages are not
uses. In ``perfbench/`` string literals count too, because the span tracer
looks program attributes up by name. Dunder methods are called by Python
itself and are not checked."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopbench"
BENCHMARK = ROOT / "perfbench"

# Names that are used although no code spells them out, each with its reason.
ALLOWED = {
    "run_ingest": "the CLI registers `hopbench ingest` through getattr(pipeline, 'run_' + stage name)",
    "run_chunk": "the CLI registers `hopbench chunk` through getattr(pipeline, 'run_' + stage name)",
    "run_tree": "the CLI registers `hopbench tree` through getattr(pipeline, 'run_' + stage name)",
    "run_extract": "the CLI registers `hopbench extract` through getattr(pipeline, 'run_' + stage name)",
    "write_toy_config": "a click command: its decorator registers `hopbench write-toy-config`",
}


def _definitions() -> list[tuple[Path, str, int]]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.append((path, node.name, node.lineno))
    return found


def _uses(path: Path, with_strings: bool) -> list[tuple[str, int]]:
    """(name, line) for every name token that is not the name being defined
    by ``def`` or ``class``, and for the words in f-string fields (one string
    token before Python 3.12); with ``with_strings``, words in any string."""
    uses = []
    previous = ""
    source = path.read_text(encoding="utf-8")
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            uses.append((token.string, token.start[0]))
        elif token.type == tokenize.STRING:
            text = token.string
            if not with_strings:
                is_f_string = re.match(r"[rRbBuU]?[fF]", text)
                text = " ".join(re.findall(r"\{([^{}]*)\}", text)) if is_f_string else ""
            uses += [(word, token.start[0]) for word in re.findall(r"\w+", text)]
        if token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = token.string
    return uses


def test_every_definition_is_used_outside_tests():
    used: dict[str, set[tuple[Path, int]]] = {}
    for root, with_strings in ((PACKAGE, False), (BENCHMARK, True)):
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            for name, line in _uses(path, with_strings):
                used.setdefault(name, set()).add((path, line))
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, name, line in _definitions()
        if name not in ALLOWED and not used.get(name, set()) - {(path, line)}
    ]
    assert not unused, "defined but used only by tests, or not at all:\n" + "\n".join(unused)


def test_allowed_names_are_still_defined():
    defined = {name for _, name, _ in _definitions()}
    assert not set(ALLOWED) - defined, f"stale allow-list entries: {sorted(set(ALLOWED) - defined)}"
