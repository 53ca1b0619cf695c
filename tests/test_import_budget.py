"""Importing the CLI loads only what every command runs: `scipy.stats` is
not used at all, `requests` only by the HTTP transports, which import it on
their first call, `multiprocessing` only by the `tree` stage, which imports
it where it opens its pool of fit workers, and no `scipy` module at all
until a topology report is computed (`shatter`, `shatter-sweep`), whose
helpers import `scipy.sparse` on their first call."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(code: str) -> set[str]:
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(result.stdout))


def test_importing_the_cli_loads_neither_scipy_stats_nor_requests():
    loaded = loaded_modules("import hopbench.cli")
    assert "hopbench.pipeline" in loaded
    assert {"scipy.stats", "requests", "multiprocessing"} & loaded == set()


def test_importing_the_cli_loads_no_scipy_module():
    loaded = loaded_modules("import hopbench.cli")
    assert "hopbench.topology" in loaded
    assert sorted(name for name in loaded if name.split(".")[0] == "scipy") == []


def test_a_topology_report_loads_csgraph_on_its_first_call():
    code = """
import sys
from hopbench.kg import Evidence, KnowledgeGraph, Triplet
from hopbench.topology import topology_report

assert "scipy.sparse.csgraph" not in sys.modules
graph = KnowledgeGraph()
a, b, c = (graph.add_entity(name).entity_id for name in ("A", "B", "C"))
for head, tail in ((a, b), (b, c)):
    evidence = Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1)
    graph.add_edge(Triplet(head=head, relation="r", tail=tail, evidence=evidence, source_node_id="n0"))
report = topology_report(graph)
assert (report.largest_component_size, round(report.average_shortest_path, 6)) == (3, 1.333333), report
"""
    assert "scipy.sparse.csgraph" in loaded_modules(code)
