"""Importing the CLI loads only what every command runs: `scipy.stats` is
not used at all, `requests` only by the HTTP transports, which import it on
their first call, and `multiprocessing` only by the `tree` stage, which
imports it where it opens its pool of fit workers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_neither_scipy_stats_nor_requests():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    code = "import json, sys, hopbench.cli; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(result.stdout))
    assert "hopbench.pipeline" in loaded
    assert {"scipy.stats", "requests", "multiprocessing"} & loaded == set()
