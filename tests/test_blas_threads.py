"""Importing hopbench pins OpenBLAS to one thread unless the user chose."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def threads_after_import(value: str | None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    code = "import os, hopbench; print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return result.stdout.strip()


@pytest.mark.parametrize("value, expected", [(None, "1"), ("3", "3")])
def test_import_sets_one_blas_thread_unless_set(value, expected):
    assert threads_after_import(value) == expected
