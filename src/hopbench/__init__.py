"""hopbench: build a topology-regularized knowledge graph from raw text,
synthesize shortcut-resistant multi-hop QA items, and evaluate models with
behavioral shortcut diagnostics."""

import os

# The linear algebra works on matrices of at most a few hundred rows, where
# OpenBLAS threads only add CPU time. Set before anything imports numpy; a
# value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
