"""Make ``perfbench`` and the program under ``src/`` importable."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

#: Input sizes small enough for a test, per workload.
TINY = {
    "ii-ba": {"n": 300, "m_attach": 3},
    "mwm-seeds": {"n": 60, "m_attach": 3, "lanes": 3},
    "lca-mixed": {"n": 400, "m_attach": 3, "max_entries": 32, "hot": 64,
                  "zipf_a": 0.8, "tail_share": 0.5, "edge_share": 0.5, "chunk": 256},
    "switch-paper": {"ports": 4, "load": 0.9, "k": 2, "slots": 8, "warmup": 2},
}


@pytest.fixture
def tiny():
    """Workload name → input sizes small enough for a test."""
    return TINY


@pytest.fixture(params=sorted(TINY))
def tiny_workload(request):
    from perfbench import workloads

    return workloads.make(request.param, TINY[request.param])
