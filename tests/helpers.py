"""Helpers shared by the test modules."""

import itertools
import os
from pathlib import Path

import graphdim
from graphdim.core import Graph

# the directory holding the graphdim package these tests import
_PACKAGE_ROOT = str(Path(graphdim.__file__).resolve().parents[1])


def random_graph(rng, n, p=0.5):
    """G(n, p) drawn from `rng`, one coin per vertex pair in lexicographic order."""
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def subprocess_env(extra=None):
    """os.environ plus `extra`, with the imported graphdim's directory first
    on PYTHONPATH, so that `python -m graphdim` runs the code under test."""
    env = dict(os.environ)
    env.update(extra or {})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env
