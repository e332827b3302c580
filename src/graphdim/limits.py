"""Solver size caps.

Exact search is exponential, so every solver entry point and the loader
``inputs.load_input`` refuse graphs larger than a cap; ``subdim`` and
``subdim_exists`` (and their oracle ``subdim_naive``) take none by design.
The default is 16 vertices; the GRAPHDIM_CAP environment variable overrides
it globally, and every capped function also takes an explicit ``cap=``
argument.  The cap is the only size limit.  An explicit cap must be an
integer (``core._integer``) and GRAPHDIM_CAP must be one by the edge-list
rule ``core._INTEGER``; anything else is a DomainError, not a refusal.
"""

import os

from .core import _INTEGER, _integer
from .errors import CapExceeded, DomainError

DEFAULT_CAP = 16
CAP_ENV_VAR = "GRAPHDIM_CAP"


def resolve_cap(cap: int | None = None) -> int:
    """Explicit cap if given, else GRAPHDIM_CAP from the environment, else 16."""
    if cap is not None:
        return _integer(cap, "cap")
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    if not _INTEGER.fullmatch(raw):
        raise DomainError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    return int(raw)


def require_within_cap(n: int, cap: int | None, what: str) -> None:
    """Raise CapExceeded when a graph of n vertices is beyond the cap."""
    limit = resolve_cap(cap)
    if n > limit:
        raise CapExceeded(f"{what} refuses n={n} > cap={limit}; raise {CAP_ENV_VAR} or pass cap=")
