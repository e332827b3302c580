"""Solver size caps.

Exact search is exponential, so every solver entry point and the loader
``inputs.load_input`` refuse graphs larger than a cap; ``subdim`` and
``subdim_exists`` (and their oracle ``subdim_naive``) take none by design.
The default is 16 vertices; the GRAPHDIM_CAP environment variable overrides
it globally, and every capped function also takes an explicit ``cap=``
argument.  The cap is the only size limit.
"""

import os

from .errors import CapExceeded

DEFAULT_CAP = 16
CAP_ENV_VAR = "GRAPHDIM_CAP"


def resolve_cap(cap: int | None = None) -> int:
    """Explicit cap if given, else GRAPHDIM_CAP from the environment, else 16."""
    if cap is not None:
        return cap
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise CapExceeded(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None


def require_within_cap(n: int, cap: int | None, what: str) -> None:
    """Raise CapExceeded when a graph of n vertices is beyond the cap."""
    limit = resolve_cap(cap)
    if n > limit:
        raise CapExceeded(f"{what} refuses n={n} > cap={limit}; raise {CAP_ENV_VAR} or pass cap=")
