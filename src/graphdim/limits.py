"""Solver size caps.

Exact search is exponential, so every solver entry point refuses graphs
larger than a cap instead of silently running forever.  The default is 16
vertices; the GRAPHDIM_CAP environment variable overrides it globally, and
every capped function also takes an explicit ``cap=`` argument.  No cap
lifts the search ceiling of 512 vertices, which also bounds the host of
the uncapped subdim decision.
"""

import os

from .errors import CapExceeded

DEFAULT_CAP = 16
CAP_ENV_VAR = "GRAPHDIM_CAP"
# the chi decision recurses once per vertex and the subdim decision once per
# chosen vertex; Python's default recursion limit is 1000 frames
_SEARCH_CEILING = 512


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


def _require_within_ceiling(n: int, what: str) -> None:
    """Raise CapExceeded when n vertices are beyond the search ceiling."""
    if n > _SEARCH_CEILING:
        raise CapExceeded(f"{what} refuses n={n} > {_SEARCH_CEILING}, the search ceiling; "
                          "raising the cap does not help")


def require_within_cap(n: int, cap: int | None, what: str) -> int:
    """Raise CapExceeded when a graph of n vertices is beyond the cap or
    the search ceiling."""
    _require_within_ceiling(n, what)
    limit = resolve_cap(cap)
    if n > limit:
        raise CapExceeded(f"{what} refuses n={n} > cap={limit}; raise {CAP_ENV_VAR} or pass cap=")
    return limit
