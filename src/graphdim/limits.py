"""Solver size caps.

Exact search is exponential, so every solver entry point and the loader
``inputs.load_input`` refuse graphs larger than a cap; ``subdim`` and
``subdim_exists`` (and their oracle ``subdim_naive``) take none by design.
The default is 16 vertices; the GRAPHDIM_CAP environment variable overrides
it globally, and every capped function also takes an explicit ``cap=``
argument.  The cap is the only size limit.  An explicit cap must be an
integer (``core._integer``); GRAPHDIM_CAP, and the CLI's ``--cap``, must be
one by the edge-list rule ``core._INTEGER``, read by ``_read_cap`` through
``core._decimal``; anything else is a DomainError, not a refusal.
"""

import os

from .core import _decimal, _integer
from .errors import CapExceeded, DomainError

DEFAULT_CAP = 16
CAP_ENV_VAR = "GRAPHDIM_CAP"


def resolve_cap(cap: int | None = None) -> int:
    """Explicit cap if given, else GRAPHDIM_CAP from the environment, else 16."""
    if cap is not None:
        return _integer(cap, "cap")
    raw = os.environ.get(CAP_ENV_VAR)
    return DEFAULT_CAP if raw is None else _read_cap(raw, CAP_ENV_VAR)


def _read_cap(text: str, source: str) -> int:
    """The integer that cap text states: ASCII digits with an optional
    leading '-', as in an edge list, read by _decimal; anything else (int()
    would also take '+16', '1_6', ' 16 ' and non-ASCII digits), and digits
    past int()'s conversion limit, is a DomainError naming the source and
    the text."""
    try:
        return _decimal(text)
    except ValueError:
        raise DomainError(f"{source} must be an integer, got {text!r}") from None


def require_within_cap(n: int, cap: int | None, what: str) -> None:
    """Raise CapExceeded when a graph of n vertices is beyond the cap."""
    limit = resolve_cap(cap)
    if n > limit:
        raise CapExceeded(f"{what} refuses n={n} > cap={limit}; raise {CAP_ENV_VAR} or pass cap=")
