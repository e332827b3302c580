"""Exact solver for the minimax induced-subgraph degree invariant.

For a graph G, the sub-dimension of a vertex set S is the smallest
possible maximum degree of an induced subgraph on at least half of S
(rounded down, plus one) of its vertices, and the dimension of G is the
largest sub-dimension over all induced subgraphs.  The package computes
both exactly with replayable certificates, plus the coloring bound, the
critical-subgraph machinery, Cayley-graph translation arguments, and
unit-distance embeddings built from proper colorings.

Each public name is declared once, in the __all__ of its layer module
(cayley, coloring, core, dimension, embedding, verify), and republished
here by a wildcard import; the error types, DEFAULT_CAP and resolve_cap are
imported by name.  The loader module inputs, which serves the command line,
stays out of this namespace.
"""

from .cayley import *
from .coloring import *
from .core import *
from .dimension import *
from .embedding import *
from .errors import CapExceeded, DomainError, ParseError
from .limits import DEFAULT_CAP, resolve_cap
from .verify import *

__version__ = "0.1.0"
