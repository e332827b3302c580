"""Input descriptors for the command line and the verification sweeps.

A graph input is either a family spec or a file path.  Family specs are
'token:body', and the one table ``_FAMILIES`` maps each token to its arity,
builder and vertex count (None for cube: its 2^N is checked by its exponent):

    path:7  cycle:6  complete:5  kbip:3,4  cube:3
    cayley:z:N1,N2,...;gens=G1,G2,...

The integer families take a comma-separated list of exactly `arity`
parameters; cayley (arity None) hands its whole body to the spec parser.
Cayley generators are element tuples like (1,0),(0,1); for a single cyclic
factor bare residues are accepted (gens=1,4).  The generator set is taken
literally and must already be closed under negation.

Files ending in .g6 are read as graph6; otherwise a file whose first
non-blank line is a lone integer is read as an edge list, and anything
else as graph6.
"""

from __future__ import annotations

import os
import re

from .cayley import AbelianGroup, GeneratorSet, cayley_graph
from .core import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    parse_edge_list,
    parse_graph6,
    path_graph,
)
from .errors import CapExceeded, ParseError
from .limits import CAP_ENV_VAR, require_within_cap, resolve_cap

__all__ = ["parse_cayley_spec", "load_input"]


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ParseError(f"bad {what} {text!r}, expected comma-separated integers") from None


def parse_cayley_spec(body: str) -> tuple[AbelianGroup, GeneratorSet]:
    """Parse 'z:2,2,2;gens=(1,0,0),(0,1,0),(0,0,1)' into a group and generators."""
    if ";gens=" not in body:
        raise ParseError(f"cayley spec {body!r} lacks ';gens='")
    group_part, gens_part = body.split(";gens=", 1)
    if not group_part.startswith("z:"):
        raise ParseError(f"cayley group spec {group_part!r} must start with 'z:'")
    orders = _parse_int_list(group_part[2:], "group orders")
    if not orders:
        raise ParseError("cayley group needs at least one cyclic order")
    grp = AbelianGroup(tuple(orders))
    if "(" in gens_part:
        tuples = re.findall(r"\(([^()]*)\)", gens_part)
        leftover = re.sub(r"\(([^()]*)\)", "", gens_part).replace(",", "").strip()
        if not tuples or leftover:
            raise ParseError(f"bad generator list {gens_part!r}")
        elements = []
        for t in tuples:
            coords = _parse_int_list(t, "generator tuple")
            if len(coords) != len(orders):
                raise ParseError(
                    f"generator ({t}) has {len(coords)} coordinates, group has {len(orders)}")
            elements.append(grp.encode(coords))
    else:
        scalars = _parse_int_list(gens_part, "generator list")
        if len(orders) != 1:
            raise ParseError("bare-residue generators need a single cyclic factor; "
                             "use tuples like (1,0),(0,1)")
        elements = [s % orders[0] for s in scalars]
    if not elements:
        raise ParseError("cayley spec needs at least one generator")
    return grp, GeneratorSet(elements)


_FAMILIES = {
    "path": (1, path_graph, lambda n: n),
    "cycle": (1, cycle_graph, lambda n: n),
    "complete": (1, complete_graph, lambda n: n),
    "kbip": (2, complete_bipartite_graph, lambda m, n: m + n),
    "cube": (1, hypercube_graph, None),
    "cayley": (None, cayley_graph, lambda grp, gens: grp.size),
}


def _family_params(spec: str) -> tuple[str, tuple] | None:
    """Token and parsed parameters of a family spec; None for anything else."""
    token, sep, body = spec.partition(":")
    if not sep or token not in _FAMILIES:
        return None
    arity = _FAMILIES[token][0]
    if arity is None:
        return token, parse_cayley_spec(body)
    params = _parse_int_list(body, f"{token} parameters")
    if len(params) != arity:
        raise ParseError(f"family {token!r} takes {arity} parameter(s), got {len(params)}")
    return token, tuple(params)


def _load_file(path: str) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not an ASCII graph file") from None
    if path.endswith(".g6"):
        return parse_graph6(text)
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if len(stripped.split()) == 1 and stripped.lstrip("-").isdigit():
            return parse_edge_list(text)
        break
    return parse_graph6(text)


def load_input(spec: str) -> tuple[Graph, dict]:
    """Resolve a family spec or file path into a graph plus a report descriptor."""
    family = _family_params(spec)
    if family is not None:
        token, params = family
        return _FAMILIES[token][1](*params), {"input": spec, "kind": "family"}
    if os.path.exists(spec):
        return _load_file(spec), {"input": spec, "kind": "file"}
    raise ParseError(
        f"{spec!r} is neither a family spec ({', '.join(_FAMILIES)}) nor an existing file")


def _load_within_cap(spec: str, cap: int | None, what: str) -> tuple[Graph, dict]:
    """load_input that checks the cap before any work on the graph: for a
    family spec from its parameters, before building; for a file, once read."""
    family = _family_params(spec)
    if family is not None:
        token, params = family
        limit = resolve_cap(cap)
        if token != "cube":
            require_within_cap(_FAMILIES[token][2](*params), limit, what)
        elif params[0] >= max(limit, 1).bit_length():  # 2^N > limit, for N >= 1
            raise CapExceeded(f"{what} refuses n=2^{params[0]} > cap={limit}; "
                              f"raise {CAP_ENV_VAR} or pass cap=")
    g, descriptor = load_input(spec)
    require_within_cap(g.n, cap, what)
    return g, descriptor
