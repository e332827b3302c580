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
non-blank line is a lone integer is read as an edge list, and any other as
graph6 (if that line is no graph6 header either, the error names both).
``load_input`` checks the cap before any work or memory that grows with the
input: a family spec by its parameters (cube:N by its exponent), a file by
the vertex count in its header (that integer, or the graph6 size bytes); a
count line that does not end within its first 64 bytes is refused
(CapExceeded).  A file is read once, through one handle, so pipes and FIFOs
work too.
"""

from __future__ import annotations

import os
import re

from .cayley import AbelianGroup, GeneratorSet, cayley_graph
from .core import (
    Graph,
    _INTEGER,
    _g6_header,
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
        elements = [grp.encode((s,)) for s in scalars]
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


# a file's first non-blank line must end within this many bytes: more than
# any vertex count below a cap, or graph6's '>>graph6<<' and size bytes, need
_HEAD = 64
# bytes read at a time while the file is blank so far; only the count of
# line breaks in a blank prefix is kept
_BLANK_BLOCK = 1 << 16
# the ASCII characters str.splitlines ends a line at ("\r\n" ends one line)
_ASCII_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e"


def _read_file(path: str, cap: int | None) -> Graph:
    """Read and parse a graph file through one handle.  The vertex count its
    header declares is checked against the cap once the first non-blank line
    has ended, or _HEAD bytes of it are read, before any work or memory that
    grows with the file."""
    if not os.path.exists(path):
        raise ParseError(
            f"{path!r} is neither a family spec ({', '.join(_FAMILIES)}) nor an existing file")
    with open(path, "rb") as fh:
        raw = bytearray()
        skipped = 0  # line breaks, as splitlines counts them, of a blank prefix not in raw
        while True:  # until the file is not blank so far, or EOF
            block = fh.read(_BLANK_BLOCK)
            raw += block
            prefix = raw.decode("ascii", "surrogateescape")
            head = prefix.lstrip()
            if head or not block:
                break
            # all blank, so ASCII: drop all but a last "\r", which may start "\r\n"
            blank = prefix.removesuffix("\r")
            skipped += sum(map(blank.count, _ASCII_BREAKS))
            if "\r" in blank:  # a "\r\n" pair ends one line, not two
                skipped -= blank.count("\r\n")
            del raw[:len(blank)]
        while block and "\n" not in head and len(head) < _HEAD:  # the first line runs on
            block = fh.read(_HEAD)
            raw += block
            head += block.decode("ascii", "surrogateescape")
        first = head.splitlines()[0].strip() if head else ""
        if not first.isascii():
            raise ParseError(f"{path} is not an ASCII graph file")
        if not path.endswith(".g6") and _INTEGER.fullmatch(first):
            if len(first) >= _HEAD:
                raise CapExceeded(
                    f"{path}: its vertex count line does not end within {_HEAD} bytes")
            n, parse = int(first), parse_edge_list
        else:
            try:
                n = _g6_header(first.removeprefix(">>graph6<<")[:4].encode("ascii"))[0]
            except ParseError as exc:
                if path.endswith(".g6"):
                    raise
                raise ParseError(f"{path} is neither an edge list nor graph6 ({exc})") from None
            parse = parse_graph6
        require_within_cap(n, cap, "load_input")
        try:
            text = (b"\n" * skipped + raw + fh.read()).decode("ascii")
        except UnicodeDecodeError:
            raise ParseError(f"{path} is not an ASCII graph file") from None
    return parse(text)


def load_input(spec: str, cap: int | None = None) -> tuple[Graph, dict]:
    """Resolve a family spec or file path into a graph plus a report descriptor,
    refusing one beyond the cap (explicit, else GRAPHDIM_CAP, else 16) before
    anything is built or parsed."""
    token, sep, body = spec.partition(":")
    if not sep or token not in _FAMILIES:
        return _read_file(spec, cap), {"input": spec, "kind": "file"}
    arity, build, order = _FAMILIES[token]
    if arity is None:
        params = parse_cayley_spec(body)
    else:
        params = _parse_int_list(body, f"{token} parameters")
        if len(params) != arity:
            raise ParseError(f"family {token!r} takes {arity} parameter(s), got {len(params)}")
    limit = resolve_cap(cap)
    if order is not None:
        require_within_cap(order(*params), limit, "load_input")
    elif params[0] >= max(limit, 1).bit_length():  # cube: 2^N > limit, for N >= 1
        raise CapExceeded(f"load_input refuses n=2^{params[0]} > cap={limit}; "
                          f"raise {CAP_ENV_VAR} or pass cap=")
    return build(*params), {"input": spec, "kind": "family"}
