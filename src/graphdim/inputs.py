"""Input descriptors for the command line and the verification sweeps.

A graph input is either a family spec or a file path.  Family specs are
'token:body', and the one table ``_FAMILIES`` maps each token to its arity,
builder and vertex count (None for cube: its 2^N is checked by its exponent):

    path:7  cycle:6  complete:5  kbip:3,4  cube:3
    cayley:z:N1,N2,...;gens=G1,G2,...

The integer families take a comma-separated list of exactly `arity`
parameters; cayley (arity None) hands its whole body to the spec parser.
Cayley generators are element tuples like (1,0),(0,1), joined by commas
alone; for a single cyclic factor bare residues are accepted (gens=1,4).
No list may hold an empty field.  The generator set is taken
literally and must already be closed under negation.

A file's first non-blank line alone picks its format, whatever its name:
a lone integer means an edge list, any other line graph6 (if that line is
no graph6 header either, the error names both).
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
    _decimal,
    _g6_header,
    _instance,
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
    """The comma-separated integers of a spec, each read by the rule _INTEGER
    of the edge-list format through _decimal; int() alone would also take
    '+3', '1_0', ' 3' and non-ASCII digits, and refuses more digits than
    its conversion limit with a bare ValueError.  Empty text holds no
    integers; an empty field between, before or after the commas is
    refused."""
    try:
        return [_decimal(tok) for tok in text.split(",")] if text else []
    except ValueError:
        raise ParseError(f"bad {what} {text!r}, expected comma-separated integers") from None


def parse_cayley_spec(body: str) -> tuple[AbelianGroup, GeneratorSet]:
    """Parse 'z:2,2,2;gens=(1,0,0),(0,1,0),(0,0,1)' into a group and generators."""
    _instance(body, str, "cayley spec must be a str")
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
        if gens_part != ",".join(f"({t})" for t in tuples):
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
# bytes read at a time until the header is read; of a blank prefix only the
# count of its line breaks is kept
_BLANK_BLOCK = 1 << 16


def _read_file(path: str, cap: int | None) -> Graph:
    """Read and parse a graph file through one handle.

    One loop reads _BLANK_BLOCK bytes at a time until the first non-blank
    line has ended, has run _HEAD bytes, or the file has ended.  A blank
    prefix is dropped as it is read and only its line breaks are counted,
    by str.splitlines as parse_edge_list counts them, so parse errors keep
    their line numbers.  That line alone picks the format, not the file's
    name: graph6 bytes are 63..126, so no graph6 line is an integer.  At
    most one block past the header's start is read before the vertex count
    it declares is checked against the cap, before any work or memory that
    grows with the file."""
    if not os.path.exists(path):
        raise ParseError(
            f"{path!r} is neither a family spec ({', '.join(_FAMILIES)}) nor an existing file")
    with open(path, "rb") as fh:
        raw = bytearray()
        skipped = 0  # line breaks, as splitlines counts them, of a blank prefix not in raw
        while True:  # until the first non-blank line has ended, runs _HEAD bytes, or EOF
            block = fh.read(_BLANK_BLOCK)
            raw += block
            prefix = raw.decode("ascii", "surrogateescape")
            head = prefix.lstrip()
            if not block or "\n" in head or len(head) >= _HEAD:
                break
            if not head:  # all blank, so ASCII: drop all but a last "\r", which may start "\r\n"
                blank = prefix.removesuffix("\r")
                skipped += len((blank + ".").splitlines()) - 1
                del raw[:len(blank)]
        first = head.splitlines()[0].strip() if head else ""
        if not first.isascii():
            raise ParseError(f"{path} is not an ASCII graph file")
        if _INTEGER.fullmatch(first):
            if len(first) >= _HEAD:
                raise CapExceeded(
                    f"{path}: its vertex count line does not end within {_HEAD} bytes")
            n, parse = int(first), parse_edge_list
        else:
            try:
                n = _g6_header(first.removeprefix(">>graph6<<")[:4].encode("ascii"))[0]
            except ParseError as exc:
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
    token, sep, body = _instance(spec, str, "input spec must be a str").partition(":")
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
