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
the vertex count in its header (that integer, or the graph6 size bytes).
Two rules bound a file's header: its first non-blank line must start within
its first 64 KiB, and an edge list's count line must end within 64 bytes.
A file that breaks either rule is refused (CapExceeded) after at most
64 KiB + 64 bytes have been read, before the cap check.  Past the check,
a file must end within 64 KiB of the longest body its n allows, and is
read at most that far: for graph6 the body its n fixes, for an edge list
C(n, 2) lines of "n-1 n-1\r\n" (duplicate edges are allowed, but not
without end).  A file is read once, through one handle, so pipes and
FIFOs work too.
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


# an edge list's count line must end within this many bytes: more than any
# vertex count below a cap, or graph6's '>>graph6<<' and size bytes, need
_HEAD = 64
# a file's first non-blank line must start within this many bytes, so its
# header is read, and refused or checked against the cap, in one bounded read
_BLANK_BLOCK = 1 << 16


def _read_file(path: str, cap: int | None) -> Graph:
    """Read and parse a graph file through one handle.

    One read of _BLANK_BLOCK + _HEAD bytes holds the header: a blank prefix
    of _BLANK_BLOCK bytes or more is refused (CapExceeded), so no more is
    read before the cap check.  The first non-blank line alone picks the
    format, not the file's name: graph6 bytes are 63..126, so no graph6
    line is an integer.  The vertex count it declares is checked against
    the cap before any work or memory that grows with the file.  Past the
    check a file is read at most _BLANK_BLOCK bytes past the longest body
    its header allows, and one that goes on that far is refused
    (CapExceeded), as a blank prefix is.  A graph6 header fixes its body; an
    edge list's n allows C(n, 2) lines, none longer than "n-1 n-1\r\n", so
    every file format_edge_list writes, with either line end, is read whole,
    while duplicate edges or blank lines without end are refused.
    The whole text is parsed as read, so parse errors number its lines,
    and a file too large to hold, as text or as a graph, is a ParseError
    rather than a MemoryError."""
    if not os.path.exists(path):
        raise ParseError(
            f"{path!r} is neither a family spec ({', '.join(_FAMILIES)}) nor an existing file")
    with open(path, "rb") as fh:
        raw = fh.read(_BLANK_BLOCK + _HEAD)
        head = raw.decode("ascii", "surrogateescape").lstrip()
        if len(raw) - len(head) >= _BLANK_BLOCK:
            raise CapExceeded(
                f"{path}: its first non-blank line does not start within {_BLANK_BLOCK} bytes")
        first = head.splitlines()[0].strip() if head else ""
        if not first.isascii():
            raise ParseError(f"{path} is not an ASCII graph file")
        # the body ends where its header's n fixes (graph6) or allows (an
        # edge list: C(n, 2) lines "n-1 n-1\r\n"); less than _BLANK_BLOCK
        # bytes may follow it
        start = len(raw) - len(head) + len(first)
        if _INTEGER.fullmatch(first):
            if len(first) >= _HEAD:
                raise CapExceeded(
                    f"{path}: its vertex count line does not end within {_HEAD} bytes")
            n, parse = int(first), parse_edge_list
            end = start + n * (n - 1) // 2 * len(f"{n - 1} {n - 1}\r\n")
            body = "the longest edge list its vertex count allows"
        else:
            try:
                n, rest = _g6_header(first.encode("ascii"))
            except ParseError as exc:
                raise ParseError(f"{path} is neither an edge list nor graph6 ({exc})") from None
            parse = parse_graph6
            end = start - len(rest) + (n * (n - 1) // 2 + 5) // 6
            body = "its graph6 body"
        require_within_cap(n, cap, "load_input")
        try:
            text = _read_to(fh, raw, end + _BLANK_BLOCK)
            if len(text) >= end + _BLANK_BLOCK:
                raise CapExceeded(
                    f"{path}: the file does not end within {_BLANK_BLOCK} bytes of {body}")
            return parse(text.decode("ascii"))
        except UnicodeDecodeError:
            raise ParseError(f"{path} is not an ASCII graph file") from None
        except MemoryError:
            raise ParseError(f"{path} is too large to hold") from None


def _read_to(fh, raw: bytes, limit: int) -> bytes:
    """raw and what follows it in fh, up to limit bytes in all, read a
    block at a time: one read of the whole rest would allocate it first,
    however far past the file's end the limit lies."""
    parts, size = [raw], len(raw)
    while size < limit and (part := fh.read(min(limit - size, _BLANK_BLOCK))):
        parts.append(part)
        size += len(part)
    return b"".join(parts)


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
