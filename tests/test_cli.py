import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphdim import cli, dimension, inputs, verify
from graphdim.cli import cmd_compute
from graphdim.coloring import Coloring, is_proper
from graphdim.core import (Graph, cycle_graph, encode_graph6, format_edge_list, hypercube_graph,
                           max_degree_within, mask_of, parse_edge_list, parse_graph6)
from graphdim.errors import CapExceeded, DomainError, ParseError

from helpers import subprocess_env


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "graphdim", *args],
        capture_output=True, text=True, env=subprocess_env(env),
    )


def test_compute_cube_dim():
    proc = run_cli("compute", "cube:3", "--which", "dim")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["dim"]["value"] == 2
    assert report["results"]["dim"]["replay"]["ok"] is True


def test_compute_complete_dim():
    proc = run_cli("compute", "complete:6", "--which", "dim")
    assert json.loads(proc.stdout)["results"]["dim"]["value"] == 3


def test_compute_kbip_subdim():
    proc = run_cli("compute", "kbip:2,3", "--which", "subdim")
    report = json.loads(proc.stdout)
    assert report["results"]["subdim"]["value"] == 0
    assert report["results"]["subdim"]["witness_min"] == [2, 3, 4]


def test_compute_all_sections_and_certificates_replay():
    proc = run_cli("compute", "cycle:5")
    report = json.loads(proc.stdout)
    results = report["results"]
    assert set(results) == {"subdim", "dim", "chi", "bounds", "decomposition", "embedding"}
    assert results["bounds"] == {"lower": 1, "upper": 2}
    assert results["chi"]["value"] == 3
    assert results["embedding"]["ok"] is True
    # replay the reported witnesses against an independently built graph
    g = parse_graph6(report["graph"]["graph6"])
    w = mask_of(results["dim"]["inner"]["witness_min"])
    assert max_degree_within(g, w) == results["dim"]["value"]
    assert is_proper(g, results["chi"]["colors"])


def test_chi_entry_refuses_an_improper_coloring():
    g = cycle_graph(5)
    entry = cli._chi_entry(g, 2, Coloring((0, 0, 1, 0, 1)))
    assert entry["replay"] == {"proper": False, "palette_size": 2, "ok": False}


def test_compute_cayley_input():
    proc = run_cli("compute", "cayley:z:2,2,2;gens=(1,0,0),(0,1,0),(0,0,1)", "--which", "dim")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["graph"]["n"] == 8
    assert report["results"]["dim"]["value"] == 2
    assert parse_graph6(report["graph"]["graph6"]) == hypercube_graph(3)


def test_compute_from_edge_list_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    proc = run_cli("compute", str(path), "--which", "dim")
    report = json.loads(proc.stdout)
    assert report["kind"] == "file"
    assert report["results"]["dim"]["value"] == 2


def test_compute_from_graph6_file(tmp_path):
    path = tmp_path / "k2.g6"
    path.write_text("A_\n")
    proc = run_cli("compute", str(path), "--which", "chi")
    assert json.loads(proc.stdout)["results"]["chi"]["value"] == 2


def test_parse_error_exit_2():
    proc = run_cli("compute", "no-such-thing")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr


@pytest.mark.parametrize("text,line", [
    ("\n\n3\n0 1\n0 9\n", 5),
    (" \r\n" * 100 + "3\n0 1\n0 9\n", 103),  # a blank prefix longer than the head
])
def test_parse_errors_count_the_lines_of_a_blank_prefix(tmp_path, text, line):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    proc = run_cli("compute", str(path))
    assert proc.returncode == 2
    assert f"line {line}: endpoint out of range" in proc.stderr


def test_a_blank_prefix_of_a_block_or_more_is_refused(tmp_path):
    # 4 MB of line breaks before a valid graph: the first non-blank line
    # does not start within the first block, so the rest is never read
    path = tmp_path / "blank.txt"
    path.write_text("\n" * 4_000_000 + "2\n0 1\n")
    proc = run_cli("compute", str(path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (f"graphdim: cap exceeded: {path}: its first non-blank line "
                           f"does not start within {inputs._BLANK_BLOCK} bytes\n")


def _compute_on_endless_stdin(head, line=b"\n"):
    """The exit code and stderr of `graphdim compute /dev/stdin` fed `head`
    and then `line` without end, under a 256 MB address space, so a reader
    that holds what it reads fails fast instead of filling memory."""
    script = ("import resource, runpy, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
              "sys.argv = ['graphdim', 'compute', '/dev/stdin']\n"
              "runpy.run_module('graphdim', run_name='__main__')\n")
    proc = subprocess.Popen([sys.executable, "-c", script], bufsize=0, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env())

    def feed():
        try:
            proc.stdin.write(head)
            while True:
                proc.stdin.write(line * (4096 // len(line)))
        except OSError:  # the reader has exited, or was killed
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        code = proc.wait(timeout=20)
    finally:
        proc.kill()
        writer.join()
        proc.stdin.close()
    stderr = proc.stderr.read().decode()
    proc.stdout.close()
    proc.stderr.close()
    return code, stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_an_endless_blank_stdin_exits_3():
    # a writer that never stops: only a bounded read of the header ends it
    code, stderr = _compute_on_endless_stdin(b"")
    assert code == 3, stderr
    assert "first non-blank line does not start within" in stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_an_endless_stdin_after_a_graph6_line_exits_3():
    # a graph6 line fixes its own length, so the read stops a block past it
    code, stderr = _compute_on_endless_stdin(b"A_\n")
    assert code == 3, stderr
    assert stderr == (f"graphdim: cap exceeded: /dev/stdin: the file does not end within "
                      f"{inputs._BLANK_BLOCK} bytes of its graph6 body\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("line", [b"\n", b"0 1\n"], ids=["blank-lines", "duplicate-edges"])
def test_an_endless_stdin_after_an_edge_list_exits_3(line):
    # n = 2 allows one line "1 1\r\n", so the read stops a block past it
    code, stderr = _compute_on_endless_stdin(b"2\n0 1\n", line)
    assert code == 3, stderr
    assert stderr == (f"graphdim: cap exceeded: /dev/stdin: the file does not end within "
                      f"{inputs._BLANK_BLOCK} bytes of the longest edge list its vertex "
                      f"count allows\n")


@pytest.mark.parametrize("n,edges", [(0, []), (1, []), (2, [(0, 1)]), (5, "all"), (16, "all"),
                                     (16, [(0, 15)])])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_every_edge_list_the_formatter_writes_loads(tmp_path, n, edges, newline):
    # the longest body the read allows is C(n, 2) lines "n-1 n-1\r\n"
    if edges == "all":
        edges = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(n, edges)
    path = tmp_path / "g.txt"
    path.write_bytes((format_edge_list(g) + "\n").replace("\n", newline).encode("ascii"))
    assert inputs.load_input(str(path), 16)[0] == g


@pytest.mark.parametrize("text", ["3\n0 1\n0 2\n1 2\n", "\n \n3 \r\n0 1\r\n"])
def test_an_edge_list_ends_within_a_block_of_the_longest_body_its_n_allows(tmp_path, text):
    # C(3, 2) lines "2 2\r\n" after the count line, and less than a block of
    # blanks, parse; a block is refused
    end = len(text) - len(text.lstrip()) + 1 + 3 * 5 + inputs._BLANK_BLOCK
    path = tmp_path / "g.txt"
    path.write_bytes(text.ljust(end - 1).encode("ascii"))
    assert inputs.load_input(str(path), None)[0] == parse_edge_list(text)
    path.write_bytes(text.ljust(end).encode("ascii"))
    with pytest.raises(CapExceeded, match=re.escape(
            f"{path}: the file does not end within {inputs._BLANK_BLOCK} bytes of the "
            f"longest edge list its vertex count allows")):
        inputs.load_input(str(path), None)


def test_a_sparse_edge_list_under_a_large_cap_loads(tmp_path):
    # its bound, C(n, 2) lines, is some 65 GB: the read must not allocate it
    path = tmp_path / "g.txt"
    path.write_text("100000\n0 99999\n")
    g = inputs.load_input(str(path), 100_000)[0]
    assert g.n == 100_000 and g.adj[0] == 1 << 99_999


@pytest.mark.parametrize("head", ["A_", ">>graph6<<A_", "\n" * 300 + "Bw", "~?AA" + "?" * 1398],
                         ids=["short", "prefixed", "blank-prefix", "long-size"])
def test_a_graph6_file_ends_within_a_block_of_its_body(tmp_path, head):
    # less than a block of blanks after the body parses; a block is refused
    block = inputs._BLANK_BLOCK
    path = tmp_path / "g.g6"
    path.write_bytes((head + " " * (block - 1)).encode("ascii"))
    assert inputs.load_input(str(path), 130)[0] == parse_graph6(head)
    path.write_bytes((head + "\n" * block).encode("ascii"))
    with pytest.raises(CapExceeded, match=re.escape(
            f"{path}: the file does not end within {block} bytes of its graph6 body")):
        inputs.load_input(str(path), 130)


@pytest.mark.parametrize("head,line,count,tail", [
    # 16 MB of one edge, duplicates allowed, within the 22 MB that the
    # C(2000, 2) lines of "1999 1999\r\n" allow
    ("2000\n", "0 1\n", 4_000_000, ""),
], ids=["duplicate-edges"])
def test_a_file_within_the_cap_too_large_to_hold_is_an_input_error(tmp_path, head, line,
                                                                    count, tail):
    # under a 256 MB address space, splitting the file into lines runs out
    # of memory: an input error, not a MemoryError traceback
    path = tmp_path / "big.txt"
    path.write_text(head + line * count + tail)
    code = ("import resource, runpy, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "sys.argv = ['graphdim', 'compute', sys.argv[1], '--cap', '2000']\n"
            "runpy.run_module('graphdim', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, env=subprocess_env())
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"graphdim: error: {path} is too large to hold\n"


_BLOCK = inputs._BLANK_BLOCK
_LATE = f"first non-blank line does not start within {_BLOCK} bytes"


@pytest.mark.parametrize("text,error,message", [
    # the count line starts 3 bytes before the block ends
    ("\n" * (_BLOCK - 3) + "3000000", CapExceeded, "n=3000000"),
    # a blank prefix of exactly one block that ends in a lone "\r"
    ((" \r\n" * (_BLOCK // 3)).ljust(_BLOCK - 1) + "\r3000000", CapExceeded, _LATE),
    ("\n" * (_BLOCK - 3) + "3\n0 1\n0 9\n", ParseError,
     "line 65536: endpoint out of range in edge 0-9 \\(n=3\\)"),
    # a blank prefix of exactly one block that ends in "\r\n"
    (" " * (_BLOCK - 2) + "\r\n3\n0 9\n", CapExceeded, _LATE),
], ids=["count-straddles", "lone-cr-at-the-end", "edge-on-line-65536", "crlf-at-the-end"])
def test_header_read_at_the_block_boundary(tmp_path, text, error, message):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(error, match=message):
        inputs.load_input(str(path), None)


@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("brk", ["\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r", "\r\n"],
                         ids=["lf", "vt", "ff", "fs", "gs", "rs", "cr", "crlf"])
def test_a_blank_prefix_numbers_lines_as_parse_edge_list_does(tmp_path, brk, pad):
    # each ASCII line break of str.splitlines, in a blank prefix one byte
    # short of the block; the pad shifts which character ends the prefix
    prefix = (" " * pad + (brk + "\t\x1f ") * (_BLOCK // 3))[:_BLOCK - 1]
    text = prefix + "3\n0 1\n\x0c0 9\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(ParseError) as whole:
        parse_edge_list(text)
    with pytest.raises(ParseError) as loaded:
        inputs.load_input(str(path), None)
    assert "endpoint out of range in edge 0-9" in str(whole.value)
    assert str(loaded.value) == str(whole.value)
    assert loaded.value.line == whole.value.line
    # one blank more and the first non-blank line starts past the block
    path.write_bytes((" " + text).encode("ascii"))
    with pytest.raises(CapExceeded, match=_LATE):
        inputs.load_input(str(path), None)


# the ten ASCII characters str.strip and str.split take as blanks
_BLANKS = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"


def _g6_size(n):
    return chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> k & 63) + 63) for k in (12, 6, 0))


@st.composite
def _graph_file_texts(draw):
    prefix = draw(st.text(st.sampled_from(_BLANKS), max_size=40))
    first = draw(st.one_of(
        st.integers(-2, 80).map(str),
        st.tuples(st.sampled_from(["", ">>graph6<<"]), st.integers(0, 80).map(_g6_size))
        .map("".join),
        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)))
    body = draw(st.text(st.sampled_from("0123456789-_+x?A~é" + _BLANKS), max_size=30))
    return prefix + first + draw(st.sampled_from(["", "\n"])) + body


@settings(derandomize=True, database=None, max_examples=400)
@given(_graph_file_texts())
def test_the_loader_agrees_with_the_parsers_on_any_file(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "loaded.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        loaded = inputs.load_input(str(path), 64)[0]
    except CapExceeded:
        return  # refused before the parse: a direct parse might allocate the count
    except ParseError as exc:
        loaded = exc
    if not text.isascii():
        assert isinstance(loaded, ParseError)
        return
    head = text.strip()
    first = head.splitlines()[0].strip() if head else ""
    parse = parse_edge_list if re.fullmatch(r"-?[0-9]+", first) else parse_graph6
    try:
        direct = parse(text)
    except ParseError as exc:
        direct = exc
    if isinstance(direct, ParseError):
        assert isinstance(loaded, ParseError)
        if parse is parse_edge_list:
            assert (str(loaded), loaded.line) == (str(direct), direct.line)
    else:
        assert loaded == direct


@pytest.mark.parametrize("count,byte", [("+3", 43), ("1_0", 49)])
def test_a_file_in_neither_format_names_both(tmp_path, count, byte):
    path = tmp_path / "g.txt"
    path.write_text(f"{count}\n0 1\n")
    message = f"{path} is neither an edge list nor graph6 (bad graph6 header byte {byte})"
    with pytest.raises(ParseError) as err:
        cmd_compute(str(path), "subdim")
    assert str(err.value) == message
    assert cli.main(["compute", str(path), "--which", "subdim"]) == 2
    # the content, not the name, picks the format: a .g6 file gets the same error
    path = path.rename(tmp_path / "g.g6")
    with pytest.raises(ParseError) as err:
        cmd_compute(str(path), "subdim")
    assert str(err.value) == (
        f"{path} is neither an edge list nor graph6 (bad graph6 header byte {byte})")


def test_a_g6_named_edge_list_loads_like_its_txt_twin(tmp_path):
    text = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
    (tmp_path / "c5.txt").write_text(text)
    (tmp_path / "c5.g6").write_text(text)
    txt, _ = inputs.load_input(str(tmp_path / "c5.txt"))
    g6, _ = inputs.load_input(str(tmp_path / "c5.g6"))
    assert g6 == txt == cycle_graph(5)


def test_non_ascii_file_exit_2(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_bytes("gráph".encode("utf-8"))
    proc = run_cli("compute", str(path))
    assert proc.returncode == 2


def test_bad_family_parameter_exit_2():
    proc = run_cli("compute", "cycle:2")
    assert proc.returncode == 2


@pytest.mark.parametrize("spec,message", [
    ("cycle:2", "vertex count must be >= 3, got 2"),
    ("kbip:0,3", "side size must be >= 1, got 0"),
    ("cube:0", "hypercube dimension must be >= 1, got 0"),
    ("cayley:z:0;gens=1", "cyclic order must be >= 1, got 0"),
])
def test_out_of_range_family_parameters_exit_2(spec, message):
    proc = run_cli("compute", spec)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"graphdim: error: {message}\n"


def test_help_lists_the_registered_families_and_the_sweep_limit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["compute", "--help"])
    out = capsys.readouterr().out
    for token in inputs._FAMILIES:
        assert f"{token}:" in out
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    words = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
    assert f"1..{verify._SWEEP_LIMIT} (default {verify._SWEEP_LIMIT})" in words


def test_compute_refuses_an_unknown_which_before_loading():
    with pytest.raises(DomainError, match="bogus"):
        cmd_compute("cycle:5", "bogus")
    # a spec that cannot be loaded: the choice is refused first
    with pytest.raises(DomainError, match="bogus"):
        cmd_compute("no-such-file", "bogus")
    parser = cli.build_parser()
    for which in ("subdim", "dim", "chi", "all"):
        assert parser.parse_args(["compute", "cycle:5", "--which", which]).which == which
    with pytest.raises(SystemExit):
        parser.parse_args(["compute", "cycle:5", "--which", "bogus"])


@pytest.mark.parametrize("call, message", [
    (lambda: inputs.load_input(None), "input spec must be a str, got None"),
    (lambda: inputs.load_input(5), "input spec must be a str, got 5"),
    (lambda: cmd_compute(None, "all"), "input spec must be a str, got None"),
], ids=["load-none", "load-int", "compute-none"])
def test_input_spec_of_another_class_is_refused(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_malformed_cayley_spec_exit_2():
    proc = run_cli("compute", "cayley:z:2,2;gens=1", "--which", "dim")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "single cyclic factor" in proc.stderr


def test_cap_exit_3():
    proc = run_cli("compute", "complete:20", "--which", "dim")
    assert proc.returncode == 3


def test_graphs_beyond_512_vertices_run_when_the_cap_allows(tmp_path):
    proc = run_cli("compute", "cycle:1201", "--which", "chi", "--cap", "3000")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["chi"]["value"] == 3
    out = tmp_path / "c.emb"
    proc = run_cli("embed", "cycle:601", "-o", str(out), "--cap", "1000")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["embedding"]["ambient_dim"] == 6
    assert out.exists()


OVERSIZE_SPECS = ("cube:64", "complete:100000000000000000000", "complete:3000",
                  "cayley:z:1024,1024;gens=(1,0),(1023,0),(0,1),(0,1023)")


@pytest.mark.parametrize("spec", ["path:1_0", "path:+3", "cycle:\u0665"])  # Arabic-Indic 5
def test_family_spec_integers_follow_the_file_rule(spec, capsys):
    # an integer is ASCII digits with an optional '-' in specs as in files;
    # int() alone would build a 10-vertex path, a 3-vertex path and a 5-cycle
    with pytest.raises(ParseError, match="expected comma-separated integers"):
        inputs.load_input(spec)
    assert cli.main(["compute", spec]) == 2
    assert "expected comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "path:,5", "kbip:3,,4", "cube:3,", "complete:5,", "cayley:z:,7;gens=1,,6",
    "cayley:z:2,2;gens=(1,0)(0,1)", "cayley:z:2,2;gens=(1,,0),(0,1)",
    "cayley:z:2,2;gens=,(1,0),(0,1),", "cayley:z:2,2;gens=(1,0), (0,1)",
])
def test_family_spec_lists_refuse_empty_fields_and_stray_text(spec, capsys):
    # each of these once loaded: empty fields were dropped, and only commas
    # and blanks were looked for between generator tuples
    with pytest.raises(ParseError):
        inputs.load_input(spec)
    assert cli.main(["compute", spec]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["1_6", "+16", "\u0661\u0666", " 16 ", "abc"])
def test_cap_variable_follows_the_integer_rule(value, monkeypatch, capsys):
    # int() took the first four as 16; "abc" exited 3 as if a cap were exceeded
    monkeypatch.setenv("GRAPHDIM_CAP", value)
    assert cli.main(["compute", "path:3"]) == 2
    assert f"GRAPHDIM_CAP must be an integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["+16", "1_6", " 16 ", "\u0661\u0666"])  # Arabic-Indic 16
@pytest.mark.parametrize("command", ["compute", "embed", "verify"])
def test_cap_option_follows_the_integer_rule(command, value, tmp_path, capsys):
    # int() took each of these as 16: compute exited 0 and verify, whose
    # sweep size cannot exceed 6, exited 3
    out = tmp_path / "g.emb"
    argv = {"compute": ["compute", "path:3", "--which", "subdim"],
            "embed": ["embed", "path:3", "-o", str(out)],
            "verify": ["verify", "examples"]}[command]
    assert cli.main(argv + ["--cap", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--cap must be an integer, got {value!r}" in captured.err
    assert not out.exists()


_DIGITS = "9" * 5000  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize("argv,env", [
    (["compute", f"path:{_DIGITS}"], None),
    (["compute", f"cayley:z:{_DIGITS};gens=1"], None),
    (["compute", "path:3", "--cap", _DIGITS], None),
    (["compute", "path:3"], _DIGITS),
], ids=["family-parameter", "cayley-order", "cap-option", "cap-variable"])
def test_integers_past_the_conversion_limit_are_input_errors(argv, env, monkeypatch, capsys):
    # int() refused each with a bare ValueError: exit 1, the violation code,
    # and a traceback
    if env is not None:
        monkeypatch.setenv("GRAPHDIM_CAP", env)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("graphdim: error: ")


def test_negative_cap_option_is_an_integer(capsys):
    assert cli.main(["compute", "path:3", "--cap", "-1"]) == 3
    assert "refuses n=3 > cap=-1" in capsys.readouterr().err


def test_oversize_family_specs_exit_3():
    for spec in OVERSIZE_SPECS[:3]:
        proc = run_cli("compute", spec)
        assert proc.returncode == 3, proc.stderr
        assert "cap exceeded" in proc.stderr and "Traceback" not in proc.stderr
        assert "load_input refuses" in proc.stderr


def test_oversize_family_specs_refused_unbuilt(monkeypatch, tmp_path):
    def unbuildable(*params):
        raise AssertionError("an oversize family was built")
    for token, (arity, _, order) in list(inputs._FAMILIES.items()):
        monkeypatch.setitem(inputs._FAMILIES, token, (arity, unbuildable, order))
    out = tmp_path / "x.emb"
    for spec in OVERSIZE_SPECS:
        for argv in (["compute", spec], ["compute", spec, "--which", "chi"],
                     ["embed", spec, "-o", str(out)]):
            start = time.perf_counter()
            assert cli.main(argv) == 3
            assert time.perf_counter() - start < 1
    assert not out.exists()


def _graph_files(tmp_path, n):
    """An edge list, a .g6 file and a prefixed graph6 file, each of n vertices."""
    g6 = encode_graph6(cycle_graph(n))
    files = {"edges.txt": f"{n}\n0 1\n", "graph.g6": g6 + "\n",
             "graph.txt": f">>graph6<<{g6}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in files]


def test_oversize_files_refused_from_their_header(monkeypatch, tmp_path):
    def unparsable(text):
        raise AssertionError("an oversize file was parsed")

    monkeypatch.setattr(inputs, "parse_edge_list", unparsable)
    monkeypatch.setattr(inputs, "parse_graph6", unparsable)
    out = tmp_path / "x.emb"
    for path in _graph_files(tmp_path, 17):
        for which in ("subdim", "dim", "chi", "all"):
            with pytest.raises(CapExceeded):
                cmd_compute(path, which)
        assert cli.main(["embed", path, "-o", str(out)]) == 3
    assert not out.exists()


def test_load_input_refuses_oversize_inputs_unbuilt_and_unparsed(monkeypatch, tmp_path):
    def unusable(*args):
        raise AssertionError("an oversize input was built or parsed")
    for token, (arity, _, order) in list(inputs._FAMILIES.items()):
        monkeypatch.setitem(inputs._FAMILIES, token, (arity, unusable, order))
    monkeypatch.setattr(inputs, "parse_edge_list", unusable)
    monkeypatch.setattr(inputs, "parse_graph6", unusable)
    monkeypatch.delenv("GRAPHDIM_CAP", raising=False)
    for spec in OVERSIZE_SPECS + tuple(_graph_files(tmp_path, 17)):
        with pytest.raises(CapExceeded, match="load_input refuses n=.* > cap=16;"):
            inputs.load_input(spec)


def test_load_input_resolves_the_cap_like_every_entry_point(monkeypatch):
    monkeypatch.delenv("GRAPHDIM_CAP", raising=False)
    assert inputs.load_input("complete:16")[0].n == 16
    with pytest.raises(CapExceeded, match="refuses n=17 > cap=16;"):
        inputs.load_input("complete:17")
    monkeypatch.setenv("GRAPHDIM_CAP", "17")
    assert inputs.load_input("complete:17")[0].n == 17
    with pytest.raises(CapExceeded, match="refuses n=5 > cap=4;"):
        inputs.load_input("cycle:5", cap=4)  # an explicit cap wins


def test_header_read_files_load_within_the_cap(tmp_path):
    for path in _graph_files(tmp_path, 17):
        g, descriptor = inputs.load_input(path, 17)
        assert g.n == 17 and descriptor == {"input": path, "kind": "file"}


def test_oversize_files_exit_3_within_a_second(tmp_path):
    n = 5000  # an empty graph: a valid graph6 file of about 2 MB
    head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    (tmp_path / "big.g6").write_text(head + "?" * ((n * (n - 1) // 2 + 5) // 6) + "\n")
    (tmp_path / "big.txt").write_text("10000000\n")
    for name in ("big.g6", "big.txt"):
        start = time.perf_counter()
        proc = run_cli("compute", str(tmp_path / name))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 3, proc.stderr
        assert "cap exceeded" in proc.stderr
        assert elapsed < 1


def test_non_ascii_body_after_an_oversize_header_exits_3(tmp_path):
    # the body is read, and decoded, only after the header passed the cap
    path = tmp_path / "bad.txt"
    path.write_bytes(b"10000000\n0 1\n\xff\n")
    proc = run_cli("compute", str(path))
    assert proc.returncode == 3, proc.stderr
    assert "cap exceeded" in proc.stderr
    path.write_bytes(b"5\n0 1\n\xff\n")
    proc = run_cli("compute", str(path))
    assert proc.returncode == 2 and "not an ASCII graph file" in proc.stderr


def test_vertex_count_line_cut_by_the_head_exits_3(tmp_path):
    # only the head of the count line is read: leading zeros must not hide
    # the digits after it
    for count in ("0" * 64 + "1000000000", "7" * 70, "0" * 70):
        path = tmp_path / "long.txt"
        path.write_text(count + "\n0 1\n")
        start = time.perf_counter()
        proc = run_cli("compute", str(path))
        assert proc.returncode == 3, proc.stderr
        assert "does not end within 64 bytes" in proc.stderr
        assert time.perf_counter() - start < 1
    path.write_text(" \n" + "0" * 62 + "5\n0 1\n")  # 63 digits: read whole
    g, _ = inputs.load_input(str(path), None)
    assert g.n == 5 and g.adj[0] == 2


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
def test_graph_files_read_once_from_a_pipe():
    # a pipe can be read only once: the header and the body share one handle
    for text in ("5\n0 1\n1 2\n", "5\n" + "0 1\n1 2\n" * 4000):  # one buffer, and more
        r, w = os.pipe()
        try:
            os.write(w, text.encode())  # under 64 KB: fits the pipe without a reader
            os.close(w)
            g, descriptor = inputs.load_input(f"/dev/fd/{r}", None)
        finally:
            os.close(r)
        assert descriptor["kind"] == "file"
        assert g.n == 5 and g.adj[:3] == (2, 5, 2)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_compute_reads_a_graph_from_stdin():
    for text in (encode_graph6(cycle_graph(7)) + "\n", "7\n" + "0 1\n" * 3000):
        proc = subprocess.run([sys.executable, "-m", "graphdim", "compute", "/dev/stdin",
                               "--which", "chi"], input=text, capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["graph"]["n"] == 7


# VmHWM is the peak resident set of this process image; ru_maxrss would
# also carry the peak of the (larger) pytest process it was forked from
_PEAK_SCRIPT = """
import sys
from graphdim import cli

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kb()
code = cli.main(["compute", sys.argv[1]])
print(code, peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_oversize_file_refused_without_reading_its_body(tmp_path):
    # about 16 MB each: reading either file whole would raise the peak by more
    n = 12000  # an empty graph in graph6
    head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    (tmp_path / "big.g6").write_text(head + "?" * ((n * (n - 1) // 2 + 5) // 6) + "\n")
    (tmp_path / "big.txt").write_text("3000000\n" + "0 1\n" * 4_000_000)
    (tmp_path / "blank.txt").write_text("\n" * 16_000_000 + "3000000\n")
    for name in ("big.g6", "big.txt", "blank.txt"):
        proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, str(tmp_path / name)],
                              capture_output=True, text=True, env=subprocess_env())
        code, grown_kb = map(int, proc.stdout.split())
        assert code == 3, proc.stderr
        assert grown_kb < 4096


def test_cube_spec_checked_by_its_exponent():
    for d, cap in ((1, 2), (4, 16), (5, 32), (5, 63)):
        g, _ = inputs.load_input(f"cube:{d}", cap)
        assert g.n == 1 << d
    for d, cap in ((1, 1), (4, 15), (5, 31), (5, 0), (5, -1)):
        with pytest.raises(CapExceeded, match=f"refuses n=2\\^{d} > cap={cap};"):
            inputs.load_input(f"cube:{d}", cap)
    with pytest.raises(DomainError):
        inputs.load_input("cube:0", 0)


def test_cap_env_override():
    proc = run_cli("compute", "complete:17", "--which", "dim",
                   env={"GRAPHDIM_CAP": "18"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["dim"]["value"] == 8


def test_embed_writes_file_and_summary(tmp_path):
    out = tmp_path / "c5.emb"
    proc = run_cli("embed", "cycle:5", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["embedding"]["ambient_dim"] == 6
    assert report["embedding"]["ok"] is True
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    assert all(len(line.split()) == 2 + 6 for line in lines)


def test_embed_of_the_empty_graph_writes_an_empty_file(tmp_path):
    # one line per vertex: no vertex, no line
    src = tmp_path / "empty.txt"
    src.write_text("0\n")
    out = tmp_path / "empty.emb"
    report = cli.cmd_embed(str(src), str(out))
    assert report["embedding"]["ok"] is True
    assert out.read_bytes() == b""


_EMBED_EDGES = {
    "cycle:7": [(u, (u + 1) % 7) for u in range(7)],
    "complete:5": list(itertools.combinations(range(5), 2)),
    "kbip:3,4": [(a, 3 + b) for a in range(3) for b in range(4)],
}


@pytest.mark.parametrize("spec", sorted(_EMBED_EDGES))
def test_embed_file_round_trip_is_exact(spec, tmp_path):
    # read the written coordinates back as fractions and check the embedding
    # without the library: unit squared edge lengths and distinct points
    out = tmp_path / "g.emb"
    proc = run_cli("embed", spec, "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    points = {}
    for line in out.read_text().splitlines():
        v, _, *coords = line.split()
        points[int(v)] = tuple(Fraction(x) for x in coords)
    n = len(points)
    assert sorted(points) == list(range(n))
    assert len(set(points.values())) == n
    for u, v in _EMBED_EDGES[spec]:
        assert sum((a - b) ** 2 for a, b in zip(points[u], points[v])) == 1


def test_embed_ambient_dims():
    for spec, want in [("complete:3", 6), ("path:2", 4)]:
        proc = run_cli("embed", spec, "-o", os.devnull)
        assert json.loads(proc.stdout)["embedding"]["ambient_dim"] == want


@pytest.mark.parametrize("out_path", [None, 987654])  # 987654: an unopened descriptor
def test_embed_refuses_an_output_path_of_another_class_first(out_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("loaded the graph before checking the output path")

    monkeypatch.setattr(cli, "load_input", refuse)
    with pytest.raises(DomainError) as err:
        cli.cmd_embed("cycle:5", out_path)
    assert str(err.value) == f"output path must be a str, got {out_path!r}"


def test_embed_io_error_exit_4(tmp_path):
    proc = run_cli("embed", "path:2", "-o", str(tmp_path / "missing" / "x.emb"))
    assert proc.returncode == 4


def test_verify_examples_exit_0():
    proc = run_cli("verify", "examples")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True and report["failures"] == 0


def test_verify_small_sweep_deterministic():
    a = run_cli("verify", "theorem2", "--cap", "4")
    b = run_cli("verify", "theorem2", "--cap", "4")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_sweep_cap_exit_3():
    proc = run_cli("verify", "theorem2", "--cap", "8")
    assert proc.returncode == 3


def test_verify_sweep_size_below_1_exit_2():
    proc = run_cli("verify", "theorem2", "--cap", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("suite", ["examples", "all"])
def test_verify_cap_exits_alike_for_every_suite(suite):
    assert cli.main(["verify", suite, "--cap", "99"]) == 3
    assert cli.main(["verify", suite, "--cap", "0"]) == 2


def test_verify_violation_maps_to_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite",
                        lambda name, cap=None: {"ok": False, "failures": 1, "instances": []})
    assert cli.main(["verify", "examples"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_diagnostics_go_to_stderr():
    proc = run_cli("compute", "path:4", "--which", "dim")
    assert "finished in" in proc.stderr
    json.loads(proc.stdout)  # stdout is pure JSON


# sha256 of the compact sorted-key JSON of cmd_compute(spec, which), the
# bytes the CLI prints before its newline; a file input's path is replaced
# by "<file>".  "edges10" is _seeded_edge_list(), "edges0" the n = 0 file.
_COMPUTE_DIGESTS = {
    ("path:9", "all"): "7c841c034dd6de058d9eb7f00ebdeb133a5c7e04f4c60b6edd91e2ba70eff609",
    ("path:9", "dim"): "77b29d5ae05385d244ea2ed37c3ed55b9b4555fdea471c8967256ad58145411d",
    ("path:9", "subdim"): "17bd00b66106efe88e54194478f6da6027efd260cbe1b42a53f25abb7d96450a",
    ("path:9", "chi"): "66e9e6b52a810d370a4f1952c3df09164eb6753bed9265589deaf0eca8e6e415",
    ("cycle:7", "all"): "26f52881de65738dcbb92c2f66ee6fa4955a655b1c1f45bf389f15d9ffe938ce",
    ("cycle:7", "dim"): "a52df9cd659e718cfd97ace03aa82a94121b57547331971727d3afd69e12a273",
    ("cycle:7", "subdim"): "85c1e9662733a3a49e6bf207b48e68ac34ab55582222c5517aa493bbf03027fb",
    ("cycle:7", "chi"): "3812a28e904e3d80015d2d4ed4f2058cc28b5baeac7c1b03cc7298d7dcf2701f",
    ("complete:10", "all"): "c269e79aa47186170afb72ed93de698f3bb7d5edf21d72a3948d61e2fc788fd5",
    ("complete:10", "dim"): "de21abb497226c18b749e3510fa5576742d85980f83d6eb8e3446c4e8f4ab127",
    ("complete:10", "subdim"): "47a2341dc68a4c6c58b17a15b0acdc401615adf7387abbcb59b124aa2db35289",
    ("complete:10", "chi"): "6311cce56795af52eefc73f7ccbd362970c05f99a4a4d8ae40097cda28c3986a",
    ("kbip:3,4", "all"): "68e1bde9b7ca4b70dd2362e8d292c39f17e33855a5b22f7fe50dbdf4861f61f0",
    ("kbip:3,4", "dim"): "50cee7ab39d44654cb49b0be25c50b9e78f5bf66087234e67c7854113e3793fa",
    ("kbip:3,4", "subdim"): "9ca8abb652930ca4888a3852d2f72f604dadac659f1e1057a5169fd34d5e4ed5",
    ("kbip:3,4", "chi"): "c0cfc8ab9a789ddc30eaa723a1a62806b398127585f229668e412df073843fc1",
    ("cube:3", "all"): "528f58a52615116fd10c9a98943e9eb8aa3ca05ac5e14e58a90671dd758ebd27",
    ("cube:3", "dim"): "f25a7eb0b4e7db6ffd8259b1677d81092cdbd4d9e4da5ae7b4f658df78a9f527",
    ("cube:3", "subdim"): "069bbd8ef7f3592e510a66d01288c4be0bbb96d38dd3d865db78351a1f58ef06",
    ("cube:3", "chi"): "f6d97387e1b7a02417b5327ec5b3c37479772cf5c288d6893aca0afaa9e8c22f",
    ("cayley:z:7;gens=1,2,5,6", "all"):
        "4f328758268e76071d325245f422dedfc2a3393b6f10104776177544a038e503",
    ("cayley:z:7;gens=1,2,5,6", "dim"):
        "e5a06b4b30d20518361b65a78dcbea24e52eaaf871f12201a7e466354e722c88",
    ("cayley:z:7;gens=1,2,5,6", "subdim"):
        "5f7448aaceba63aa86649b5a966d36b7bbefdcd060bf77e7e1dca701c1bab3ca",
    ("cayley:z:7;gens=1,2,5,6", "chi"):
        "c113dd0f79524cb03f7f2b93a3b2bf1f39e6907834458e0f1a7bc6e7406df460",
    ("edges10", "all"): "3d6930aecf31f896cd8ea18c6ffd74e3ec64d70721b09de79d9d84b0b2034655",
    ("edges10", "dim"): "3d14dde862cbae5b3c7fde3c15c9ca2669a16d3c6b7942d63518a6d9a9ab7bd6",
    ("edges10", "subdim"): "1bc9fa51e94c567cbb675e660f82f3d99a678c84ee716313f42390ab04731a6b",
    ("edges10", "chi"): "76d746bda3a69269e3915fda97f2185ddc51988848bb5a729ee0797211c8b7d3",
    ("edges0", "all"): "2aa870a239bc10b7e2d88a27c5c77ee7c4b5c82fdb79949f3ec1a017d805d76a",
    ("edges0", "dim"): "c12143f2aec22b2b3de3aad8479fd3800975fb1b8449ea66562f4be650457560",
    ("edges0", "chi"): "0eeb93bde90d2bb46aad6700b8f61fc05c8142b36bafbe49b148e9557e1b4f8c",
}


def _seeded_edge_list(n=10, seed=2026):
    rng = random.Random(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _resolve_spec(spec, tmp_path):
    texts = {"edges10": _seeded_edge_list(), "edges0": "0\n"}
    if spec not in texts:
        return spec
    path = tmp_path / f"{spec}.txt"
    path.write_text(texts[spec])
    return str(path)


@pytest.mark.parametrize("spec,which", sorted(_COMPUTE_DIGESTS))
def test_compute_report_digests(spec, which, tmp_path):
    report = cmd_compute(_resolve_spec(spec, tmp_path), which)
    if report["kind"] == "file":
        report["input"] = "<file>"
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _COMPUTE_DIGESTS[spec, which]


def test_compute_subdim_of_empty_graph_rejected(tmp_path):
    with pytest.raises(DomainError):
        cmd_compute(_resolve_spec("edges0", tmp_path), "subdim")


def test_compute_all_scans_the_full_vertex_set_once(monkeypatch):
    # one ascending scan on d decides subdim(V) = value with value + 1 calls;
    # every later use of subdim(V) must reuse that certificate (dim_exact's
    # search on the complement graph is not a use of it)
    full_calls = 0
    real = dimension.subdim_exists
    graph = cycle_graph(9)

    def counting(g, subset, s, d):
        nonlocal full_calls
        if g == graph and subset == g.vertex_mask:
            full_calls += 1
        return real(g, subset, s, d)

    monkeypatch.setattr(dimension, "subdim_exists", counting)
    report = cmd_compute("cycle:9", "all")
    assert full_calls == report["results"]["subdim"]["value"] + 1


def test_compute_checks_the_dim_cap_before_any_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched before checking the cap")

    monkeypatch.setattr(dimension, "subdim_exists", refuse)
    with pytest.raises(CapExceeded):
        cmd_compute("cube:5", "all")


def test_compute_checks_the_subdim_cap_before_any_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched before checking the cap")

    monkeypatch.setattr(dimension, "subdim_exists", refuse)
    with pytest.raises(CapExceeded):
        cmd_compute("cube:5", "subdim")


@pytest.mark.parametrize("which", ["subdim", "dim", "chi", "all"])
def test_compute_checks_the_cap_before_encoding_graph6(monkeypatch, which):
    def refuse(g):
        raise AssertionError("encoded graph6 before checking the cap")

    monkeypatch.setattr(cli, "encode_graph6", refuse)
    with pytest.raises(CapExceeded):
        cmd_compute("cube:12", which)
