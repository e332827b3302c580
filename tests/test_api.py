"""The public API is declared once: in each layer module's __all__."""

import ast
import copy
import importlib
import inspect
import json
import pathlib
import pickle
import subprocess
import sys
import types

import pytest

import graphdim
from graphdim import (AbelianGroup, Coloring, DecompositionRound, DimCertificate, DomainError,
                      Embedding, EmbeddingReport, GeneratorSet, Graph, SubdimCertificate, is_proper,
                      path_graph)

from helpers import subprocess_env

_LAYERS = ("cayley", "coloring", "core", "dimension", "embedding", "verify")

# the public namespace of a fresh `import graphdim`, submodules included, as
# recorded before __init__ re-exported the layers' __all__ lists
_PUBLIC = [
    "AbelianGroup", "CapExceeded", "Coloring", "DEFAULT_CAP", "DecompositionRound",
    "DimCertificate", "DomainError", "Embedding", "EmbeddingReport", "GeneratorSet",
    "Graph", "ParseError", "SUITE_NAMES", "SubdimCertificate", "bits_of", "cayley",
    "cayley_graph", "ceil_log2", "chromatic_bound_from_dim", "chromatic_number",
    "chromatic_number_within", "coloring", "complete_bipartite_graph", "complete_graph",
    "core", "critical_subgraph", "cycle_graph", "decomposition_coloring",
    "decomposition_round_bound", "dim_exact", "dim_via_transitivity", "dimension",
    "embedding", "encode_graph6", "enumerate_labeled_graphs", "errors", "format_edge_list",
    "format_embedding", "greedy_coloring", "hypercube_graph", "induced_subgraph", "inputs",
    "is_proper", "limits", "mask_of", "max_degree_within", "parse_edge_list", "parse_graph6",
    "path_graph", "relabel", "resolve_cap", "run_all", "run_suite", "subdim", "subdim_exists",
    "subdim_naive", "subsets_of_size", "translate", "unit_distance_embed",
    "verify", "verify_embedding",
]


def _layer(name):
    return importlib.import_module(f"graphdim.{name}")


def _top_level_definitions(module):
    """Names a module binds by def, class or assignment, not by import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_no_function_calls_itself():
    # a recursive search fails with RecursionError on a deep enough input,
    # outside the package's errors; each search is a loop over its own
    # stack.  _sweep_stats recurses on n - 1, at most _SWEEP_LIMIT = 6 deep.
    recursive = set()
    for path in sorted(pathlib.Path(graphdim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and (
                            isinstance(call.func, ast.Name) and call.func.id == node.name
                            or isinstance(call.func, ast.Attribute) and call.func.attr == node.name
                            and isinstance(call.func.value, ast.Name)
                            and call.func.value.id in ("self", "cls")):
                        recursive.add(f"{path.stem}.{node.name}")
    assert recursive == {"verify._sweep_stats"}


def test_each_all_names_only_what_its_module_defines():
    for name in _LAYERS:
        module = _layer(name)
        assert set(module.__all__) <= _top_level_definitions(module), name


def test_package_exports_the_layers_lists_and_the_error_and_cap_names():
    exported = {name for layer in _LAYERS for name in _layer(layer).__all__}
    exported |= {"CapExceeded", "DomainError", "ParseError", "DEFAULT_CAP", "resolve_cap"}
    public = {name for name, obj in vars(graphdim).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == exported


def test_public_namespace_is_unchanged():
    # in a fresh interpreter: importing graphdim.cli, say, would add "cli"
    probe = ("import json, graphdim; "
             "print(json.dumps(sorted(k for k in vars(graphdim) if not k.startswith('_'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=subprocess_env(), check=True)
    assert json.loads(proc.stdout) == _PUBLIC


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # start-up is most of the wall time of a small request, and dataclasses
    # alone pulls in inspect, ast, dis and tokenize; -I keeps site-packages
    # and the environment out, and a module loaded before the import counts
    # for neither side
    root = str(pathlib.Path(graphdim.__file__).resolve().parents[1])
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import graphdim, graphdim.cli; print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe, root], capture_output=True,
                          text=True, check=True)
    added = json.loads(proc.stdout)
    assert "graphdim.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


# each record class: an instance, its repr (the form of the dataclasses the
# records were before), and for a checked class a field value its checks refuse
_RECORDS = [
    (Graph(2, (2, 1)), "Graph(n=2, adj=(2, 1))", {"adj": (2, 0)}),
    (SubdimCertificate(1, 6, 4), "SubdimCertificate(value=1, witness_min=6, host_size=4)", None),
    (DimCertificate(1, 15, SubdimCertificate(1, 6, 4)),
     "DimCertificate(value=1, witness_max=15, "
     "inner=SubdimCertificate(value=1, witness_min=6, host_size=4))", None),
    (Coloring((0, 1, 0)), "Coloring(colors=(0, 1, 0))", {"colors": (0, 2)}),
    (DecompositionRound(6, 1, 0), "DecompositionRound(chunk=6, chunk_delta=1, palette_offset=0)",
     None),
    (Embedding(1, ((0,), (1,))), "Embedding(ambient_dim=1, points=((0,), (1,)))", None),
    (EmbeddingReport(2, True, False),
     "EmbeddingReport(ambient_dim=2, edges_ok=True, distinct_ok=False)", None),
    (AbelianGroup((2, 3)), "AbelianGroup(orders=(2, 3))", {"orders": (2, 0)}),
    (GeneratorSet([1]), "GeneratorSet(elements=frozenset({1}))", {"elements": [1.5]}),
]


@pytest.mark.parametrize("record,text,bad", _RECORDS,
                         ids=[type(record).__name__ for record, _, _ in _RECORDS])
def test_records_are_immutable_values_checked_on_every_build(record, text, bad):
    cls = type(record)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    # equal fields, equal records and equal hashes, the hash of the field tuple
    for twin in (cls._make(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is cls and hash(twin) == hash(record)
    assert hash(record) == hash(tuple(record))
    if bad is not None:
        with pytest.raises(DomainError):
            record._replace(**bad)
        with pytest.raises(DomainError):
            cls._make({**record._asdict(), **bad}.values())


_CHECKED = [type(record) for record, _, _ in _RECORDS if "__new__" in vars(type(record))]


@pytest.mark.parametrize("cls", _CHECKED, ids=[cls.__name__ for cls in _CHECKED])
def test_checked_records_build_through_one_make(cls):
    # namedtuple's _replace builds through _make and its pickling through
    # __new__, so with _make = core._checked_make every build of a checked
    # record runs the checks of its __new__
    assert cls._make.__func__ is graphdim.core._checked_make
    assert not {"_replace", "__getnewargs__"} & vars(cls).keys()


def test_a_coloring_derives_its_palette_and_is_no_sequence_of_colors():
    col = Coloring((0, 1, 0))
    assert col._replace(colors=(0, 1, 2)).palette_size == 3
    with pytest.raises(ValueError):
        col._replace(palette_size=3)
    # a Coloring unpacks to (colors,): as labels, its one tuple would pass
    # for a proper coloring of a vertex
    for g, bad in ((path_graph(3), col), (path_graph(2), Coloring((0, 0)))):
        with pytest.raises(DomainError, match=r"^colors must be a sequence of color ids, got "):
            is_proper(g, bad)
        with pytest.raises(DomainError, match=r"^colors must be a sequence of color ids, got "):
            Coloring(bad)


def test_cli_imports_no_checking_primitive():
    # subdim and dim certificates are replayed in dimension and colorings
    # through coloring.is_proper; cli imports neither the Δ primitive nor
    # the brute-force oracle
    tree = ast.parse(inspect.getsource(importlib.import_module("graphdim.cli")))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"max_degree_within", "subdim_naive"}


def _isinstance_uses(node, where):
    """The enclosing scope, as module.function, of each mention of isinstance."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}"
    if isinstance(node, ast.Name) and node.id == "isinstance":
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _isinstance_uses(child, where)


def test_isinstance_is_called_only_in_the_class_guard():
    # "what class an argument must be" is stated once, in core._instance
    uses = [where for path in sorted(pathlib.Path(graphdim.__file__).parent.glob("*.py"))
            for where in _isinstance_uses(ast.parse(path.read_text()), path.stem)]
    assert uses == ["core._instance"]


# every public function that takes a graph, with valid other arguments
_GRAPH_ARGUMENTS = [
    ("subdim", (1,)), ("subdim_exists", (1, 1, 0)), ("subdim_naive", (1,)), ("dim_exact", ()),
    ("max_degree_within", (1,)), ("induced_subgraph", (1,)), ("relabel", ([0],)),
    ("encode_graph6", ()), ("format_edge_list", ()),
    ("chromatic_number", ()), ("chromatic_number_within", (1,)), ("critical_subgraph", ()),
    ("decomposition_coloring", ()), ("greedy_coloring", ([0],)), ("is_proper", ([0],)),
    ("unit_distance_embed", (Coloring([0]),)), ("verify_embedding", (Embedding(0, ((),)),)),
]


@pytest.mark.parametrize("name, rest", _GRAPH_ARGUMENTS, ids=[n for n, _ in _GRAPH_ARGUMENTS])
def test_graph_argument_of_another_class_is_refused(name, rest):
    with pytest.raises(DomainError, match=r"^graph must be a Graph, got 'x'$"):
        getattr(graphdim, name)("x", *rest)
