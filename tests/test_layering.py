"""Module boundaries: the exact simplex serves the independent oracle only,
each graph mechanism (Dijkstra, Floyd-Warshall, Bellman-Ford, union-find)
and the integer metric core (its width ladder and overflow guard) has one
home, and every definition in src/ has a caller outside the tests."""

import ast
from collections import Counter
from pathlib import Path

import tcspace

SRC = Path(tcspace.__file__).parent


def _imported_modules(path: Path) -> set[str]:
    """The tcspace modules a source file imports, by short name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("tcspace."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "tcspace":
                out.update(a.name for a in node.names)
            elif node.module and node.module.startswith("tcspace."):
                out.add(node.module.split(".")[1])
    return out


def _importers(module: str) -> set[str]:
    return {p.name for p in SRC.glob("*.py") if module in _imported_modules(p)}


def test_only_the_oracle_uses_the_simplex():
    assert _importers("lp") == {"oracle.py", "__init__.py"}


def test_the_simplex_shares_no_code_with_the_solver():
    # The oracle checks the solver, so its LP scales rows to integers with
    # code of its own, not metric.py's.
    assert _imported_modules(SRC / "lp.py") == {"rational"}


SOLVER_MODULES = {"transport", "duality", "graph", "metric", "obstruction"}


def test_the_oracle_imports_no_solver_module():
    # It poses the transportation LP on the space's distances alone.
    assert not _imported_modules(SRC / "oracle.py") & SOLVER_MODULES


def test_the_test_oracles_import_no_solver_module():
    # tests/oracles.py holds the references the solver is checked against:
    # like the oracle, they read distances and edges alone.
    path = Path(__file__).with_name("oracles.py")
    assert not _imported_modules(path) & SOLVER_MODULES
    names = _absolute_imports(path)
    assert "tcspace" not in names  # each import names its module, for the check above
    assert not {name for name in names if name.startswith("tcspace.") and "._" in name}
    assert "corpus" not in names  # which reads the solver's Dijkstra


def test_no_solver_module_imports_the_oracle():
    # cli.py is the front end of `oracle-check`; __init__ re-exports.
    assert _importers("oracle") == {"cli.py", "__init__.py"}


def _absolute_imports(path: Path) -> set[str]:
    """Absolute imports of a source file: each module, and module.name for
    every name taken from one."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
            out.update(f"{node.module}.{a.name}" for a in node.names)
    return out


def _files_importing(name: str) -> set[str]:
    return {p.name for p in SRC.glob("*.py") if name in _absolute_imports(p)}


def test_one_dijkstra_and_one_path_metric_routine():
    assert _files_importing("heapq") == {"metric.py"}
    assert {p.name for p in SRC.glob("*.py") if "deque" in _names_used(p)} == set()
    old = {"_bfs_hops", "_distance_rows", "single_source_distances"}
    assert _definers(old.__contains__) == set()
    assert _definers(lambda name: name == "_floyd_warshall") == {"metric.py"}


def _definers(matches) -> set[str]:
    """Source files defining a function whose name matches."""
    return {p.name for p in SRC.glob("*.py")
            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and matches(node.name)}


def test_a_two_port_graph_is_its_metric_space():
    # families.py composes graphs; metric.py validates them and measures
    # their path metrics.
    names = {"_path_rows", "_floyd_warshall", "connected_components", "UnionFind"}
    assert not names & _names_used(SRC / "families.py")


def test_one_union_find():
    assert _definers(lambda name: name == "find") == {"graph.py"}


def test_the_solver_has_no_dijkstra_of_its_own():
    assert _definers(lambda name: name.startswith("_dijkstra")) == {"metric.py"}
    # The residual-arc pricing rule lives next to the Dijkstra that applies it.
    assert _definers(lambda name: name == "_reduced_adjacency") == {"metric.py"}


def _enclosing(matches) -> set[str]:
    """The functions (innermost enclosing def, or <module>) of every source
    file that hold a node that matches."""
    out = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if matches(node):
            out.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for p in SRC.glob("*.py"):
        visit(ast.parse(p.read_text(encoding="utf-8")), "<module>")
    return out


def _callers(name: str) -> set[str]:
    """The functions that call name, as a bare name or an attribute."""
    return _enclosing(lambda node: isinstance(node, ast.Call) and name in {
        getattr(node.func, "id", None), getattr(node.func, "attr", None)})


def test_one_composition_step():
    # compose, recursive_family and diamond expand edges with one step,
    # which alone asks the substitution kernel for a candidate.
    assert _callers("_substitute") == {"_compose_step"}
    assert _callers("_compose_step") == {"compose", "recursive_family", "diamond"}


def test_every_generated_graph_is_certified_in_integers():
    # A level is (mat, D, edges) in integers, and every graph meets one
    # certificate: no second entry point, no rescaling to a common unit, and
    # no Fraction arithmetic in the generators.
    assert _definers(lambda name: name in {"_graph_space", "_on_one_unit"}) == set()
    assert not {"to_fraction", "lcm"} & _names_used(SRC / "families.py")
    assert _callers("_path_space") == {"space_from_weighted_graph", "__post_init__",
                                       "recursive_family", "diamond", "grid",
                                       "random_metric_space"}


def test_one_bellman_ford():
    assert _definers(lambda name: name == "bellman_ford") == {"transport.py"}
    assert _definers(lambda name: name in {"_min_mean", "_potentials", "_extract_cycle"}) == set()
    assert "transport.py" not in _files_importing("numpy")
    # Only where a negative cycle can exist: a user's roadmap, and a
    # difference-constraint system.  The optimal face reads the solver's
    # certificate with Dijkstra.
    assert _callers("bellman_ford") == {"improving_cycle", "realizable_as_downhill"}


def _identifiers(tree: ast.AST):
    """Every identifier read, bound or imported in tree, once per use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from {node.name, node.asname or node.name}


def _names_used(path: Path) -> set[str]:
    """Every identifier a source file reads, binds or imports."""
    return set(_identifiers(ast.parse(path.read_text(encoding="utf-8"))))


def _strings_used(path: Path) -> set[str]:
    """Every string constant of a source file (a dtype can be named by one)."""
    return {node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


INT_DTYPES = {f"{sign}int{bits}" for sign in ("", "u") for bits in (8, 16, 32, 64)}


def test_one_integer_metric_core():
    assert _definers(lambda name: name == "_int_dtype") == {"metric.py"}
    for guard in ("_INT64_SAFE", "_INT_WIDTHS"):
        assert {p.name for p in SRC.glob("*.py") if guard in _names_used(p)} == {"metric.py"}
    # One width policy, one home: no other module names a numpy integer dtype.
    assert {p.name for p in SRC.glob("*.py")
            if INT_DTYPES & (_names_used(p) | _strings_used(p))} == {"metric.py"}


def test_distances_are_scaled_in_one_place():
    # The space holds its integer matrix and D; the canonical graph reads
    # them and takes no lcm of its own.
    assert not {"lcm", "_scaled_matrix", "_scaled_edges"} & _names_used(SRC / "graph.py")
    assert _definers(lambda name: name == "_scaled_matrix") == set()
    # No memo keyed by object identity: no module names the builtin id.
    assert {p.name for p in SRC.glob("*.py")
            if any(isinstance(node, ast.Name) and node.id == "id"
                   for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))} == set()


def test_the_canonical_graph_checks_itself_without_all_pairs_paths():
    # Its check is metric._matrix_mask's min-plus step, or the definition,
    # run in validation; the all-pairs search serves path metrics of input
    # graphs only.
    assert not {"_path_rows", "_floyd_warshall"} & _names_used(SRC / "graph.py")
    assert _definers(lambda name: name == "_min_plus") == {"metric.py"}


def test_two_routes_decide_the_deletion_mask():
    # The sure edges' min-plus step when it closes, the definition otherwise:
    # no exact midpoint test of open pairs, and no second min-plus pass over
    # the final edges.
    assert _definers(lambda name: name in {"_midpoint_free", "_is_path_metric"}) == set()
    assert _callers("_min_plus") == {"_matrix_mask"}


def test_each_job_is_done_once():
    # The definition's blocks of sums report the first triangle violation:
    # no second cubic scan.
    assert _definers(lambda name: name == "_midpoint_scan") == set()
    assert {p.name for p in SRC.glob("*.py") if "_midpoint_scan" in _names_used(p)} == set()
    # The zero problem takes the general path where it gives the same result.
    assert not {"_optimum", "maximal_roadmap", "oracle_tc_norm"} & _callers("is_zero")
    # One rule nets signed moves into a problem: no other function takes
    # an amount off a dict entry it reads with get.
    assert _enclosing(_nets_a_move) == {"_net_moves"}
    assert _callers("_net_moves") == {"problem", "downhill_to_problem"}


def _nets_a_move(node) -> bool:
    """Whether node assigns to an entry acc.get(...) minus something."""
    return (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Sub)
            and isinstance(node.value.left, ast.Call)
            and getattr(node.value.left.func, "attr", None) == "get")


def test_sign_vectors_come_from_one_product():
    # itertools.product((1, -1), repeat=k), read lazily (_signs), is the one
    # enumeration: no bit decoding, no hand-built coefficient lists, and no
    # itertools.combinations, which would pool all 2^k sign vectors first.
    assert _definers(lambda name: name == "_sign_vector") == set()
    tree = ast.parse((SRC / "obstruction.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.LShift, ast.RShift))]
    assert not {"ONE", "ZERO", "combinations"} & _names_used(SRC / "obstruction.py")
    assert _callers("product") == {"_signs"}


def _catchers(*errors: str) -> set[str]:
    """The functions with an except clause naming exactly errors, as a tuple."""
    return _enclosing(lambda node: isinstance(node, ast.ExceptHandler)
                      and isinstance(node.type, ast.Tuple)
                      and {getattr(e, "id", None) for e in node.type.elts} == set(errors))


def test_one_reader_of_json_fields():
    # Every JSON reader takes an object's fields through errors.json_fields;
    # a name lookup is the one other place a missing key or a list-valued
    # name becomes InvalidInput.
    assert _catchers("KeyError", "TypeError") == {"json_fields", "index_of"}
    assert _definers(lambda name: name == "json_fields") == {"errors.py"}


def test_one_canonical_graph_certificate():
    # A distance matrix, a weighted graph's path metric and a restriction
    # meet the same certificate in validation; canonical_graph only reads
    # the mask it proved.
    assert _definers(lambda name: name == "_edge_mask") == set()
    assert _definers(lambda name: name == "_matrix_mask") == {"metric.py"}
    assert _callers("_matrix_mask") == {"_violations"}
    assert not {"_matrix_mask", "_min_plus"} & _names_used(SRC / "graph.py")


def test_one_edge_vector_class():
    # A roadmap is its edge vector: its cost is the weighted l1 norm and its
    # problem the incidence image, with no wrapper to unwrap.
    gone = {"EdgeVector", "apply_incidence", "l1d_norm"}
    assert {p.name for p in SRC.glob("*.py") if gone & _names_used(p)} == set()
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert not [name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "vec"]
    assert {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", None) == "_SparseVector" for base in node.bases)} \
        == {("vectors.py", "Roadmap"), ("vectors.py", "TransportationProblem")}


def test_one_adjacency_per_canonical_graph():
    # The integer arcs are the graph's only neighbourhood store; D is the
    # space's, and every path comes from a shortest-path tree.
    assert not any("scaled_adjacency" in p.read_text(encoding="utf-8") for p in SRC.glob("*.py"))
    assert _definers(lambda name: name == "shortest_path_arcs") == set()
    graph = tcspace.canonical_graph(tcspace.cycle(4))
    assert not hasattr(graph, "_adjacency")
    assert not hasattr(graph, "_pair_index")  # edge_index bisects the adjacency


# --- every definition in src/ has a caller outside the tests ---------------------

REPO = Path(__file__).resolve().parents[1]

# Definitions only tests name, each kept for a reason.
KEPT_FOR_TESTS = {
    "metric_violations": "every violation of a matrix, pinned against a brute-force "
                         "reference at every integer width (test_metric.py)",
    "Certificate.ruled_out": "the verdict as a boolean, which the acceptance criteria read",
    "MetricSpace.to_json_obj": "the reference test_cli.py checks the writer of `gen` against",
    "Roadmap.from_json_obj": "the roadmap reader a `check` command needs (ROADMAP item 1)",
    "TransportationProblem.to_json_obj": "the writer of the problem files the command line "
                                         "reads, which test_golden.py writes its inputs with",
}

# A method whose name another definition in src/ shares may owe its bare-name
# uses to the other, so it names the function (path:qualname, or <module>)
# outside the tests that reaches it.
SHARED_NAME_CALLERS = {
    "Roadmap._size": "src/tcspace/vectors.py:_SparseVector.__post_init__",
    "TransportationProblem._size": "src/tcspace/vectors.py:_SparseVector.__post_init__",
    "TransportationPlan.cost": "src/tcspace/transport.py:plan_to_roadmap",
    "Roadmap.cost": "src/tcspace/vectors.py:Roadmap.to_json_obj",
    "DomainError.details": "src/tcspace/cli.py:main",
    "MetricViolation.details": "src/tcspace/cli.py:main",
    "LipschitzFunction.from_json_obj": "src/tcspace/cli.py:_cmd_downhill",
    "FamilyDescriptor.from_json_obj": "src/tcspace/cli.py:_cmd_certify",
    "DirectedSubgraph.from_json_obj": "src/tcspace/cli.py:_cmd_realizable",
    "MetricSpace.from_json_obj": "src/tcspace/cli.py:_load_space",
    "TransportationProblem.from_json_obj": "src/tcspace/cli.py:_cmd_norm",
    "TransportationPlan.from_names": "demos/01_norms_and_roadmaps.py:<module>",
    "TransportationProblem.from_names":
        "src/tcspace/vectors.py:TransportationProblem.from_json_obj",
    "TwoPortGraph.max_degree": "src/tcspace/families.py:recursive_family",
    "CanonicalGraph.max_degree": "src/tcspace/obstruction.py:certify_no_linfty",
    "CanonicalGraph.n": "src/tcspace/graph.py:CanonicalGraph.degrees",
    "MetricSpace.n": "src/tcspace/cli.py:_cmd_validate",
    "TransportationPlan.problem": "src/tcspace/transport.py:plan_to_roadmap",
    "Roadmap.problem": "src/tcspace/transport.py:cancel_cycle",
    "CanonicalGraph.to_dot": "src/tcspace/cli.py:_cmd_canon",
    "DirectedSubgraph.to_dot": "src/tcspace/cli.py:_cmd_downhill",
    "LipschitzFunction.to_json_obj": "src/tcspace/cli.py:_cmd_dual",
    "FamilyDescriptor.to_json_obj": "src/tcspace/cli.py:_cmd_gen",
    "CanonicalGraph.to_json_obj": "src/tcspace/cli.py:_cmd_canon",
    "DirectedSubgraph.to_json_obj": "src/tcspace/cli.py:_cmd_downhill",
    "Certificate.to_json_obj": "src/tcspace/cli.py:_cmd_certify",
    "Roadmap.to_json_obj": "src/tcspace/cli.py:_cmd_roadmap",
    "LipschitzFunction.zero": "src/tcspace/duality.py:_least_supporting",
    "_SparseVector.zero": "src/tcspace/obstruction.py:LinftyCandidate.combine",
    "cycle": "src/tcspace/cli.py:_cmd_gen",
    "ExactLP._build.scaled": "src/tcspace/lp.py:ExactLP._build",
    "LinftyCandidate.k": "src/tcspace/obstruction.py:check_sign_pattern_disjointness",
    "LinftyCandidate.graph": "src/tcspace/obstruction.py:LinftyCandidate.combine",
}


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every def and class in tree, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _fields(tree: ast.AST):
    """The field names of every dataclass and NamedTuple class in tree: an
    attribute read by a field's name may be the field's, not a method's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (
                any(getattr(d, "id", None) == "dataclass"
                    or getattr(getattr(d, "func", None), "id", None) == "dataclass"
                    for d in node.decorator_list)
                or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)):
            yield from (item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))


def _traced_names() -> set[str]:
    """What bench/tracing.py patches by name: each dotted part of every
    string in its TRACED table."""
    tree = ast.parse((REPO / "bench" / "tracing.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return {part for node in ast.walk(table)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")}


def _names_in(caller: str) -> set[str]:
    """Every identifier of the function a SHARED_NAME_CALLERS entry names."""
    path, qualname = caller.split(":")
    tree = ast.parse((REPO / path).read_text(encoding="utf-8"))
    node = tree if qualname == "<module>" else dict(_definitions(tree))[qualname]
    return set(_identifiers(node))


def test_every_definition_has_a_caller_outside_the_tests():
    """Every def and class of src/tcspace but the dunders is named in src/
    outside itself and __init__.py, in demos/, or in bench/.  A name that
    two definitions share, a dataclass or NamedTuple field counting as one,
    counts only through the caller SHARED_NAME_CALLERS names for it.  What
    only tests use lives in tests/ (corpus.py, oracles.py)."""
    outside = _traced_names().union(*(_names_used(p) for folder in ("demos", "bench")
                                      for p in (REPO / folder).glob("*.py")))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py") if p.name != "__init__.py"}
    uses = {p: Counter(_identifiers(tree)) for p, tree in trees.items()}
    defined = Counter(node.name for tree in trees.values() for _, node in _definitions(tree))
    defined.update(name for tree in trees.values() for name in _fields(tree))
    sharing = set()
    orphans = set()
    for path, tree in trees.items():
        elsewhere = outside.union(*(c for p, c in uses.items() if p != path))
        for qualname, node in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if defined[node.name] > 1:
                sharing.add(qualname)
                caller = SHARED_NAME_CALLERS.get(qualname)
                if caller is None or node.name not in _names_in(caller):
                    orphans.add(qualname)
                continue
            beside = uses[path] - Counter(_identifiers(node))
            if node.name not in elsewhere and not beside[node.name]:
                orphans.add(qualname)
    assert orphans == set(KEPT_FOR_TESTS)
    assert set(SHARED_NAME_CALLERS) <= sharing
    for qualname, caller in SHARED_NAME_CALLERS.items():
        assert caller.split("/")[0] in {"src", "demos", "bench"}
        assert not caller.endswith(f":{qualname}")  # a definition is not its own caller
