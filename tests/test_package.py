"""The package's exports, which load their modules on first access.

`import fem_accuracy` imports none of the package's modules and no numpy.
Each exported name is imported from its defining module when it is first
read, and is then the very object that module defines.
"""

import ast
import importlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import fem_accuracy

SRC = pathlib.Path(fem_accuracy.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "e2ebench"

# The 46 exported names, in the order of the modules that first exported them.
EXPORTS = [
    "BarycentricPolynomial", "PkBasis", "auxiliary_factor", "build_basis",
    "chain_rule_weights", "multi_indices", "tabulate",
    "BoundCheck", "ConstantBundle", "log_script_c",
    "point_bound_check", "script_c", "seminorm_bound_check",
    "DiscreteSolution", "ModelProblem", "assemble_and_solve_all", "convergence_study", "error_reports",
    "Polynomial1D", "SinPiProduct",
    "DegenerateSimplexError", "SimplexMesh", "reference_simplex",
    "structured_mesh_2d", "uniform_mesh_1d",
    "AdmissibilityError", "DifferenceField", "PiecewisePolynomialField",
    "SobolevIndex", "interpolation_error", "seminorm", "seminorm_with_estimate",
    "AccuracyLaw", "Bump", "ElementPair", "GeometricSeminormModel", "SinPiSeminormModel",
    "h_star", "h_star_explicit", "h_star_sequence", "h_stars", "weak_star_pairing", "weak_star_test",
    "QuadratureRule", "interval_rule", "simplex_rule",
]  # fmt: skip


def test_all_lists_the_exports():
    assert len(EXPORTS) == 46
    assert sorted(fem_accuracy.__all__) == sorted(EXPORTS)
    assert len(set(fem_accuracy.__all__)) == len(fem_accuracy.__all__)
    assert dir(fem_accuracy) == sorted(EXPORTS + ["__version__"])


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_defining_modules_object(name):
    value = getattr(fem_accuracy, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("fem_accuracy.")
    assert getattr(module, name) is value
    assert vars(fem_accuracy)[name] is value  # kept after the first access


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fem_accuracy.no_such_name
    assert not hasattr(fem_accuracy, "element_powers")


def test_star_import():
    namespace = {}
    exec("from fem_accuracy import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_import_loads_no_module_and_no_numpy():
    code = (
        "import json, sys\n"
        "import fem_accuracy\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fem_accuracy.') or m.split('.')[0] == 'numpy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


def test_constant_layer_imports_only_the_standard_library():
    code = (
        "import json, sys\n"
        "from fem_accuracy import script_c, ConstantBundle\n"
        "script_c(ConstantBundle(n=1, m=1, k=4, p=2.0))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fem_accuracy.') or m.split('.')[0] == 'numpy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == ["fem_accuracy.constants"]


def test_exact_layer_imports_only_the_standard_library():
    code = (
        "import json, sys\n"
        "from fem_accuracy.basis import build_basis\n"
        "basis = build_basis(2, 3)\n"
        "basis.evaluation_matrix()\n"
        "basis.sum_polynomial().reduced()\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fem_accuracy.') or m.split('.')[0] == 'numpy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == ["fem_accuracy.basis"]


def test_every_relative_import_is_used():
    # Each name a module takes by `from .module import name` is read there
    # (an ast Name, also the root of an attribute chain); a name imported only
    # so that it can be imported from here too is a second path to one object.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                unused += [f"{path.name}: {a.asname or a.name}" for a in node.names if (a.asname or a.name) not in read]
    assert unused == []


# The definitions that only the benchmark harness reads, each with the e2ebench/
# file and the text there that reads it (ROADMAP direction 6 frees them).
BENCH_ONLY = {
    "basis.PkBasis.evaluation_matrix": ("workloads.py", "basis.evaluation_matrix()"),
    "basis.PkBasis.sum_polynomial": ("workloads.py", "basis.sum_polynomial().reduced()"),
    "basis.BarycentricPolynomial.reduced": ("tracer.py", '"BarycentricPolynomial.reduced"'),
    "norms.interpolation_error": ("workloads.py", "_lib().interpolation_error("),
    "geometry.structured_mesh_2d": ("workloads.py", "fa.structured_mesh_2d("),
    "probability.h_star_sequence": ("workloads.py", "fa.h_star_sequence("),
    "geometry.SimplexMesh.simplices": ("tracer.py", 'hasattr(domain, "simplices")'),
    "cli.__getattr__": ("tracer.py", "for module in (fem_accuracy, fem_accuracy.cli):"),
}


def _names_read(node):
    """Every name node reads, as ("name", id) for an ast Name and ("attr", attr) for an
    Attribute; for a class, outside its methods."""
    if isinstance(node, ast.ClassDef):
        parts = [*node.bases, *node.keywords, *node.decorator_list]
        parts += [item for item in node.body if not isinstance(item, ast.FunctionDef)]
    else:
        parts = [node]
    return {
        ("name", sub.id) if isinstance(sub, ast.Name) else ("attr", sub.attr)
        for part in parts
        for sub in ast.walk(part)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _reached(definitions, roots, read):
    """The definitions reached from roots and the names in read, by name.  A function or class is
    reached when its name is read, bare or as an attribute; a method or property when its class is
    reached and its name is read as an attribute (x.name), or it is a dunder.  Reaching a
    definition reads the names in it."""
    reached, read = set(), set(read)
    while True:
        anywhere = {name for _, name in read}
        new = {
            qualname
            for qualname, (node, owner) in definitions.items()
            if qualname not in reached
            and (
                qualname in roots
                or (owner is None and node.name in anywhere)
                or (owner in reached and (("attr", node.name) in read or node.name[:2] == node.name[-2:] == "__"))
            )
        }
        if not new:
            return reached
        reached |= new
        for qualname in new:
            read |= _names_read(definitions[qualname][0])


def reachability_faults(src, bench):
    """Every function, class, method or property in src/*.py that `fem-accuracy` does not reach,
    and every BENCH_ONLY entry that is undefined, reached without it, or no longer read in bench.

    The roots are cli.main, cli's module-level code, the package's __getattr__ and __dir__ hooks
    and the BENCH_ONLY names.  The pass is by name, so a name read anywhere reached reaches every
    definition of that name; docstrings and other strings read nothing."""
    definitions, cli_code = {}, []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = f"{path.stem}.{node.name}"
                definitions[name] = (node, None)
                methods = node.body if isinstance(node, ast.ClassDef) else []
                definitions.update({f"{name}.{m.name}": (m, name) for m in methods if isinstance(m, ast.FunctionDef)})
            elif path.stem == "cli":
                cli_code.append(node)
    read = set().union(*map(_names_read, cli_code))
    roots = {"cli.main", "__init__.__getattr__", "__init__.__dir__"}
    without_bench = _reached(definitions, roots, read)
    reached = _reached(definitions, roots | set(BENCH_ONLY), read)
    faults = [f"unreached: {name}" for name in definitions if name not in reached]
    for name, (file, text) in BENCH_ONLY.items():
        if name not in definitions:
            faults.append(f"{name}: not defined")
        elif name in without_bench:
            faults.append(f"{name}: reached without the benchmark")
        if text not in (pathlib.Path(bench) / file).read_text():
            faults.append(f"{name}: e2ebench/{file} no longer reads {text!r}")
    return faults


def test_every_definition_is_reached_from_a_subcommand():
    # A definition that no subcommand reaches belongs in tests/oracles.py or nowhere.
    assert reachability_faults(SRC, BENCH) == []


def test_reachability_guard_names_what_it_misses(tmp_path):
    # On copies: an unreached function added to src/, then a property whose name is read only as
    # a bare local (fem1d's element lengths `h`), then an allow-list text gone from e2ebench/.
    src = shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    basis = src / "basis.py"
    basis.write_text(basis.read_text() + "\n\ndef orphan(n):\n    return build_basis(n, 1)\n")
    assert reachability_faults(src, BENCH) == ["unreached: basis.orphan"]
    geometry = src / "geometry.py"
    mesh_size = "    @cached_property\n    def h(self):\n        return float(self._geometry[2].max())\n\n"
    anchor = "    @cached_property\n    def element_inscribed"
    geometry.write_text(geometry.read_text().replace(anchor, mesh_size + anchor))
    assert reachability_faults(src, BENCH) == ["unreached: basis.orphan", "unreached: geometry.SimplexMesh.h"]
    bench = shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    tracer = bench / "tracer.py"
    tracer.write_text(tracer.read_text().replace('hasattr(domain, "simplices")', 'hasattr(domain, "connectivity")'))
    assert reachability_faults(SRC, bench) == [
        "geometry.SimplexMesh.simplices: e2ebench/tracer.py no longer reads 'hasattr(domain, \"simplices\")'"
    ]
