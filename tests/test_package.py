"""The package's exports, which load their modules on first access.

`import fem_accuracy` imports none of the package's modules and no numpy.
Each exported name is imported from its defining module when it is first
read, and is then the very object that module defines.
"""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import fem_accuracy

# The 50 exported names, in the order of the modules that first exported them.
EXPORTS = [
    "BarycentricPolynomial", "PkBasis", "auxiliary_factor", "build_basis",
    "chain_rule_weights", "multi_indices", "tabulate",
    "BoundCheck", "ConstantBundle", "local_interp_bound", "log_script_c",
    "point_bound_check", "script_c", "seminorm_bound_check", "xi",
    "DiscreteSolution", "ModelProblem", "assemble_and_solve_all", "convergence_study", "error_reports",
    "Polynomial1D", "SinPiProduct",
    "DegenerateSimplexError", "Simplex", "SimplexMesh", "reference_simplex",
    "structured_mesh_2d", "uniform_mesh_1d",
    "AdmissibilityError", "AnalyticField", "DifferenceField", "PiecewisePolynomialField",
    "SobolevIndex", "interpolation_error", "seminorm", "seminorm_with_estimate",
    "AccuracyLaw", "Bump", "ElementPair", "GeometricSeminormModel", "SinPiSeminormModel",
    "h_star", "h_star_explicit", "h_star_sequence", "h_stars", "weak_star_pairing", "weak_star_test",
    "QuadratureRule", "interval_rule", "simplex_rule",
]  # fmt: skip


def test_all_lists_the_exports():
    assert len(EXPORTS) == 50
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
    for path in sorted(pathlib.Path(fem_accuracy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                unused += [f"{path.name}: {a.asname or a.name}" for a in node.names if (a.asname or a.name) not in read]
    assert unused == []
