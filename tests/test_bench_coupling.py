"""The benchmark's tracer against the library it wraps.

e2ebench/tracer.py patches library names by module and attribute path, so a
renamed or deleted name silently drops a layer from traced runs.  These tests
install the tracer, build a basis and run one small scan, and check that the
basis constructions and the scanned points are still counted and that
uninstalling puts every original object back.  The tracer counts the kernel
layer through a wrap of kernels.eval_terms, which the product-form tables
replaced, so its kernels.* metrics read 0 until it wraps the new generator.
The tracer also reads the element count of a domain by its `simplices`
attribute when it counts seminorm point evaluations; a test pins that count
on a mesh and on a one-element mesh.  A traced convergence study goes
through names the tracer does not wrap, so it records no solve to re-run.
"""

import importlib
import importlib.util
from pathlib import Path

import fem_accuracy
from fem_accuracy import build_basis, fem1d, norms
from fem_accuracy.functions import SinPiProduct
from fem_accuracy.geometry import reference_simplex, structured_mesh_2d
from fem_accuracy.quadrature import simplex_rule

TRACER_PATH = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(modname, path):
    """(owner, attribute, current value) of one WRAPS entry; value None if missing."""
    owner = importlib.import_module(modname)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr, None)


def wrapped_entries(tracer_module):
    """(owner, attribute, original value) of every name the tracer patches."""
    for _, modname, _ in tracer_module.WRAPS:
        importlib.import_module(modname)
    import fem_accuracy.cli

    entries = [lookup(modname, path) for _, modname, path in tracer_module.WRAPS]
    return entries + [
        (fem_accuracy.BarycentricPolynomial, "__init__", fem_accuracy.BarycentricPolynomial.__init__),
        (fem_accuracy, "Bump", fem_accuracy.Bump),
        (fem_accuracy.cli, "Bump", fem_accuracy.cli.Bump),
    ]


def test_tracer_counts_kernel_calls_and_restores_every_name():
    tracer_module = load_tracer()
    entries = wrapped_entries(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        basis = build_basis(2, 2)
        built = tracer.counts["basis.poly_objects"]
        fem_accuracy.point_bound_check(basis, 1, subdivisions=4, samples=10)
    finally:
        tracer.uninstall()
    assert built > 0
    assert tracer.counts["bounds.points_scanned"] > 0
    for owner, attr, original in entries:
        assert getattr(owner, attr, None) is original, (owner, attr)


def test_tracer_counts_seminorm_points_on_every_element():
    tracer = load_tracer().Tracer()
    mesh = structured_mesh_2d(2)
    simplex = reference_simplex(2)
    tracer.install()
    try:
        norms.seminorm(SinPiProduct(2), mesh, 1, 2.0, degree=6)
        mesh_points = tracer.counts["norms.point_evals"]
        norms.seminorm(SinPiProduct(2), simplex, 1, 2.0, degree=6)
    finally:
        tracer.uninstall()
    directions = len(norms.derivative_multi_indices(2, 1))
    assert len(mesh) == 8 and len(simplex) == 1
    assert mesh_points == 8 * directions * simplex_rule(2, 6).size
    assert tracer.counts["norms.point_evals"] - mesh_points == directions * simplex_rule(2, 6).size


def test_traced_convergence_study_restores_every_name():
    # WRAPS also names attributes the library does not define, such as
    # fem1d.assemble_and_solve; install skips them.
    tracer_module = load_tracer()
    entries = wrapped_entries(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        rows, _ = fem1d.convergence_study(fem1d.ModelProblem.sine(), 2, 1, 2.0, [4, 8])
    finally:
        tracer.uninstall()
    assert len(rows) == 2
    for owner, attr, original in entries:
        assert getattr(owner, attr, None) is original, (owner, attr)
    assert tracer.peak_alloc_mb() == 0.0
