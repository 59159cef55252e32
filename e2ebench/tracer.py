"""Spans and counters for the traced run, recorded from the benchmark's side.

The tracer wraps public library names where their callers look them up at
call time (a module attribute), so nothing under src/ is edited. Each wrapped
call records a span (name, start, end, parent span, op id); spans stay in
memory and are written out when the run ends. A layer's self time is its
duration minus the time covered by its child spans. Counters are taken at the
same boundaries, computed from the arguments and results of the calls.

High-frequency names get no span: `BarycentricPolynomial.__init__` is only
counted.
"""

from __future__ import annotations

import math
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

# Span names, in report order. "op" and "setup" are roots made by the benchmark.
LAYERS = (
    "cli.main",
    "basis.build",
    "basis.unisolvence",
    "basis.interpolant",
    "geometry.mesh",
    "quadrature.rule",
    "norms.seminorm",
    "bounds.point_scan",
    "bounds.seminorm_cap",
    "probability.hstar_seq",
    "probability.weak_star",
    "fem1d.assemble_solve",
    "fem1d.error_report",
    "kernels",
)

# (layer, module, attribute path): where each layer's public name is looked up.
WRAPS = (
    ("cli.main", "fem_accuracy.cli", "main"),
    ("basis.build", "fem_accuracy", "build_basis"),
    ("basis.build", "fem_accuracy.fem1d", "build_basis"),
    ("basis.build", "fem_accuracy.cli", "build_basis"),
    ("basis.unisolvence", "fem_accuracy.basis", "PkBasis.evaluation_matrix"),
    ("basis.unisolvence", "fem_accuracy.basis", "PkBasis.sum_polynomial"),
    ("basis.unisolvence", "fem_accuracy.basis", "BarycentricPolynomial.reduced"),
    ("basis.interpolant", "fem_accuracy.norms", "interpolant_field"),
    ("geometry.mesh", "fem_accuracy", "structured_mesh_2d"),
    ("geometry.mesh", "fem_accuracy", "uniform_mesh_1d"),
    ("geometry.mesh", "fem_accuracy.fem1d", "uniform_mesh_1d"),
    ("quadrature.rule", "fem_accuracy.norms", "simplex_rule"),
    ("quadrature.rule", "fem_accuracy.fem1d", "interval_rule"),
    ("norms.seminorm", "fem_accuracy.norms", "seminorm_with_estimate"),
    ("norms.seminorm", "fem_accuracy.norms", "seminorm"),
    ("norms.seminorm", "fem_accuracy.fem1d", "seminorm_with_estimate"),
    ("norms.seminorm", "fem_accuracy.fem1d", "seminorm"),
    ("norms.seminorm", "fem_accuracy.bounds", "seminorm"),
    ("bounds.point_scan", "fem_accuracy", "point_bound_check"),
    ("bounds.point_scan", "fem_accuracy.cli", "point_bound_check"),
    ("bounds.seminorm_cap", "fem_accuracy", "seminorm_bound_check"),
    ("bounds.seminorm_cap", "fem_accuracy.cli", "seminorm_bound_check"),
    ("probability.hstar_seq", "fem_accuracy", "h_star_sequence"),
    ("probability.hstar_seq", "fem_accuracy.cli", "h_star_sequence"),
    ("probability.hstar_seq", "fem_accuracy.probability", "h_star_sequence"),
    ("probability.weak_star", "fem_accuracy", "weak_star_test"),
    ("probability.weak_star", "fem_accuracy.cli", "weak_star_test"),
    ("fem1d.assemble_solve", "fem_accuracy.fem1d", "assemble_and_solve"),
    ("fem1d.error_report", "fem_accuracy.fem1d", "error_report"),
    ("kernels", "fem_accuracy.kernels", "eval_terms"),
    ("kernels", "fem_accuracy.kernels", "max_abs_eval"),
)

IMPORT_MODULES = ("basis", "quadrature", "norms", "bounds", "probability", "fem1d", "kernels")

# Per-layer metrics: (name, unit). Time metrics are self times over one traced pass.
PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"{m}.import_s", "s") for m in IMPORT_MODULES]
    + [
        ("cli.main_s", "s"),
        ("basis.build_s", "s"),
        ("basis.unisolvence_s", "s"),
        ("basis.interpolant_s", "s"),
        ("basis.poly_objects", "count"),
        ("geometry.mesh_s", "s"),
        ("geometry.elements", "count"),
        ("quadrature.rule_s", "s"),
        ("quadrature.rules_built", "count"),
        ("quadrature.rule_reuse_ratio", "ratio"),
        ("norms.seminorm_s", "s"),
        ("norms.point_evals", "count"),
        ("norms.point_evals_per_s", "1/s"),
        ("bounds.point_scan_s", "s"),
        ("bounds.points_scanned", "count"),
        ("bounds.seminorm_cap_s", "s"),
        ("probability.hstar_seq_s", "s"),
        ("probability.weak_star_s", "s"),
        ("probability.integrand_evals", "count"),
        ("fem1d.assemble_solve_s", "s"),
        ("fem1d.error_report_s", "s"),
        ("fem1d.dofs", "count"),
        ("fem1d.peak_alloc_mb", "MB"),
        ("fem1d.max_residual", "ratio"),
        ("kernels.calls", "count"),
        ("kernels.point_terms", "count"),
        ("kernels.bytes_computed", "bytes"),
        ("kernels.s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class Tracer:
    """In-memory span recorder plus the counters of the per-layer table."""

    def __init__(self):
        self.names = list(LAYERS) + ["op", "setup"]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.counts = dict.fromkeys(
            (
                "basis.poly_objects",
                "geometry.elements",
                "quadrature.rules_built",
                "norms.point_evals",
                "bounds.points_scanned",
                "probability.integrand_evals",
                "fem1d.dofs",
                "kernels.calls",
                "kernels.point_terms",
                "kernels.bytes_computed",
            ),
            0,
        )
        self.rule_keys = set()
        self.max_residual = 0.0
        self.largest_solve = None
        self._rule_sizes = {}
        self._restore = []

    @contextmanager
    def span(self, name):
        nid = self._ids[name]
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (nid, t0, t1, parent, self.op_id)

    def _wrap(self, name, fn, count):
        nid = self._ids[name]
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op_id)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    # ---------------------------------------------------------------- counters

    def _rule_size(self, n, degree):
        from fem_accuracy import quadrature

        key = (n, degree)
        if key not in self._rule_sizes:
            self._rule_sizes[key] = quadrature.simplex_rule(n, degree).size
        return self._rule_sizes[key]

    def _count_rule(self, args, kwargs, rule):
        self.counts["quadrature.rules_built"] += 1
        self.rule_keys.add((rule.n, rule.exactness_degree))

    def _count_mesh(self, args, kwargs, mesh):
        self.counts["geometry.elements"] += len(mesh)

    def _seminorm_counter(self, rules_per_call):
        from fem_accuracy import norms

        def count(args, kwargs, result):
            domain, l = args[1], args[2]
            degree = args[4] if len(args) > 4 else kwargs["degree"]
            elements = len(domain) if hasattr(domain, "simplices") else 1
            directions = len(norms.derivative_multi_indices(domain.n, l))
            points = sum(self._rule_size(domain.n, degree + step) for step in rules_per_call)
            self.counts["norms.point_evals"] += elements * directions * points

        return count

    def _count_point_scan(self, args, kwargs, check):
        n, r = check.params["n"], check.params["r"]
        variable_sets = 1 if r == 0 else math.comb(n + r, r)
        self.counts["bounds.points_scanned"] += check.params["points"] * len(args[0].polynomials) * variable_sets

    def _count_solve(self, args, kwargs, solution):
        ndof = len(solution.coefficients)
        self.counts["fem1d.dofs"] += ndof
        self.max_residual = max(self.max_residual, solution.residual)
        if self.largest_solve is None or ndof > self.largest_solve[0]:
            self.largest_solve = (ndof, args, kwargs)

    def _count_kernel(self, args, kwargs, result):
        points, exps, coeffs = args[:3]
        npts = int(np.prod(np.shape(points)[:-1])) if np.ndim(points) > 1 else 1
        nterms, nvars = exps.shape
        self.counts["kernels.calls"] += 1
        self.counts["kernels.point_terms"] += npts * nterms
        # Computed from array sizes: points, exponents, coefficients, and one value per point.
        self.counts["kernels.bytes_computed"] += 8 * (npts * nvars + nterms * nvars + nterms + npts)

    # --------------------------------------------------------------- install

    def install(self):
        import importlib

        import fem_accuracy.cli  # noqa: F401  (cli is not imported by the package)
        from fem_accuracy import norms

        counters = {
            "geometry.mesh": self._count_mesh,
            "quadrature.rule": self._count_rule,
            "bounds.point_scan": self._count_point_scan,
            "fem1d.assemble_solve": self._count_solve,
            "kernels": self._count_kernel,
        }
        estimate_step = getattr(norms, "ESTIMATE_DEGREE_STEP", 4)
        for layer, modname, path in WRAPS:
            owner = importlib.import_module(modname)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            count = counters.get(layer)
            if layer == "norms.seminorm":
                count = self._seminorm_counter((0, estimate_step) if "estimate" in attr else (0,))
            self._patch(owner, attr, self._wrap(layer, fn, count))

        tracer = self
        polynomial = fem_accuracy.BarycentricPolynomial
        init = polynomial.__init__

        def counting_init(obj, *args, **kwargs):
            tracer.counts["basis.poly_objects"] += 1
            init(obj, *args, **kwargs)

        self._patch(polynomial, "__init__", counting_init)

        class CountingBump(fem_accuracy.Bump):
            """Bump that counts the points it is evaluated at."""

            def __call__(self, h):
                tracer.counts["probability.integrand_evals"] += int(np.size(h))
                return super().__call__(h)

        for module in (fem_accuracy, fem_accuracy.cli):
            self._patch(module, "Bump", CountingBump)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------------- results

    def self_times(self):
        """Self time per span name, summed over every recorded span."""
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=np.float64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        covered = np.zeros(len(arr))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        selfs = np.bincount(arr[:, 0].astype(np.int64), weights=dur - covered, minlength=len(self.names))
        return {name: float(selfs[i]) for i, name in enumerate(self.names)}

    def inclusive_time(self, name):
        """Wall time of the outermost spans of one name (nested ones not counted twice)."""
        nid = self._ids[name]
        total = 0.0
        for span in self.spans:
            if span[0] == nid and (span[3] < 0 or self.spans[span[3]][0] != nid):
                total += span[2] - span[1]
        return total

    def peak_alloc_mb(self):
        """tracemalloc peak of the largest assemble_and_solve seen, rerun after uninstall()."""
        if self.largest_solve is None:
            return 0.0
        from fem_accuracy import fem1d

        _, args, kwargs = self.largest_solve
        tracemalloc.start()
        try:
            fem1d.assemble_and_solve(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def save(self, path):
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=arr[:, 0].astype(np.int32),
            start=arr[:, 1],
            end=arr[:, 2],
            parent=arr[:, 3].astype(np.int64),
            op=arr[:, 4].astype(np.int32),
        )

    def metrics(self, untraced_s, traced_s, import_times):
        selfs = self.self_times()
        out = {"cli.import_s": import_times.get("fem_accuracy", 0.0)}
        for m in IMPORT_MODULES:
            out[f"{m}.import_s"] = import_times.get(f"fem_accuracy.{m}", 0.0)
        for layer in LAYERS:
            key = "kernels.s" if layer == "kernels" else f"{layer}_s"
            out[key] = selfs.get(layer, 0.0)
        out.update(self.counts)
        built = self.counts["quadrature.rules_built"]
        out["quadrature.rule_reuse_ratio"] = len(self.rule_keys) / built if built else 0.0
        norms_s = self.inclusive_time("norms.seminorm")
        out["norms.point_evals_per_s"] = self.counts["norms.point_evals"] / norms_s if norms_s else 0.0
        out["fem1d.max_residual"] = self.max_residual
        out["fem1d.peak_alloc_mb"] = self.peak_alloc_mb()
        out["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
        return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER}


IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")


def import_times(env, cwd, repeats=3):
    """Cumulative import time per module, the median of `-X importtime` runs in fresh processes."""
    samples = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fem_accuracy"],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=60,
            check=True,
        )
        for match in IMPORTTIME_LINE.finditer(proc.stderr):
            samples.setdefault(match.group(3), []).append(int(match.group(2)) * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items() if name.startswith("fem_accuracy")}
