"""The traced layers: what each span wraps, which end-to-end metric it
should move, and on which workload.

Each entry names one span.  ``target`` is what the tracer wraps:

- ``("function", module, name)``: a module-level function, replaced at
  every binding site in the package (``from .linalg import rref_rows``
  copies the reference into other modules, and each copy is replaced);
- ``("method", module, class, name)``: a class attribute, with its aliases
  (``__rmul__ = __mul__``);
- ``("group", module, names)``: several functions under one span name.

``moves`` lists the end-to-end metrics a change to this layer should move,
``on`` the workloads where it should move them (the self-test requires
calls there), and ``control`` workloads where it should not.  Per-scalar
field methods, ``Polynomial.__call__`` and ``EPSeq.at`` are deliberately
not wrapped: one root scan at p = 65521 makes about 65k such calls, and
their spans would cost more than the work they time.
"""

P90_QPS = ("throughput_qps", "latency_p90_ms")
P50 = ("latency_p50_ms",)
P90 = ("latency_p90_ms",)
QPS = ("throughput_qps",)
FINITE = ("finite_q", "finite_fp")


class Layer:
    __slots__ = ("name", "target", "counts", "moves", "on", "control")

    def __init__(self, name, target, moves, on, control=(), counts=()):
        self.name = name
        self.target = target
        self.moves = moves
        self.on = on
        self.control = control
        self.counts = counts


LAYERS = [
    Layer("kernels.mat_mul_mod", ("function", "kernels", "mat_mul_mod"), P90_QPS,
          ("finite_fp",), ("finite_q", "tree"), counts=("mults",)),
    Layer("kernels.mat_rref_mod", ("function", "kernels", "mat_rref_mod"), P90_QPS,
          ("finite_fp",), ("finite_q", "tree"), counts=("cells",)),
    Layer("linalg.rref_rows", ("function", "linalg", "rref_rows"), P90_QPS,
          ("finite_q", "tree"), ("banded",), counts=("cells", "rank_ratio")),
    Layer("linalg.matmul", ("method", "linalg", "Matrix", "__mul__"), P90_QPS,
          ("finite_q", "tree"), ("banded",), counts=("mults",)),
    Layer("linalg.kernel_basis", ("method", "linalg", "Matrix", "kernel_basis"), P90_QPS,
          ("finite_q", "tree"), ("banded",)),
    Layer("linalg.solve_matrix", ("method", "linalg", "Matrix", "solve_matrix"), P90_QPS,
          ("finite_q", "tree"), ("banded",)),
    Layer("linalg.minimal_polynomial", ("function", "linalg", "minimal_polynomial"), P90_QPS,
          ("finite_q",), ("banded",)),
    Layer("linalg.diagonalize_finite", ("function", "linalg", "diagonalize_finite"), P90_QPS,
          ("finite_q",), ("banded",)),
    Layer("linalg.matrix_new", ("method", "linalg", "Matrix", "__init__"), P50, FINITE),
    Layer("textio.parse", ("group", "textio", (
        "parse_field", "parse_matrix", "parse_scalar_list", "parse_operator",
        "parse_operator_lines", "parse_vector", "parse_family", "parse_finite_algebra",
        "parse_setmap", "parse_tree")), P50, FINITE),
    Layer("textio.format", ("group", "textio", (
        "format_field", "format_matrix", "format_polynomial", "format_operator",
        "format_vector", "format_scalar_list", "format_setmap", "format_tree")), P50, FINITE),
    Layer("cli.main", ("function", "cli", "main"), P50, FINITE),
    Layer("linalg.poly_at_matrix", ("function", "linalg", "poly_at_matrix"), P90, FINITE,
          ("tree",)),
    Layer("funcalg.classical_equivalences", ("function", "funcalg", "classical_equivalences"),
          P90, FINITE, ("tree",)),
    Layer("funcalg.crt_split", ("function", "funcalg", "crt_split"), P90, FINITE, ("tree",)),
    Layer("fields.poly_splits_simply", ("function", "fields", "poly_splits_simply"), QPS,
          ("finite_fp",), ("tree",)),
    Layer("fields.poly_divmod", ("method", "fields", "Polynomial", "__divmod__"), QPS,
          ("finite_fp",), ("tree",)),
    Layer("fields.poly_mul", ("method", "fields", "Polynomial", "__mul__"), QPS,
          ("finite_fp",), ("tree",)),
    Layer("funcalg.hom_new", ("method", "funcalg", "AlgebraHom", "__init__"), QPS,
          ("finite_fp",), ("banded", "tree")),
    Layer("funcalg.radical", ("function", "funcalg", "radical"), QPS,
          ("finite_fp",), ("banded", "tree")),
    Layer("operators.op_mul", ("method", "operators", "Operator", "__mul__"), P90_QPS,
          ("banded", "tree"), ("finite_q",)),
    Layer("operators.apply", ("method", "operators", "Operator", "apply"), P90_QPS,
          ("banded",), ("finite_q",)),
    Layer("operators.krylov_torsion", ("function", "operators", "krylov_torsion"), P90_QPS,
          ("banded",), ("finite_q",), counts=("steps", "unknown_ratio")),
    Layer("operators.closure_membership", ("function", "operators", "closure_membership"),
          P90_QPS, ("banded",), ("finite_q",)),
    Layer("operators.finite_field_diag_check",
          ("function", "operators", "finite_field_diag_check"), P90_QPS, ("banded",),
          ("finite_q",)),
    Layer("fields.epseq_new", ("method", "fields", "EPSeq", "__init__"), P90_QPS,
          ("banded",), ("finite_q",)),
    Layer("idempotents.validate", ("function", "idempotents", "validate"), QPS,
          ("banded",), FINITE),
    Layer("idempotents.summability", ("function", "idempotents", "summability"), QPS,
          ("banded",), FINITE),
    Layer("idempotents.simultaneous_diagonalize_families",
          ("function", "idempotents", "simultaneous_diagonalize_families"), QPS,
          ("banded",), FINITE),
    Layer("idempotents.common_eigenvector_search",
          ("function", "idempotents", "common_eigenvector_search"), QPS, ("banded",), FINITE),
    Layer("treegen.build", ("function", "treegen", "build"), P90_QPS, ("tree",),
          FINITE + ("banded",)),
    Layer("treegen.verify", ("function", "treegen", "verify"), P90_QPS, ("tree",),
          FINITE + ("banded",)),
    Layer("treegen.idempotent_family", ("function", "treegen", "idempotent_family"), P90_QPS,
          ("tree",), FINITE + ("banded",)),
    Layer("treegen.no_common_eigenvector", ("function", "treegen", "no_common_eigenvector"),
          P90_QPS, ("tree",), FINITE + ("banded",)),
    Layer("treegen.discreteness_witness", ("function", "treegen", "discreteness_witness"),
          P90_QPS, ("tree",), FINITE + ("banded",)),
    Layer("linalg.subspace_intersection", ("method", "linalg", "Subspace", "intersection"),
          P90_QPS, ("tree",), FINITE + ("banded",)),
]

# Derived per-layer metrics: name -> (unit, better, workloads with a nonzero value)
DERIVED = {
    "fields.root_scan.hit_ratio": ("ratio", "higher", ("finite_fp",)),
    "trace.overhead": ("ratio", "higher", ("finite_q", "finite_fp", "banded", "tree")),
}

# Modules that import these names with ``from .x import name``: a wrapper
# installed only in the defining module would report no calls from them.
REQUIRED_SITES = {
    "linalg.rref_rows": {"linalg", "operators", "idempotents", "treegen"},
    "fields.poly_splits_simply": {"fields", "linalg", "operators", "funcalg", "cli"},
}


def metric_units():
    """Every per-layer metric name with its unit and direction."""
    out = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = ("count", "lower")
        out[f"{layer.name}.self_s"] = ("s", "lower")
        for c in layer.counts:
            ratio = c.endswith("_ratio")
            out[f"{layer.name}.{c}"] = ("ratio" if ratio else "count",
                                        "higher" if c == "rank_ratio" else "lower")
    for name, (unit, better, _) in DERIVED.items():
        out[name] = (unit, better)
    return out
