"""Command-line surface: every operation as a subcommand, JSON reports on
stdout, and a fixed exit-code contract so shell pipelines can branch on
verdicts:

    0  verdict positive        2  unknown / semi-decided only
    1  verdict negative        3  input or usage error
                               4  internal error (a bug; the report names
                                  the exception type)

Inputs come from --input FILE (or '-' for stdin) in the textual formats of
textio; small inputs can be passed inline with --text.  Reports always echo
the command and carry the witness or certificate behind the verdict.
"""

import argparse
import json
import sys
import time
from functools import cache

from . import acceptance, textio, treegen
from .errors import AlgebraError, DoesNotSplitSimply, ParseError
from .fields import poly_splits_simply
from .funcalg import (
    FunctionAlgebra,
    classical_equivalences,
    crt_split,
    dual_map,
    radical,
    spec0,
    spec_of_hom,
)
from .idempotents import summability
from .linalg import diagonalize_finite, simultaneous_diagonalize_finite
from .operators import (
    closure_membership,
    finite_field_diag_check,
    krylov_torsion,
)
from .textio import (
    format_field,
    format_matrix,
    format_operator,
    format_polynomial,
    format_tree,
    format_vector,
    parse_family,
    parse_field,
    parse_finite_algebra,
    parse_matrix,
    parse_operator,
    parse_setmap,
    parse_tree,
    parse_vector,
)

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _read_input(args):
    if getattr(args, "text", None) is not None:
        return args.text
    path = getattr(args, "input", None)
    if path is None:
        raise ParseError("no input: pass --input FILE (use '-' for stdin) or --text")
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(report, exit_code):
    report["exit"] = exit_code
    json.dump(report, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")
    return exit_code


def _operator_and_vectors(text):
    op_lines = []
    vec_lines = []
    for line in text.splitlines():
        if line.strip().startswith("vec"):
            vec_lines.append(line.strip())
        else:
            op_lines.append(line)
    T = textio.parse_operator_lines(op_lines)
    vecs = [parse_vector(T.field, line) for line in vec_lines]
    return T, vecs


def cmd_diag_finite(args):
    field = parse_field(args.field)
    T = parse_matrix(field, _read_input(args))
    res = diagonalize_finite(T)
    report = {"command": "diag-finite", "field": format_field(field),
              "verdict": "diagonalizable" if res.ok else "not_diagonalizable"}
    if res.ok:
        report["p"] = format_matrix(res.p)
        report["d"] = format_matrix(res.d)
        report["eigenvalues"] = [field.format_scalar(v) for v in res.eigenvalues]
        return _emit(report, EXIT_POSITIVE)
    report["mu"] = format_polynomial(res.mu)
    return _emit(report, EXIT_NEGATIVE)


def cmd_diag_ffield(args):
    T = parse_operator(_read_input(args))
    ok = finite_field_diag_check(T)
    p = T.field.char
    report = {"command": "diag-ffield", "field": format_field(T.field),
              "verdict": "diagonalizable" if ok else "not_diagonalizable",
              "detail": f"T^{p} = T" if ok else f"T^{p} != T"}
    return _emit(report, EXIT_POSITIVE if ok else EXIT_NEGATIVE)


def cmd_torsion(args):
    T, vecs = _operator_and_vectors(_read_input(args))
    if not vecs:
        raise ParseError("torsion needs a 'vec ...' line")
    rep = krylov_torsion(T, vecs[0], depth=args.depth)
    report = {"command": "torsion", "field": format_field(T.field),
              "verdict": rep.outcome, "depth_used": rep.depth_used}
    if rep.outcome == "torsion":
        report["annihilator"] = format_polynomial(rep.annihilator)
        return _emit(report, EXIT_POSITIVE)
    if rep.outcome == "non_torsion":
        report["certificate"] = rep.certificate
        return _emit(report, EXIT_NEGATIVE)
    return _emit(report, EXIT_UNKNOWN)


def cmd_closure(args):
    T, vecs = _operator_and_vectors(_read_input(args))
    rep = closure_membership(T, vecs, depth=args.depth)
    report = {"command": "closure", "field": format_field(T.field),
              "verdict": rep.outcome, "semi_decided": rep.semi_decided,
              "detail": rep.detail}
    if rep.witness is not None:
        report["witness"] = format_vector(rep.witness)
        report["witness_annihilator"] = format_polynomial(rep.witness_annihilator)
    code = {"in_closure": EXIT_POSITIVE, "not_in_closure": EXIT_NEGATIVE,
            "unknown": EXIT_UNKNOWN}[rep.outcome]
    return _emit(report, code)


def cmd_summable(args):
    fam = parse_family(_read_input(args))
    rep = summability(fam)
    report = {"command": "summable", "field": format_field(fam.field),
              "family": fam.kind,
              "verdict": "summable" if rep.summable else "not_summable"}
    if rep.summable:
        report["sum"] = format_operator(rep.sum)
        report["sums_to_one"] = rep.sums_to_one
        return _emit(report, EXIT_POSITIVE)
    report["witness_index"] = rep.witness_index
    return _emit(report, EXIT_NEGATIVE)


def cmd_simdiag(args):
    field = parse_field(args.field)
    mats = []
    for line in _read_input(args).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("matrix"):
            line = line[6:].strip()
        mats.append(parse_matrix(field, line))
    if not mats:
        raise ParseError("simdiag needs at least one matrix line")
    res = simultaneous_diagonalize_finite(mats)
    report = {"command": "simdiag", "field": format_field(field),
              "verdict": "joint" if res.ok else "fail"}
    if res.ok:
        report["p"] = format_matrix(res.p)
        return _emit(report, EXIT_POSITIVE)
    report["reason"] = res.reason
    if res.reason == "noncommuting":
        report["witness"] = list(res.witness)
    else:
        report["witness"] = {"index": res.witness[0],
                             "mu": format_polynomial(res.witness[1])}
    return _emit(report, EXIT_NEGATIVE)


def cmd_tree(args):
    if args.action == "build":
        d = treegen.build(args.depth, args.truncate, seed=args.seed)
        rep = treegen.verify(d)
        report = {"command": "tree build", "verdict": "pass" if rep.ok else "fail",
                  "depth": d.depth, "window": d.window,
                  "document": format_tree(d)}
        return _emit(report, EXIT_POSITIVE if rep.ok else EXIT_NEGATIVE)
    text = _read_input(args)
    d = parse_tree(text, verify_on_load=False)
    if args.action == "verify":
        rep = treegen.verify(d)
        report = {"command": "tree verify",
                  "verdict": "pass" if rep.ok else "fail"}
        if not rep.ok:
            report["clause"] = rep.clause
            report["witness"] = rep.witness
        return _emit(report, EXIT_POSITIVE if rep.ok else EXIT_NEGATIVE)
    if args.action == "family":
        level = args.level if args.level is not None else d.depth
        ops = treegen.idempotent_family(d, level)
        report = {"command": "tree family", "verdict": "ok", "level": level,
                  "labels": treegen.strings(level),
                  "members": [format_operator(op) for op in ops]}
        return _emit(report, EXIT_POSITIVE)
    raise ParseError(f"unknown tree action {args.action!r}")


def cmd_spec0(args):
    field = parse_field(args.field)
    words = _read_input(args).split()
    try:
        n = int(words[-1])
    except (IndexError, ValueError):
        raise ParseError(f"spec0 needs a point count, got {' '.join(words)!r}") from None
    A = FunctionAlgebra(field, n)
    ideals = spec0(A)
    report = {"command": "spec0", "field": format_field(field), "points": n,
              "verdict": "ok",
              "ideals": [{"point": m.point, "codim": 1,
                          "basis_size": m.basis_size} for m in ideals]}
    return _emit(report, EXIT_POSITIVE)


def cmd_duality_check(args):
    field = parse_field(args.field)
    phi = parse_setmap(_read_input(args))
    h = dual_map(phi, field)
    back = spec_of_hom(h)
    ok = back == phi and dual_map(back, field) == h
    report = {"command": "duality-check", "field": format_field(field),
              "map": textio.format_setmap(phi),
              "verdict": "round_trips" if ok else "broken",
              "hom_matrix": format_matrix(h.matrix)}
    return _emit(report, EXIT_POSITIVE if ok else EXIT_NEGATIVE)


def cmd_crt(args):
    field = parse_field(args.field)
    f = textio.parse_polynomial(field, _read_input(args))
    try:
        split = crt_split(f)
    except DoesNotSplitSimply as exc:
        report = {"command": "crt", "field": format_field(field),
                  "verdict": "does_not_split_simply",
                  "reason": str(exc) or poly_splits_simply(f).reason}
        return _emit(report, EXIT_NEGATIVE)
    report = {"command": "crt", "field": format_field(field), "verdict": "splits",
              "roots": [field.format_scalar(r) for r in split.roots],
              "idempotents": [format_polynomial(e) for e in split.idempotents]}
    return _emit(report, EXIT_POSITIVE)


def cmd_radical(args):
    A = parse_finite_algebra(_read_input(args))
    J = radical(A)
    report = {"command": "radical", "field": format_field(A.field),
              "dim": A.dim, "radical_dim": J.dim,
              "verdict": "semisimple" if J.dim == 0 else "has_radical",
              "radical_basis": [textio.format_scalar_list(A.field, list(r))
                                for r in J.rows]}
    return _emit(report, EXIT_POSITIVE if J.dim == 0 else EXIT_NEGATIVE)


def cmd_classical(args):
    field = parse_field(args.field)
    T = parse_matrix(field, _read_input(args))
    rep = classical_equivalences(T)
    report = {"command": "classical", "field": format_field(field),
              "verdict": "diagonalizable" if rep.diagonalizable else "not_diagonalizable",
              "consistent": rep.consistent,
              "mu": format_polynomial(rep.mu),
              "algebra_dim": rep.algebra_dim,
              "splits_simply": rep.splits}
    if rep.power_identity is not None:
        report["power_identity"] = rep.power_identity
    if rep.idempotents is not None:
        report["idempotents"] = [format_matrix(E) for E in rep.idempotents]
    return _emit(report, EXIT_POSITIVE if rep.diagonalizable else EXIT_NEGATIVE)


def cmd_suite(args):
    start = time.time()
    results = acceptance.run_all(seed=args.seed)
    ok = all(r.passed for r in results)
    report = {"command": "suite", "seed": args.seed,
              "verdict": "pass" if ok else "fail",
              "results": [r.as_dict(with_timing=not args.no_timing)
                          for r in results]}
    if not args.no_timing:
        report["elapsed_s"] = round(time.time() - start, 3)
    for r in results:
        print(r.line(), file=sys.stderr)
    return _emit(report, EXIT_POSITIVE if ok else EXIT_NEGATIVE)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code, not argparse's 2, which
    the contract reads as "unknown"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@cache
def build_parser():
    """The argument parser, built on first use: building it costs far more
    than parsing one command line, and parsing leaves it unchanged."""
    parser = _Parser(
        prog="diagalg",
        description="exact diagonalizability workbench over Q and prime fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--input", help="input file, or '-' for stdin")
        p.add_argument("--text", help="inline input text")
        p.set_defaults(fn=fn)
        return p

    p = add("diag-finite", cmd_diag_finite, help="diagonalize a square matrix")
    p.add_argument("--field", required=True, help="Q or Fp:<p>")
    add("diag-ffield", cmd_diag_ffield,
        help="T^p = T test for a banded operator over a prime field")
    p = add("torsion", cmd_torsion, help="Krylov torsion probe of a vector")
    p.add_argument("--depth", type=int, default=64)
    p = add("closure", cmd_closure,
            help="membership in the closure of the diagonalizable operators")
    p.add_argument("--depth", type=int, default=64)
    add("summable", cmd_summable, help="summability of an idempotent family")
    p = add("simdiag", cmd_simdiag, help="simultaneous diagonalization of matrices")
    p.add_argument("--field", required=True)
    p = add("tree", cmd_tree, help="binary-tree subspace decompositions")
    p.add_argument("action", choices=["build", "verify", "family"])
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--truncate", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--level", type=int, default=None)
    p = add("spec0", cmd_spec0, help="open maximal ideals of K^X")
    p.add_argument("--field", required=True)
    p = add("duality-check", cmd_duality_check,
            help="dual map and point recovery round trip for a set map")
    p.add_argument("--field", required=True)
    p = add("crt", cmd_crt, help="Lagrange idempotents of K[x]/(f)")
    p.add_argument("--field", required=True)
    add("radical", cmd_radical, help="Jacobson radical of a structure-constant algebra")
    p = add("classical", cmd_classical,
            help="the three diagonalizability equivalences for a matrix")
    p.add_argument("--field", required=True)
    p = sub.add_parser("suite", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-timing", action="store_true",
                   help="omit timing fields for bit-reproducible reports")
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        _emit({"command": args.command, "verdict": "input_error",
               "error": str(exc)}, EXIT_INPUT)
        return EXIT_INPUT
    except (AlgebraError, ValueError, OSError) as exc:
        _emit({"command": args.command, "verdict": "input_error",
               "error": f"{type(exc).__name__}: {exc}"}, EXIT_INPUT)
        return EXIT_INPUT
    except Exception as exc:
        import traceback  # only on this path: it adds 0.5 MB to every start-up

        traceback.print_exc(file=sys.stderr)
        _emit({"command": args.command, "verdict": "internal_error",
               "error": f"{type(exc).__name__}: {exc}"}, EXIT_INTERNAL)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
