"""Command-line interface.

Subcommands: build-torus, build-closed-torus, build-sphere, verify,
invariants, isomorphic, normalize, experiment.  Scalars on the command line
use the expression literal grammar (rationals, decimals, A and A^k, i in the
bigfloat backend).  Exit status: 0 on success, 1 on verification or domain
failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import serialize
from .errors import SkeinError
from .expressions import normalize, parse, parse_scalar
from .invariants import extract_invariants, verify_relations
from .scalars import Tolerance, make_root_system
from .sphere import build_sphere_rep
from .surfaces import surface_from_tag
from .torus import build_torus_rep, closed_torus_rep, torus_params_from_shadow
from .uniqueness import ExperimentConfig, intertwiner_search, uniqueness_experiment

PASS, FAIL, USAGE = 0, 1, 2


def _add_system_flags(sub):
    sub.add_argument("--N", type=int, default=3, help="odd order of the root of -1")
    sub.add_argument("--precision", type=int, default=256, help="bits for the bigfloat backend")


def _root_system(args, backend="bigfloat"):
    return make_root_system(args.N, backend, args.precision if backend == "bigfloat" else None)


def _tolerance(args):
    return Tolerance(args.tol) if args.tol is not None else None


def _emit(args, payload):
    text = serialize.dumps_canonical(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish_build(args, rep):
    report = verify_relations(rep, _tolerance(args))
    payload = serialize.rep_to_json(rep)
    payload["verification"] = serialize.to_jsonable({
        "passed": report.passed,
        "checks": report.checks,
        "relation_residuals": report.relation_residuals,
        "commutant_dim": report.commutant_dim,
    })
    _emit(args, payload)
    print(report.summary(), file=sys.stderr)
    return PASS if report.passed else FAIL


def _cmd_build_torus(args):
    rs = _root_system(args)
    t1, t2, t3 = (parse_scalar(v, rs) for v in (args.t1, args.t2, args.t3))
    p = parse_scalar(args.p, rs)
    params = torus_params_from_shadow(t1, t2, t3, p)
    return _finish_build(args, build_torus_rep(params))


def _cmd_build_closed_torus(args):
    rs = _root_system(args)
    t1, t2, t3 = (parse_scalar(v, rs) for v in (args.t1, args.t2, args.t3))
    return _finish_build(args, closed_torus_rep(t1, t2, t3))


def _cmd_build_sphere(args):
    rs = _root_system(args)
    values = [parse_scalar(v, rs) for v in
              (args.p0, args.p1, args.p2, args.p3, args.t1, args.t2, args.t3)]
    return _finish_build(args, build_sphere_rep(*values))


def _cmd_verify(args):
    rep = serialize.rep_from_json(serialize.read_json(args.rep))
    report = verify_relations(rep, _tolerance(args))
    _emit(args, serialize.to_jsonable({
        "surface": report.surface,
        "dim": report.dim,
        "tolerance": report.tolerance,
        "relation_residuals": report.relation_residuals,
        "chebyshev_deviations": report.chebyshev_deviations,
        "puncture_deviations": report.puncture_deviations,
        "commutant_dim": report.commutant_dim,
        "checks": report.checks,
        "passed": report.passed,
    }))
    print(report.summary(), file=sys.stderr)
    return PASS if report.passed else FAIL


def _cmd_invariants(args):
    rep = serialize.rep_from_json(serialize.read_json(args.rep))
    shadow = extract_invariants(rep, _tolerance(args))
    _emit(args, serialize.to_jsonable({
        "surface": shadow.surface,
        "convention": shadow.convention,
        "traces": shadow.traces,
        "puncture_values": shadow.puncture_values,
        "compatibility_ok": shadow.compatibility_ok,
    }))
    return PASS if shadow.compatibility_ok else FAIL


def _cmd_isomorphic(args):
    rep_a = serialize.rep_from_json(serialize.read_json(args.repA))
    rep_b = serialize.rep_from_json(serialize.read_json(args.repB))
    cert = intertwiner_search(rep_a, rep_b, _tolerance(args))
    if cert is None:
        _emit(args, {"isomorphic": False})
        return FAIL
    _emit(args, serialize.to_jsonable({
        "isomorphic": True,
        "intertwiner": cert.matrix,
        "residuals": cert.residuals,
        "condition_estimate": cert.condition_estimate,
    }))
    return PASS


def _cmd_normalize(args):
    rs = _root_system(args, args.backend)
    surface = surface_from_tag(args.surface)
    expr = parse(args.expr, surface, rs)
    nf = normalize(expr)
    print(str(nf))
    payload = {
        "surface": surface.tag,
        "input": args.expr,
        "terms": [
            {"monomial": nf.monomial_string(key),
             "coeff": serialize.scalar_to_json(nf.terms[key])}
            for key in nf.monomial_keys()
        ],
    }
    if args.out:
        serialize.write_json(args.out, payload)
    return PASS


def _cmd_experiment(args):
    surface = surface_from_tag(args.surface)
    config = ExperimentConfig(surface=surface, N=args.N, samples=args.samples,
                              seed=args.seed, precision_bits=args.precision)
    if args.tol is not None:
        config.residual_threshold = args.tol
    report = uniqueness_experiment(config)
    _emit(args, report.to_json())
    status = "PASS" if report.passed else "FAIL"
    print(f"experiment {status}: {args.samples} samples, worst residual "
          f"{report.worst_residual:.3e}", file=sys.stderr)
    return PASS if report.passed else FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skeinrep",
        description="construct, verify and compare representations of skein algebras "
                    "of small surfaces at odd roots of unity")
    sub = parser.add_subparsers(dest="command", required=True)

    builds = (
        ("build-torus", "N-dimensional punctured-torus representation",
         ("--t1", "--t2", "--t3", "--p"), _cmd_build_torus),
        ("build-closed-torus", "unpunctured-torus representation",
         ("--t1", "--t2", "--t3"), _cmd_build_closed_torus),
        ("build-sphere", "four-puncture sphere representation",
         ("--p0", "--p1", "--p2", "--p3", "--t1", "--t2", "--t3"), _cmd_build_sphere),
    )
    for name, help_text, flags, fn in builds:
        build = sub.add_parser(name, help=help_text)
        _add_system_flags(build)
        build.add_argument("--tol", type=float, default=None, help="override the relative tolerance")
        for flag in flags:
            build.add_argument(flag, required=True)
        build.add_argument("--out")
        build.set_defaults(fn=fn)

    reads = (
        ("verify", "check the presentation relations of a stored representation", ("rep",),
         _cmd_verify),
        ("invariants", "extract the classical shadow and puncture invariants", ("rep",),
         _cmd_invariants),
        ("isomorphic", "search for an invertible intertwiner", ("repA", "repB"), _cmd_isomorphic),
    )
    for name, help_text, paths, fn in reads:
        read = sub.add_parser(name, help=help_text)
        for path in paths:
            read.add_argument(path)
        read.add_argument("--tol", type=float, default=None)
        read.add_argument("--out")
        read.set_defaults(fn=fn)

    nm = sub.add_parser("normalize", help="rewrite an expression to ordered-monomial form")
    _add_system_flags(nm)
    nm.add_argument("--backend", choices=("exact", "bigfloat"), default="exact")
    nm.add_argument("--surface", required=True)
    nm.add_argument("--expr", required=True)
    nm.add_argument("--out")
    nm.set_defaults(fn=_cmd_normalize)

    ex = sub.add_parser("experiment", help="gauge-orbit uniqueness experiment")
    ex.add_argument("--surface", required=True)
    ex.add_argument("--N", type=int, default=3)
    ex.add_argument("--samples", type=int, default=25)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--precision", type=int, default=256)
    ex.add_argument("--tol", type=float, default=None,
                    help="override the intertwiner residual threshold")
    ex.add_argument("--out")
    ex.set_defaults(fn=_cmd_experiment)

    return parser


@cache
def _parser():
    """The one parser :func:`main` reads; parsing leaves a parser unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SkeinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
