"""Batch command-line front end.

Subcommands wire the engines to JSON artifact files and print a JSON
report to stdout, each one line with sorted keys (``python -m json.tool``
pretty-prints it). Exit codes: 0 success, 2 parse error (also an
--output that cannot be written), 3 precondition violation (also a net
or cover-center budget run out), 4 verification failure. With
--skip-verify a generating command still runs its verification but
reports failure as a warning instead of exiting 4.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import files
from .bounds import cap_share, exponent_report, solve_alpha
from .errors import PairwiseError, VerificationError

# is_cap_body and first_non_intersecting_pair are not called here; they stay
# attributes of this module because perfbench/tracer.py patches them here.
from .illumination import (
    CapBody,
    DirectionSet,
    illuminate_cap_body,
    is_cap_body,
    sweep_alpha,
    verifies_illumination,
)
from .lowerbound import (
    ANGLE_MIN,
    build_lower_bound_body,
    construct_separated_set,
    multiplicity_report,
    symmetrize,
)
from .piercing import (
    BallFamily,
    PiercingSet,
    first_non_intersecting_pair,
    pierce,
    verify_piercing,
)
from .sphere_cover import _SAMPLES, Cover, PackParams, greedy_cover, maximal_packing, verify_cover

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def _emit(report: dict) -> None:
    sys.stdout.write(files.dumps_document(report))


def _deliver(doc: dict, output: str | None, report: dict) -> None:
    """Write the artifact to ``output`` or inline it into the report."""
    if output:
        files.write_document(doc, output)
        report["output"] = output
    else:
        report["artifact"] = doc
    _emit(report)


def _certificate_dict(cert) -> dict:
    return {k: v for k, v in dataclasses.asdict(cert).items() if v is not None}


def _built(args, kind, make):
    """(result, verified, witness) of ``make()``. With --skip-verify, a
    verification failure that carries a ``kind`` result is reported as a
    warning and that result is returned unverified."""
    try:
        return make(), True, None
    except VerificationError as exc:
        if not args.skip_verify or not isinstance(exc.result, kind):
            raise
        print(f"warning: {exc}", file=sys.stderr)
        return exc.result, False, exc.witness


def cmd_pierce(args) -> int:
    dim, balls = files.parse_ball_family(files.load_document(args.input))
    family = BallFamily(dim, balls)
    result, verified, witness = _built(
        args, PiercingSet, lambda: pierce(family, args.seed)
    )
    acct = result.accounting
    accounting = {
        "large_count": acct.large_count,
        "scale_cover_counts": {str(k): c for k, c in acct.scale_cover_counts},
        "t": acct.t,
        "lambda": acct.lam,
    }
    report = {
        "report": {
            "dimension": dim,
            "balls": len(family),
            "points": len(result),
            **accounting,
            "seed": args.seed,
            "verified": verified,
            "witness": witness,
        }
    }
    doc = files.point_set_document(
        dim, result.points, result.provenance, meta={"seed": args.seed, **accounting}
    )
    _deliver(doc, args.output, report)
    return EXIT_OK


def cmd_illuminate(args) -> int:
    body = files.parse_spiky_body(files.load_document(args.input))
    try:
        target = CapBody(body.dimension, body.vertices)
    except PairwiseError:
        if not args.skip_cap_check:
            raise
        target = body
    alpha = args.alpha if args.alpha is not None else solve_alpha()
    if args.sweep > 0:
        # A failed sweep carries no direction set, so --skip-verify does
        # not apply to it.
        grid = np.linspace(0.1, math.pi / 2 - 0.1, args.sweep)
        alpha, result = sweep_alpha(target, grid, args.seed)
        verified, witness = True, None
    else:
        result, verified, witness = _built(
            args, DirectionSet, lambda: illuminate_cap_body(target, alpha, args.seed)
        )
    u1 = sum(1 for tag in result.provenance if tag.startswith("U1:"))
    u2 = len(result) - u1
    report = {
        "report": {
            "dimension": body.dimension,
            "vertices": len(body),
            "alpha": alpha,
            "u1_count": u1,
            "u2_count": u2,
            "directions": len(result),
            "seed": args.seed,
            "verified": verified,
            "witness": witness,
        }
    }
    doc = files.direction_set_document(result, meta={"alpha": alpha, "seed": args.seed})
    _deliver(doc, args.output, report)
    return EXIT_OK


def cmd_bounds(args) -> int:
    report = exponent_report().to_dict()
    if args.output:
        files.write_document(report, args.output)
        _emit({"report": report, "output": args.output})
    else:
        _emit({"report": report})
    return EXIT_OK


def cmd_cover(args) -> int:
    cover = greedy_cover(args.dimension, args.theta, args.seed)
    dirs = DirectionSet(args.dimension, cover.centers)
    meta = {
        "angular_radius": args.theta,
        "seed": args.seed,
        "certificate": _certificate_dict(cover.certificate),
    }
    report = {
        "report": {
            "dimension": args.dimension,
            "theta": args.theta,
            "size": len(cover),
            "certificate": meta["certificate"],
            "seed": args.seed,
        }
    }
    _deliver(files.direction_set_document(dirs, meta=meta), args.output, report)
    return EXIT_OK


def cmd_pack(args) -> int:
    params = PackParams(max_points=args.max_points)
    packing = maximal_packing(args.dimension, args.theta, args.seed, params)
    dirs = DirectionSet(args.dimension, packing.centers)
    meta = {
        "separation": args.theta,
        "seed": args.seed,
        "saturated": packing.saturated,
    }
    report = {
        "report": {
            "dimension": args.dimension,
            "theta": args.theta,
            "size": len(packing),
            "saturated": packing.saturated,
            "seed": args.seed,
        }
    }
    _deliver(files.direction_set_document(dirs, meta=meta), args.output, report)
    return EXIT_OK


def cmd_lowerbound(args) -> int:
    # The symmetric set has 2 * target points pairwise >= pi/3 apart, so
    # their open pi/6 caps are disjoint and each covers the share
    # cap_share(n, pi/6) = I_(1/4)((n-1)/2, 1/2) / 2 of the sphere.
    # A target past that area bound (less a rounding margin) is
    # unreachable, and the sampler would spend its whole draw budget
    # finding that out. Dimensions below 3 are left to
    # construct_separated_set to reject.
    if args.dimension >= 3:
        share = cap_share(args.dimension, ANGLE_MIN / 2)
        if 2 * args.target * share > 1.0 + 1e-9:
            raise ValueError(
                f"target {args.target} is unreachable in dimension {args.dimension}: "
                f"at most {0.5 / share:.1f} antipodal pairs fit pairwise pi/3 apart"
            )
    separated = construct_separated_set(
        args.dimension, args.target, args.seed, max_draws=args.max_draws
    )
    if args.max_draws is not None and not separated.reached_target:
        raise ValueError(
            f"--max-draws {args.max_draws}: all {args.max_draws} draws spent with "
            f"{len(separated)} of the target {args.target} separated points found"
        )
    symmetric = symmetrize(separated)
    body = build_lower_bound_body(symmetric)
    stats = multiplicity_report(symmetric, args.samples, args.seed)
    report = {
        "report": {
            "dimension": args.dimension,
            "target": args.target,
            "reached_target": separated.reached_target,
            "separated_size": len(separated),
            "symmetric_size": len(symmetric),
            "vertices": len(body),
            "multiplicity": stats.to_dict(),
            "seed": args.seed,
        }
    }
    doc = files.spiky_body_document(
        body, meta={"seed": args.seed, "target": args.target}
    )
    _deliver(doc, args.output, report)
    return EXIT_OK


def cmd_verify(args) -> int:
    chosen = [bool(args.family), bool(args.body), bool(args.cover)]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --family, --body, --cover")

    if args.family:
        if not args.points:
            raise ValueError("--family requires --points")
        dim, balls = files.parse_ball_family(files.load_document(args.family))
        pdim, points, _ = files.parse_point_set(files.load_document(args.points))
        if pdim != dim:
            raise ValueError(f"dimension mismatch: family {dim}, points {pdim}")
        family = BallFamily(dim, balls)
        ok, witness = verify_piercing(family, points)
        _emit({"report": {"passed": ok, "witness": witness}})
        return EXIT_OK if ok else EXIT_VERIFICATION

    if args.body:
        if not args.directions:
            raise ValueError("--body requires --directions")
        body = files.parse_spiky_body(files.load_document(args.body))
        dirs = files.parse_direction_set(files.load_document(args.directions))
        ok, witness = verifies_illumination(body, dirs)
        _emit({"report": {"passed": ok, "witness": witness}})
        return EXIT_OK if ok else EXIT_VERIFICATION

    doc = files.load_document(args.cover)
    dirs = files.parse_direction_set(doc)
    theta = args.theta if args.theta is not None else files.parse_angular_radius(doc)
    if theta is None:
        raise ValueError("cover verification needs --theta or meta.angular_radius")
    cover = Cover(dirs.dimension, theta, dirs.directions)
    resolution = args.resolution if args.method == "net" else args.samples
    cert = verify_cover(cover, args.method, resolution, seed=args.seed)
    _emit({"report": {"passed": cert.passed, "certificate": _certificate_dict(cert)}})
    return EXIT_OK if cert.passed else EXIT_VERIFICATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="gallai",
        description="Piercing sets for intersecting balls, illumination of "
        "spiky balls and cap bodies, sphere covers and packings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--seed", type=int, default=0, help="non-negative RNG seed (default 0)")
        if output:
            p.add_argument("--output", help="write the artifact to this path")

    p = sub.add_parser("pierce", help="construct a verified piercing set")
    p.add_argument("input", help="ball-family JSON file")
    p.add_argument("--skip-verify", action="store_true",
                   help="report verification failure as a warning, not exit 4")
    common(p)
    p.set_defaults(func=cmd_pierce)

    p = sub.add_parser("illuminate", help="construct a verified direction set")
    p.add_argument("input", help="spiky-body JSON file")
    p.add_argument("--alpha", type=float, default=None,
                   help="far/near split angle (default: exponent balance point)")
    p.add_argument("--sweep", type=int, default=0,
                   help="sweep this many alphas and keep the smallest output")
    p.add_argument("--skip-cap-check", action="store_true",
                   help="accept raw spiky balls; only verification decides")
    p.add_argument("--skip-verify", action="store_true",
                   help="report verification failure as a warning, not exit 4")
    common(p)
    p.set_defaults(func=cmd_illuminate)

    p = sub.add_parser("bounds", help="print the exponent report")
    p.add_argument("--output", help="also write the report to this path")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cover", help="construct a certified sphere cover")
    p.add_argument("--dimension", "-n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True, help="cap angular radius")
    common(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("pack", help="construct a separated packing")
    p.add_argument("--dimension", "-n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True, help="minimum separation")
    p.add_argument("--max-points", type=int, default=0,
                   help="stop after this many points (0 = saturate)")
    common(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("lowerbound", help="symmetric separated set and its cap body")
    p.add_argument("--dimension", "-n", type=int, required=True)
    p.add_argument("--target", type=int, required=True,
                   help="separated points to aim for before symmetrizing")
    p.add_argument("--samples", type=int, default=10_000,
                   help="directions sampled for the multiplicity report; the "
                        "sampled maximum can only under-count the true one, so "
                        "the reported witness (size / max) can only be too high")
    p.add_argument("--max-draws", type=int, default=None,
                   help="draw budget of the separated-set sampler; stopping "
                        "short of --target within it is a precondition error "
                        "(exit 3). Without it the budget is max(20000, 400 * "
                        "target) and a short set is reported with "
                        "reached_target false")
    common(p)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("verify", help="verify an artifact")
    p.add_argument("--family", help="ball-family file (with --points)")
    p.add_argument("--points", help="point-set file to check against --family")
    p.add_argument("--body", help="spiky-body file (with --directions)")
    p.add_argument("--directions", help="direction-set file to check against --body")
    p.add_argument("--cover", help="direction-set file to certify as a cover")
    p.add_argument("--method", choices=["hull", "net", "sampled"], default="sampled",
                   help="cover certificate: hull (exact, from the convex hull of "
                   "the centers, which must hold the origin strictly inside, or "
                   "on the circle from the gaps between the centers), net "
                   "(exact, over a net; low dimensions) or sampled (--samples "
                   "uniform points; default)")
    p.add_argument("--samples", type=int, default=None,
                   help=f"uniform points for --method sampled (default {_SAMPLES:,})")
    p.add_argument("--resolution", type=float, default=None,
                   help="net resolution for --method net")
    p.add_argument("--theta", type=float, default=None,
                   help="cover cap radius if the file has no meta.angular_radius")
    common(p, output=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except files.FileFormatError as exc:
        _emit({"error": "parse", "detail": str(exc)})
        return EXIT_PARSE
    except VerificationError as exc:
        _emit({"error": "verification", "detail": str(exc), "witness": exc.witness})
        return EXIT_VERIFICATION
    except ValueError as exc:
        report = {"error": "precondition", "detail": str(exc)}
        if isinstance(exc, PairwiseError):
            report["pair"] = list(exc.pair)
        _emit(report)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
