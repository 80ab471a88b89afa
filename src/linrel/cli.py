"""Command-line front end: analyze relations, sweep Weyl functions,
build boundary-parametrized extensions, and verify one input end to end.

All commands read relation spec files (see specio), honor the shared
tolerance and seed flags, and echo the effective configuration in every
report so results are reproducible from the artifact alone.

`main` owns tolerances, output and exit codes: it builds the
ToleranceConfig once, rejects an unwritable --out before any work, and
maps exceptions to exit codes; commands write through _emit_report (JSON),
_emit_csv or _emit.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 mathematical precondition violated, 4 internal error (any other
exception, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .boundary import (
    BoundaryTriplet,
    alternative_experiment,
    boundary_map_rank,
    closed_form_weyl,
    extension_from_boundary,
    green_identity_defect,
    triplet_basic,
    triplet_main,
    triplet_tilde,
    weyl,
)
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import (
    DimensionMismatch,
    InputFormatError,
    PreconditionViolated,
    SpectrumError,
)
from .extension import (
    LiftBundle,
    _decomposition_results,
    extremal_family,
    friedrichs_generic,
    is_extremal,
    is_singular_relation,
    krein_generic,
    krein_order_margin,
    lift,
    nonneg_extension,
    s0_adjoint_decomposition_check,
)
from .oracle import (
    adjoint_definitional,
    extension_sweep,
    random_selfadjoint_relation,
)
from .relation import (
    LinearRelation,
    adjoint,
    classify,
    lower_bound,
    numerical_radius,
    parts,
    relation_equal,
)
from .specio import (
    LoadedSpec,
    _finite,
    dump_report,
    encode_float,
    encode_relation,
    encode_subspace,
    load_relation_spec,
)
from .subspace import RelateResult, Subspace, Verdict, complement, relate

__all__ = ["main"]

_TRIPLET_BUILDERS = {
    "main": triplet_main,
    "basic": triplet_basic,
    "tilde": triplet_tilde,
}


# A Green-identity defect is a unit-scale residual of orthonormal bases, so
# the triplet checks bound it by rank_tol, where the rank rule calls such a
# residual zero; verify's Weyl bound is one digit looser, for the solve that
# forms M(lambda).  Both follow --tol-rank in either direction.
_WEYL_SLACK = 10.0


def _config_from_args(args: argparse.Namespace) -> ToleranceConfig:
    try:
        return ToleranceConfig(
            rank_tol=args.tol_rank,
            angle_tol=args.tol_angle,
            psd_floor=args.psd_floor,
        )
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def _input_echo(spec: LoadedSpec) -> dict:
    return {
        "path": spec.path,
        "label": spec.label,
        "mode": spec.mode,
        "n1": spec.relation.n1,
        "n2": spec.relation.n2,
        "dim": spec.relation.dim,
        "orthonormalized": spec.was_orthonormalized,
        "spec": spec.echo,
    }


def _check_out_path(out_path: str) -> None:
    """Reject an --out path that is a directory, or whose directory is
    missing or not writable.

    Nothing is opened, so a failing command creates no file.
    """
    if os.path.isdir(out_path):
        raise InputFormatError(f"{out_path}: {os.strerror(errno.EISDIR)}")
    parent = os.path.dirname(out_path) or "."
    if not os.access(parent, os.W_OK | os.X_OK):
        reason = errno.EACCES if os.path.exists(parent) else errno.ENOENT
        raise InputFormatError(f"{out_path}: {os.strerror(reason)}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"{out_path}: {exc.strerror or exc}") from exc


def _emit_report(args: argparse.Namespace, cfg: ToleranceConfig,
                 spec: LoadedSpec, body: dict) -> None:
    """Write a JSON report: the tool/config/input envelope, then body."""
    report = {
        "tool": {"name": "linrel", "version": __version__},
        "config": {
            "rank_tol": cfg.rank_tol,
            "angle_tol": cfg.angle_tol,
            "psd_floor": cfg.psd_floor,
            "seed": args.seed,
        },
        "input": _input_echo(spec),
        **body,
    }
    _emit(dump_report(report), args.out)


def _emit_csv(header: list[str], rows: list[list],
              out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out_path)


def _json_list(text: str, flag: str) -> list:
    """Parse a list flag: a non-empty JSON list; items are the caller's."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{flag}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, list) or not raw:
        raise InputFormatError(f"{flag}: expected a non-empty JSON list")
    return raw


def _symmetry_echo(rel: LinearRelation, cfg: ToleranceConfig) -> dict:
    """classify's verdicts, the lower bound and, if square, the radius."""
    rep = classify(rel, cfg)
    radius = numerical_radius(rel, cfg) if rel.n1 == rel.n2 else None
    return {
        "is_symmetric": rep.is_symmetric,
        "is_selfadjoint": rep.is_selfadjoint,
        "is_nonnegative": rep.is_nonnegative,
        "dom_perp_ran": rep.dom_perp_ran,
        "lower_bound": encode_float(lower_bound(rel, cfg)),
        "numerical_range_radius": encode_float(radius),
    }


def cmd_analyze(args: argparse.Namespace, cfg: ToleranceConfig) -> int:
    spec = load_relation_spec(args.spec, cfg)
    rel = spec.relation
    p = parts(rel, cfg)
    _emit_report(args, cfg, spec, {
        "parts": {
            "dom": encode_subspace(p.dom),
            "ran": encode_subspace(p.ran),
            "ker": encode_subspace(p.ker),
            "mul": encode_subspace(p.mul),
        },
        "symmetry": _symmetry_echo(rel, cfg),
        "adjoint": encode_relation(adjoint(rel, cfg)),
    })
    return 0


def _equal(*results: RelateResult) -> bool:
    return all(r.verdict is Verdict.EQUAL for r in results)


def _triplet_results(
    bundle: LiftBundle,
) -> Iterator[
    tuple[str, BoundaryTriplet, float, bool, RelateResult, RelateResult]
]:
    """Self-checks of the three boundary triplets of the lift, in order.

    Yields (kind, trip, green_defect, surjective, k0, k1), where k0 and k1
    relate ker Gamma0 and ker Gamma1 to their closed forms.
    """
    kernel_targets = {
        "main": (bundle.H, bundle.K),
        "basic": (bundle.S_F, bundle.S_K),
        "tilde": (bundle.S_F, bundle.K),
    }
    for kind, builder in _TRIPLET_BUILDERS.items():
        trip = builder(bundle)
        want0, want1 = kernel_targets[kind]
        yield (
            kind,
            trip,
            green_identity_defect(trip),
            boundary_map_rank(trip) == 2 * trip.g,
            relation_equal(trip.ker_gamma0, want0, bundle.cfg),
            relation_equal(trip.ker_gamma1, want1, bundle.cfg),
        )


def _extreme_closed_forms(
    bundle: LiftBundle,
) -> tuple[RelateResult, RelateResult]:
    """Generic Friedrichs and Krein routes against the closed S_F, S_K."""
    cfg = bundle.cfg
    return (
        relation_equal(friedrichs_generic(bundle.S, cfg), bundle.S_F, cfg),
        relation_equal(krein_generic(bundle.S, cfg), bundle.S_K, cfg),
    )


def _worst_krein_margin(bundle: LiftBundle,
                        rng: np.random.Generator) -> float:
    """Smallest Krein-order margin over three nonnegative parameters on G0.

    The parameters are drawn from the caller's rng; inf when G0 = {0}.
    """
    worst = math.inf
    g0 = bundle.G0.dim
    for _ in range(3 if g0 else 0):
        theta = random_selfadjoint_relation(g0, rng=rng, nonneg=True)
        a_theta = nonneg_extension(bundle, theta)
        worst = min(worst, krein_order_margin(a_theta, bundle))
    return worst


def _check(name: str, passed: bool, residual: float | None) -> dict:
    return {"name": name, "passed": bool(passed), "residual": residual}


def cmd_extensions(args: argparse.Namespace, cfg: ToleranceConfig) -> int:
    spec = load_relation_spec(args.spec, cfg)
    rel = spec.relation
    bundle = lift(rel, cfg)

    checks = []
    for kind, _, green, surjective, k0, k1 in _triplet_results(bundle):
        checks += [
            _check(
                f"triplet_{kind}_green_identity", green < cfg.rank_tol, green
            ),
            _check(
                f"triplet_{kind}_surjective_and_kernels",
                surjective and _equal(k0, k1),
                max(k0.angle, k1.angle),
            ),
        ]
    r_hk, r_fk, _ = _decomposition_results(bundle)
    r_f, r_k = _extreme_closed_forms(bundle)
    for name, res in (
        ("adjoint_is_componentwise_sum_H_K", r_hk),
        ("s0_adjoint_is_sum_of_extreme_extensions", r_fk),
        ("friedrichs_closed_form", r_f),
        ("krein_closed_form", r_k),
    ):
        checks.append(_check(name, _equal(res), res.angle))
    worst = _worst_krein_margin(bundle, np.random.default_rng(args.seed))
    checks.append(
        _check(
            "krein_order_sampled_parameters",
            worst >= cfg.psd_floor,
            max(0.0, -worst) if math.isfinite(worst) else 0.0,
        )
    )

    g0 = bundle.G0.dim
    family = []
    for name, l_space in (
        ("zero", Subspace.zero(g0)),
        ("full", Subspace.full(g0)),
    ):
        a_l = extremal_family(bundle, l_space)
        family.append(
            {
                "parameter_subspace": name,
                "extension": encode_relation(a_l),
                "extremal": is_extremal(a_l, bundle),
            }
        )

    _emit_report(args, cfg, spec, {
        "parts_summary": {
            "dom_dim": bundle.dom_R.dim,
            "ran_dim": bundle.ran_R.dim,
            "mul_adjoint_dim": bundle.mul_R_star.dim,
            "ker_adjoint_dim": bundle.ker_R_star.dim,
        },
        "boundary_spaces": {
            "G": encode_subspace(bundle.G),
            "G0": encode_subspace(bundle.G0),
            "G_tilde": encode_subspace(bundle.G_tilde),
        },
        "extensions": {
            "S": encode_relation(bundle.S),
            "S_star": encode_relation(bundle.S_star),
            "H": encode_relation(bundle.H),
            "K": encode_relation(bundle.K),
            "S_F": encode_relation(bundle.S_F),
            "S_K": encode_relation(bundle.S_K),
            "S0": encode_relation(bundle.S0),
            "S0_star": encode_relation(bundle.S0_star),
            "S_tilde": encode_relation(bundle.S_tilde),
            "S_tilde_star": encode_relation(bundle.S_tilde_star),
        },
        "flags": {
            "relation_is_singular": is_singular_relation(rel, cfg),
            "friedrichs_equals_krein": _equal(
                relation_equal(bundle.S_F, bundle.S_K, cfg)
            ),
        },
        "extremal_family": family,
        "checks": checks,
    })
    return 0 if all(c["passed"] for c in checks) else 1


def _parse_lambda_grid(text: str) -> list[complex]:
    grid = []
    for i, item in enumerate(_json_list(text, "--grid")):
        where = f"--grid[{i}]"
        pair = isinstance(item, list) and len(item) == 2
        re_, im = item if pair else (item, 0)
        grid.append(complex(_finite(re_, where), _finite(im, where)))
    return grid


def cmd_weyl(args: argparse.Namespace, cfg: ToleranceConfig) -> int:
    spec = load_relation_spec(args.spec, cfg)
    grid = _parse_lambda_grid(args.grid)
    bundle = lift(spec.relation, cfg)
    trip = _TRIPLET_BUILDERS[args.triplet](bundle)
    g = trip.g

    header = ["re_lambda", "im_lambda"]
    for i in range(g):
        for j in range(g):
            header += [f"m{i}{j}_re", f"m{i}{j}_im"]
    header.append("status")
    rows = []
    for lam in grid:
        row = [repr(lam.real), repr(lam.imag)]
        try:
            m_lam = weyl(trip, lam)
        except SpectrumError:
            row += [""] * (2 * g * g) + ["singular"]
        else:
            for i in range(g):
                for j in range(g):
                    row += [
                        repr(float(m_lam[i, j].real)),
                        repr(float(m_lam[i, j].imag)),
                    ]
            row.append("ok")
        rows.append(row)
    _emit_csv(header, rows, args.out)
    return 0


def cmd_extend(args: argparse.Namespace, cfg: ToleranceConfig) -> int:
    spec = load_relation_spec(args.spec, cfg)
    theta_spec = load_relation_spec(args.theta, cfg)
    theta = theta_spec.relation
    bundle = lift(spec.relation, cfg)
    trip = _TRIPLET_BUILDERS[args.triplet](bundle)
    a_theta = extension_from_boundary(trip, theta)
    symmetry = _symmetry_echo(a_theta, cfg)
    extremal = margin = None
    if symmetry["is_nonnegative"]:
        extremal = is_extremal(a_theta, bundle)
        margin = krein_order_margin(a_theta, bundle)
    _emit_report(args, cfg, spec, {
        "theta": _input_echo(theta_spec),
        "triplet": {
            "kind": trip.kind,
            "parameter_dim": trip.g,
            "ker_gamma0_is_friedrichs": trip.ker_gamma0_is_friedrichs,
        },
        "extension": encode_relation(a_theta),
        "symmetry": symmetry,
        "extremal": extremal,
        "krein_order": {
            "margin": encode_float(margin),
            "holds": None if margin is None else margin >= cfg.psd_floor,
        },
    })
    return 0


def cmd_semibound_demo(args: argparse.Namespace,
                       cfg: ToleranceConfig) -> int:
    c_list = [_finite(c, f"--c-list[{i}]")
              for i, c in enumerate(_json_list(args.c_list, "--c-list"))]
    delta = _finite(args.delta, "--delta")

    results = []
    gap_failed = []
    rows = []
    for c in c_list:
        exp = alternative_experiment(c, delta, cfg)
        results.append(exp)
        gap = abs(float(exp.computed_bound - exp.closed_form_bound))
        if gap > cfg.angle_tol * max(1.0, abs(exp.closed_form_bound)):
            gap_failed.append(exp.c)
        rows.append(
            [
                repr(float(exp.c)),
                repr(float(exp.computed_bound)),
                repr(float(exp.closed_form_bound)),
                repr(gap),
                repr(float(exp.sufficient_bound)),
                exp.sufficient_bound_holds,
                exp.criterion_agrees,
            ]
        )
    header = ["c", "lower_bound", "closed_form_bound", "abs_gap",
              "sufficient_bound", "sufficient_bound_holds", "criterion_agrees"]
    _emit_csv(header, rows, args.out)

    bounded = sum(r.sufficient_bound_holds for r in results)
    agreeing = sum(r.criterion_agrees for r in results)
    verdict = (
        "bounded-below branch holds for every family member"
        if bounded == len(results)
        else "bounded-below branch FAILED for some family member"
    )
    gap_note = (
        "; closed-form gap FAILED (abs_gap > angle_tol * "
        f"max(1, |closed_form_bound|)) for c in {gap_failed}"
    ) if gap_failed else ""
    print(
        f"verdict: {verdict} ({bounded}/{len(results)}); criterion "
        f"agreement {agreeing}/{len(results)}{gap_note}"
    )
    return 0 if bounded == agreeing == len(results) and not gap_failed else 1


def _verify_checks(spec: LoadedSpec, cfg: ToleranceConfig,
                   seed: int) -> list[dict]:
    rel = spec.relation
    adj = adjoint(rel, cfg)
    r_o = relation_equal(adj, adjoint_definitional(rel, cfg), cfg)
    r_i = relation_equal(adjoint(adj, cfg), rel, cfg)
    p = parts(rel, cfg)
    p_adj = parts(adj, cfg)
    a_mul = relate(p_adj.mul, complement(p.dom, cfg), cfg)
    a_ker = relate(p_adj.ker, complement(p.ran, cfg), cfg)
    bundle = lift(rel, cfg)
    r_f, r_k = _extreme_closed_forms(bundle)
    checks = [
        _check("input_graph_orthonormal", not spec.was_orthonormalized, None),
        _check("adjoint_matches_oracle", _equal(r_o), r_o.angle),
        _check("adjoint_involution", _equal(r_i), r_i.angle),
        _check("adjoint_parts_duality", _equal(a_mul, a_ker),
               max(a_mul.angle, a_ker.angle)),
        _check("lift_decompositions", s0_adjoint_decomposition_check(bundle),
               None),
        _check("extreme_extensions_closed_forms", _equal(r_f, r_k),
               max(r_f.angle, r_k.angle)),
    ]

    for kind, trip, green, surjective, k0, k1 in _triplet_results(bundle):
        ok = green < cfg.rank_tol and surjective and _equal(k0, k1)
        checks.append(
            _check(f"triplet_{kind}", ok, max(green, k0.angle, k1.angle))
        )
        worst = 0.0
        for lam in (-1.0, 1j):
            diff = weyl(trip, lam) - closed_form_weyl(bundle, kind, lam)
            if diff.size:
                worst = max(worst, float(np.max(np.abs(diff))))
        weyl_ok = worst < _WEYL_SLACK * cfg.rank_tol
        checks.append(_check(f"weyl_{kind}_closed_form", weyl_ok, worst))

    # the Krein-order samples continue the stream after the sweep's draws
    rng = np.random.default_rng(seed)
    g = bundle.G.dim
    thetas = [random_selfadjoint_relation(g, rng=rng) for _ in range(5)]
    sweep = extension_sweep(bundle, thetas)
    worst_margin = _worst_krein_margin(bundle, rng)
    return checks + [
        _check("extension_sweep", sweep.all_consistent and sweep.injective,
               None),
        _check("krein_order_sampled", worst_margin >= cfg.psd_floor,
               None if math.isinf(worst_margin) else max(0.0, -worst_margin)),
    ]


def cmd_verify(args: argparse.Namespace, cfg: ToleranceConfig) -> int:
    spec = load_relation_spec(args.spec, cfg)
    checks = _verify_checks(spec, cfg, args.seed)
    lines = []
    for check in checks:
        status = "ok" if check["passed"] else "FAIL"
        residual = check["residual"]
        tail = "" if residual is None else f" (residual={residual:.3e})"
        lines.append(f"{status:4s} {check['name']}{tail}")
    passed_count = sum(check["passed"] for check in checks)
    verdict = "PASS" if passed_count == len(checks) else "FAIL"
    lines.append(f"verify: {verdict} ({passed_count}/{len(checks)})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict == "PASS" else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol-rank",
        type=float,
        default=DEFAULT_TOLERANCES.rank_tol,
        help="relative rank threshold for factorizations (default %(default)g)",
    )
    common.add_argument(
        "--tol-angle",
        type=float,
        default=DEFAULT_TOLERANCES.angle_tol,
        help="principal-angle tolerance for subspace verdicts "
        "(default %(default)g)",
    )
    common.add_argument(
        "--psd-floor",
        type=float,
        default=DEFAULT_TOLERANCES.psd_floor,
        help="eigenvalue floor accepted as nonnegative (default %(default)g)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for all sampled checks (default %(default)d)",
    )
    common.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("spec", help="relation spec file (JSON)")
    triplet = argparse.ArgumentParser(add_help=False)
    triplet.add_argument(
        "--triplet",
        choices=tuple(_TRIPLET_BUILDERS),
        default="main",
        help="which boundary triplet to use (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="linrel",
        description="Numerical toolkit for closed linear relations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=help_text)
        p.set_defaults(func=func)
        return p

    command("analyze", cmd_analyze,
            "parts, symmetry report, and adjoint of one relation", spec)
    command("extensions", cmd_extensions,
            "lift a relation and report its distinguished extensions", spec)
    command(
        "weyl", cmd_weyl,
        "evaluate a Weyl function on a lambda grid, as CSV", spec, triplet,
    ).add_argument(
        "--grid",
        required=True,
        help="JSON list of lambda values; entries are numbers or "
        "[re, im] pairs",
    )
    command(
        "extend", cmd_extend,
        "build the extension attached to a boundary parameter", spec, triplet,
    ).add_argument(
        "--theta",
        required=True,
        help="boundary parameter spec file (JSON relation in the "
        "parameter space)",
    )
    p = command("semibound-demo", cmd_semibound_demo,
                "lower bounds of the scalar extension family, as CSV")
    p.add_argument(
        "--delta",
        type=float,
        default=1.0,
        help="boundary parameter is -delta times the identity "
        "(default %(default)g)",
    )
    p.add_argument(
        "--c-list",
        default="[0.0, 1.0, 2.0, 10.0]",
        help="JSON list of slopes c (default %(default)s)",
    )
    command("verify", cmd_verify,
            "run the oracle-backed property battery on one relation", spec)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.out is not None:
            _check_out_path(args.out)
        return args.func(args, cfg)
    except (InputFormatError, DimensionMismatch) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionViolated, SpectrumError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
