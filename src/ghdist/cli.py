"""Command-line front end.

Flags only, no environment variables.  Floats print with 12 significant
digits so outputs diff cleanly.  Exit codes: 0 success, 1 input error,
2 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import BoundOptions, best_bounds, find_diametral_involution
from .correspondences import Correspondence, distortion, pl_distortion
from .errors import (
    CertificateFailed,
    InconsistentBounds,
    InputError,
    StaleCertificate,
    ToolkitError,
    VerificationFailed,
)
from .exact import SearchOptions, gh_exact
from .models import (
    circle_space,
    segment_space,
    shortest_path_metric,
    whisker_graph,
)
from .nonlinearity import nonlinearity_degree_exact, nonlinearity_degree_upper
from .segment_circle import (
    DEFAULT_GRIDS,
    GridParams,
    certificate,
    gh_formula,
    lower_bound,
    sweep,
)
from .serialization import (
    bound_record_to_dict,
    certificate_to_json,
    correspondence_pairs_from_json,
    graph_from_json,
    load_space,
    pl_from_json,
    round12,
    space_to_csv,
    space_to_json,
    sweep_to_csv,
    witness_from_json,
    witness_to_json,
)

_VERIFICATION_ERRORS = (
    VerificationFailed,
    CertificateFailed,
    InconsistentBounds,
    StaleCertificate,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; this tool reserves 2 for
    verification failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(", ", ": ")))


def _grids(args) -> GridParams:
    return GridParams(n_circle=args.n_circle, m_grid=args.m_grid,
                      pl_step=args.pl_step)


# -- subcommand handlers ---------------------------------------------------

def _cmd_make_space(args) -> int:
    if args.kind == "segment":
        if args.lam is None:
            raise InputError("--lambda is required for kind=segment")
        space = segment_space(args.lam, args.m_grid)
    elif args.kind == "circle":
        space = circle_space(args.n_circle)
    elif args.kind == "whisker":
        if args.lam is None:
            raise InputError("--lambda is required for kind=whisker")
        space = whisker_graph(args.lam, args.n_circle, args.n_whisker).space
    else:
        if args.graph is None:
            raise InputError("--graph is required for kind=graph")
        space = shortest_path_metric(graph_from_json(_read_text(args.graph)))
    as_csv = args.out is not None and str(args.out).endswith(".csv")
    text = space_to_csv(space) if as_csv else space_to_json(space)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_distortion(args) -> int:
    if args.pl is not None:
        pl = pl_from_json(_read_text(args.pl))
        _emit({"distortion": round12(pl_distortion(pl))})
        return 0
    if args.x is None or args.y is None or args.pairs is None:
        raise InputError("distortion needs --x, --y and --pairs, or --pl")
    x = load_space(args.x)
    y = load_space(args.y)
    pairs = correspondence_pairs_from_json(_read_text(args.pairs))
    corr = Correspondence(x, y, pairs)
    _emit({"distortion": round12(distortion(corr))})
    return 0


def _cmd_bounds(args) -> int:
    x = load_space(args.x)
    y = load_space(args.y)
    witness = None
    if args.c_witness is not None:
        witness = witness_from_json(_read_text(args.c_witness))
    involution = None
    if args.involution == "auto":
        involution = find_diametral_involution(x)
        if involution is None:
            involution = find_diametral_involution(y)
    elif args.involution is not None:
        try:
            involution = json.loads(_read_text(args.involution))
        except json.JSONDecodeError as exc:
            raise InputError(f"bad involution file: {exc}") from None
    if involution is not None and witness is None:
        # the route needs a certified Lipschitz witness on the flat side;
        # compute one heuristically (its objective certifies itself)
        other = y if len(involution) == x.n else x
        _, witness = nonlinearity_degree_upper(other, restarts=16, seed=0)
    options = BoundOptions(involution=involution, c_witness=witness)
    for record in best_bounds(x, y, options):
        _emit(bound_record_to_dict(record))
    return 0


def _cmd_exact(args) -> int:
    x = load_space(args.x)
    y = load_space(args.y)
    options = SearchOptions(
        max_points=args.max_points,
        node_budget=args.budget,
        initial_upper=args.upper,
    )
    result = gh_exact(x, y, options)
    _emit({
        "value": round12(result.value),
        "pairs": [[i, j] for i, j in result.correspondence.sorted_pairs()],
        "status": result.status,
        "nodes": result.nodes,
    })
    return 0


def _cmd_cx(args) -> int:
    space = load_space(args.x)
    if args.exact:
        value, witness = nonlinearity_degree_exact(space,
                                                   max_points=args.max_points)
        status = "exact"
    else:
        value, witness = nonlinearity_degree_upper(space,
                                                   restarts=args.restarts,
                                                   seed=args.seed)
        status = "upper"
    if args.out:
        Path(args.out).write_text(witness_to_json(witness))
    _emit({"value": round12(value), "status": status})
    return 0


def _cmd_certify(args) -> int:
    grids = _grids(args)
    cert = certificate(args.lam, grids)
    low = lower_bound(args.lam)
    formula = gh_formula(args.lam)
    slack = grids.slack(args.lam)
    if not (low.value - slack <= formula <= cert.half + slack):
        raise CertificateFailed(
            f"lam={args.lam}: bounds [{low.value}, {cert.half}] do not "
            f"bracket {formula} within {slack}"
        )
    if args.out:
        Path(args.out).write_text(certificate_to_json(cert))
    _emit({
        "lambda": round12(args.lam),
        "regime": cert.regime,
        "kind": cert.kind,
        "path": cert.path,
        "half": round12(cert.half),
        "formula": round12(formula),
        "lower": round12(low.value),
        "lower-source": low.source,
        "slack": round12(slack),
    })
    return 0


def _cmd_sweep(args) -> int:
    reports = sweep(args.start, args.stop, args.steps, _grids(args))
    text = sweep_to_csv(reports)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_all(args) -> int:
    from .acceptance import render_table, verify_all

    results = verify_all()
    print(render_table(results))
    return 0 if all(r.passed for r in results) else 2


# -- parser wiring ---------------------------------------------------------

def _add_grid_flags(p) -> None:
    p.add_argument("--n-circle", type=int, default=DEFAULT_GRIDS.n_circle,
                   help="circle grid size, even (default %(default)s)")
    p.add_argument("--m-grid", type=int, default=DEFAULT_GRIDS.m_grid,
                   help="segment grid size (default %(default)s)")
    p.add_argument("--pl-step", type=float, default=DEFAULT_GRIDS.pl_step,
                   help="step whose 4-fold enters the slack budget "
                        "(default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghdist",
        description="Gromov-Hausdorff toolkit for finite metric spaces, "
                    "segment grids and circle grids.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("make-space", help="construct a space file")
    p.add_argument("--kind", required=True,
                   choices=("segment", "circle", "whisker", "graph"))
    p.add_argument("--lambda", dest="lam", type=float,
                   help="segment length in radians (segment, whisker)")
    p.add_argument("--m-grid", type=int, default=DEFAULT_GRIDS.m_grid,
                   help="segment grid size (default %(default)s)")
    p.add_argument("--n-circle", type=int, default=DEFAULT_GRIDS.n_circle,
                   help="circle grid size, even (default %(default)s)")
    p.add_argument("--n-whisker", type=int, default=None,
                   help="points per whisker (default: match circle spacing)")
    p.add_argument("--graph", help="graph JSON file for kind=graph")
    p.add_argument("--out", help="write here (.json or .csv); default stdout")
    p.set_defaults(handler=_cmd_make_space)

    p = sub.add_parser("distortion",
                       help="measure a correspondence or piecewise-linear relation")
    p.add_argument("--x", help="left space file")
    p.add_argument("--y", help="right space file")
    p.add_argument("--pairs", help="correspondence JSON file")
    p.add_argument("--pl", help="piecewise-linear relation JSON file")
    p.set_defaults(handler=_cmd_distortion)

    p = sub.add_parser("bounds", help="two-sided distance bounds as JSON lines")
    p.add_argument("--x", required=True, help="left space file")
    p.add_argument("--y", required=True, help="right space file")
    p.add_argument("--involution", default=None,
                   help="'auto' to search for a diametral involution, or a "
                        "JSON file holding a permutation")
    p.add_argument("--c-witness", default=None,
                   help="witness JSON certifying the nonlinearity degree of "
                        "the non-involution side")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("exact", help="exact distance by branch and bound")
    p.add_argument("--x", required=True, help="left space file")
    p.add_argument("--y", required=True, help="right space file")
    p.add_argument("--budget", type=int, default=5_000_000,
                   help="search node budget (default %(default)s)")
    p.add_argument("--max-points", type=int, default=7,
                   help="refuse spaces larger than this (default %(default)s)")
    p.add_argument("--upper", type=float, default=None,
                   help="known upper bound to seed pruning")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("cx", help="nonlinearity degree of one space")
    p.add_argument("--x", required=True, help="space file")
    p.add_argument("--exact", action="store_true",
                   help="exact enumeration instead of the heuristic")
    p.add_argument("--restarts", type=int, default=32,
                   help="heuristic restarts (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="heuristic seed (default %(default)s)")
    p.add_argument("--max-points", type=int, default=8,
                   help="size cap for --exact (default %(default)s)")
    p.add_argument("--out", help="write the witness JSON here")
    p.set_defaults(handler=_cmd_cx)

    p = sub.add_parser("certify",
                       help="upper-bound certificate for one segment length")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="segment length in radians")
    _add_grid_flags(p)
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("sweep", help="formula-vs-bounds table over a range")
    p.add_argument("--from", dest="start", type=float, required=True,
                   help="first segment length")
    p.add_argument("--to", dest="stop", type=float, required=True,
                   help="last segment length")
    p.add_argument("--steps", type=int, required=True,
                   help="number of sampled lengths")
    _add_grid_flags(p)
    p.add_argument("--out", help="write CSV here; default stdout")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _VERIFICATION_ERRORS as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
