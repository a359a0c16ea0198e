"""Command-line interface: verify a manifold spec, emit preset specs,
and list the known checks.

Exit status: 0 when every requested check passes, 1 when any check
fails (or stays ambiguous), 2 on spec, sampling, or classification
errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .conditions import BUNDLES, CONDITIONS
from .errors import ParacrError
from .presets import PRESET_NAMES, build_example
from .runner import run
from .spec_io import emit_spec, load_spec, spec_text


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="paracr",
        description="Verify almost paracontact metric structures "
                    "against their defining and derived identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run checks from a manifold spec file")
    verify.add_argument("--spec", required=True, metavar="PATH",
                        help="manifold spec JSON file")
    verify.add_argument("--checks", default=None, metavar="LIST",
                        help="comma-separated condition ids or bundles, "
                             'or "all" (default: the spec\'s checks block)')
    verify.add_argument("--points", type=int, default=None, metavar="N",
                        help="sample points (default: spec numeric block, 64)")
    verify.add_argument("--seed", type=int, default=None, metavar="S",
                        help="RNG seed (default: spec numeric block, 0)")
    verify.add_argument("--tol", type=float, default=None, metavar="T",
                        help="pass tolerance on scaled residuals "
                             "(default: spec numeric block, 1e-6)")
    verify.add_argument("--format", choices=("json", "text"),
                        default="text", help="report format (default: text)")

    example = sub.add_parser(
        "example", help="emit the spec of a built-in example family")
    example.add_argument("--name", required=True, choices=PRESET_NAMES,
                         help="example family")
    example.add_argument("--n", type=int, default=None,
                         help="family size parameter (dimension 2n+1), "
                              "where the family takes one")
    example.add_argument("--emit-spec", default=None, metavar="PATH",
                         help="write the spec to PATH instead of stdout")

    sub.add_parser("list-checks",
                   help="list every condition id with scope and summary")
    return parser


def _parse_checks(option):
    if option is None:
        return None
    return [item.strip() for item in option.split(",") if item.strip()]


def _cmd_verify(args):
    spec = load_spec(args.spec)
    report = run(spec,
                 checks=_parse_checks(args.checks),
                 points=args.points,
                 seed=args.seed,
                 tolerance=args.tol)
    if args.format == "json":
        sys.stdout.write(report.json())
    else:
        sys.stdout.write(report.text())
    return 0 if report.all_passed else 1


def _cmd_example(args):
    params = {}
    if args.n is not None:
        params["n"] = args.n
    descriptor = build_example(args.name, **params)
    if args.emit_spec is not None:
        emit_spec(descriptor.spec_dict, args.emit_spec)
    else:
        sys.stdout.write(spec_text(descriptor.spec_dict))
    return 0


def _cmd_list_checks(_args):
    width = max(len(cid) for cid in CONDITIONS)
    for cid, cond in CONDITIONS.items():
        print(f"{cid:<{width}}  {cond.scope:<13} {cond.summary}")
    for name, members in BUNDLES.items():
        print(f"bundle {name} = {', '.join(members)}")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {
        "verify": _cmd_verify,
        "example": _cmd_example,
        "list-checks": _cmd_list_checks,
    }[args.command]
    try:
        return handler(args)
    except (ParacrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
