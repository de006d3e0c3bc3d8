"""Single command-line entry point with subcommand groups.

Exit codes: 0 when every check passed, 1 when a check failed, 2 on
configuration or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ParseError, SemicatError
from .harness import (
    ExperimentConfig,
    emit_report,
    report_from_json,
    run_autmorph_flow,
    run_experiment,
    run_lie_command,
)


def _common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=200_000)
    parser.add_argument("--cap", type=int, default=2)
    parser.add_argument("--degree-cap", type=int, default=3, dest="degree_cap")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        dest="fmt")
    parser.add_argument("--out", default=None)
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in JSON output")


def build_parser():
    parser = argparse.ArgumentParser(prog="semicat")
    groups = parser.add_subparsers(dest="group", required=True)

    semiring = groups.add_parser("semiring").add_subparsers(
        dest="action", required=True)
    for action in ("validate", "autgroups"):
        sub = semiring.add_parser(action)
        sub.add_argument("--semiring", required=True)
        _common(sub)

    ibn = groups.add_parser("ibn").add_subparsers(dest="action", required=True)
    for action in ("classify", "agree"):
        sub = ibn.add_parser(action)
        sub.add_argument("--semiring", required=True)
        _common(sub)

    autmorph = groups.add_parser("autmorph").add_subparsers(
        dest="action", required=True)
    for action in ("verify", "extract", "normalize", "outgroup"):
        sub = autmorph.add_parser(action)
        sub.add_argument("--semiring", required=True)
        if action in ("extract", "normalize"):
            sub.add_argument("--sigma", type=int, default=0,
                             help="index into the automorphism list")
            sub.add_argument("--random-family", action="store_true",
                             dest="random_family")
        _common(sub)

    lie = groups.add_parser("lie").add_subparsers(dest="action", required=True)
    for action in ("validate", "mul", "basis", "lift", "units", "suite"):
        sub = lie.add_parser(action)
        sub.add_argument("--file", required=True, dest="lie",
                         help="lie algebra JSON file or built-in name like sl2:Q")
        if action == "mul":
            sub.add_argument("--left", required=True,
                             help="comma-separated basis labels, e.g. e,f")
            sub.add_argument("--right", required=True)
        if action == "basis":
            sub.add_argument("--gens", type=int, default=1)
        if action == "lift":
            sub.add_argument("--map", default="chevalley", dest="map_name")
        _common(sub)

    show = groups.add_parser("report").add_subparsers(dest="action", required=True)
    sub = show.add_parser("show")
    sub.add_argument("path")
    _common(sub)
    return parser


def _config(args, kind):
    return ExperimentConfig(
        kind=kind, semiring=getattr(args, "semiring", None),
        lie=getattr(args, "lie", None), cap=args.cap, degree_cap=args.degree_cap,
        seed=args.seed, budget=args.budget)


def _dispatch(args):
    if args.group == "semiring":
        kind = "validate" if args.action == "validate" else "aut-groups"
        return run_experiment(_config(args, kind))
    if args.group == "ibn":
        return run_experiment(_config(args, "ibn"))
    if args.group == "autmorph":
        if args.action == "verify":
            return run_experiment(_config(args, "functor-verify"))
        if args.action == "outgroup":
            return run_experiment(_config(args, "out-group"))
        return run_autmorph_flow(
            args.action, _config(args, "functor-verify"),
            sigma_index=args.sigma, random_family=args.random_family)
    if args.group == "lie":
        if args.action == "suite":
            return run_experiment(_config(args, "lie-suite"))
        return run_lie_command(
            args.action, _config(args, "lie-suite"),
            left=getattr(args, "left", None),
            right=getattr(args, "right", None),
            gens=getattr(args, "gens", 1),
            map_name=getattr(args, "map_name", None),
        )
    if args.group == "report":
        try:
            with open(args.path) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot read report {args.path}: {exc}") from exc
        return report_from_json(text)
    raise ConfigError(f"unknown command group {args.group!r}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _dispatch(args)
    except SemicatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = emit_report(report, args.fmt, include_timing=args.timings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return 0 if report.verdict in ("pass", "vacuous-pass") else 1


if __name__ == "__main__":
    sys.exit(main())
