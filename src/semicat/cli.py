"""Single command-line entry point with subcommand groups.

Exit codes: 0 when every check passed, 1 when a check failed, 2 on
configuration or parse errors.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .autfunctors import DEFAULT_BUDGET
from .errors import ConfigError, ParseError, SemicatError, VerificationReport
from .harness import (
    ExperimentConfig,
    emit_report,
    run_autmorph_flow,
    run_experiment,
    run_lie_command,
)


_SEMIRING = (("--semiring",), {"required": True})
_LIE = (("--file",), {"required": True, "dest": "lie",
                      "help": "lie algebra JSON file or built-in name like sl2:Q"})
_FAMILY = (
    (("--sigma",), {"type": int, "default": 0,
                    "help": "index into the automorphism list"}),
    (("--random-family",), {"action": "store_true", "dest": "random_family"}),
)
_COMMON = (
    (("--seed",), {"type": int, "default": 0}),
    (("--budget",), {"type": int, "default": DEFAULT_BUDGET}),
    (("--cap",), {"type": int, "default": 2}),
    (("--degree-cap",), {"type": int, "default": 3, "dest": "degree_cap"}),
    (("--format",), {"choices": ("json", "text"), "default": "json", "dest": "fmt"}),
    (("--out",), {"default": None}),
    (("--timings",), {"action": "store_true",
                      "help": "include wall-clock timings in JSON output"}),
)
# group -> action -> the options of that action, before the common ones
_COMMANDS = {
    "semiring": dict.fromkeys(("validate", "autgroups"), (_SEMIRING,)),
    "ibn": dict.fromkeys(("classify", "agree"), (_SEMIRING,)),
    "autmorph": {"verify": (_SEMIRING,), "extract": (_SEMIRING, *_FAMILY),
                 "normalize": (_SEMIRING, *_FAMILY), "outgroup": (_SEMIRING,)},
    "lie": {
        "validate": (_LIE,),
        "mul": (_LIE, (("--left",), {"required": True,
                                     "help": "comma-separated basis labels, e.g. e,f"}),
                (("--right",), {"required": True})),
        "basis": (_LIE, (("--gens",), {"type": int, "default": 1})),
        "lift": (_LIE,),
        "units": (_LIE,),
        "suite": (_LIE,),
    },
    "report": {"show": ((("path",), {}),)},
}


def build_parser(argv=()):
    """The parser for ``argv``: every group, every action of the group that
    argv names and the options of the action it names, so that help, choice
    and missing-argument errors read as with the whole tree built."""
    import argparse  # here, not at the top: a plain argv builds no parser

    group, action = (list(argv) + [None, None])[:2]
    parser = argparse.ArgumentParser(prog="semicat")
    groups = parser.add_subparsers(dest="group", required=True)
    for name, actions in _COMMANDS.items():
        sub = groups.add_parser(name)
        if name != group:
            continue
        leaves = sub.add_subparsers(dest="action", required=True)
        for leaf_name, options in actions.items():
            leaf = leaves.add_parser(leaf_name)
            if leaf_name == action:
                for flags, kwargs in options + _COMMON:
                    leaf.add_argument(*flags, **kwargs)
    return parser


def _parse_plain(argv):
    """The namespace that ``build_parser(argv).parse_args(argv)`` returns,
    read straight from the command table, or None wherever argparse may
    answer otherwise: help, unknown or abbreviated flags, ``--flag=value``,
    ``--``, values that start with ``-``, and every value or usage error."""
    if len(argv) < 2 or argv[1] not in _COMMANDS.get(argv[0], ()):
        return None
    group, action = argv[:2]
    flags, positionals, required, values = {}, [], set(), {}
    for (name, *_), kwargs in _COMMANDS[group][action] + _COMMON:
        dest = kwargs.get("dest", name.lstrip("-").replace("-", "_"))
        store_true = kwargs.get("action") == "store_true"
        values[dest] = kwargs.get("default", False if store_true else None)
        if name.startswith("-"):
            flags[name] = dest, kwargs
        else:
            positionals.append((dest, kwargs))
        if kwargs.get("required") or not name.startswith("-"):
            required.add(dest)
    tokens = iter(argv[2:])
    for token in tokens:
        if token.startswith("-"):
            if token not in flags:
                return None
            dest, kwargs = flags[token]
            if kwargs.get("action") == "store_true":
                values[dest] = True
                continue
            token = next(tokens, None)
            if token is None or token.startswith("-"):
                return None
        elif positionals:
            dest, kwargs = positionals.pop(0)
        else:
            return None
        try:
            value = kwargs.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        values[dest] = value
        required.discard(dest)
    if required:
        return None
    return SimpleNamespace(group=group, action=action, **values)


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
        )
    if args.group == "report":
        try:
            with open(args.path) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot read report {args.path}: {exc}") from exc
        return VerificationReport.from_json(text)
    raise ConfigError(f"unknown command group {args.group!r}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        parser = build_parser(argv)
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse before 3.13 reads --flag=-- as []
            parser.error("expected one argument, not '--'")
    try:
        report = _dispatch(args)
    except SemicatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = emit_report(report, args.fmt, include_timing=args.timings)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        print(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
