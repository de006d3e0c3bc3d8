"""Golden reports: the exit code, stdout and stderr of fixed CLI runs.

Each (argv, seed) pair has one file under ``tests/golden/``.  From the
repository root,

    PYTHONPATH=src python tests/golden.py --write

writes every file.  ``tests/test_golden.py`` runs each argv in-process
through ``semicat.cli.main`` and compares its output with the file, byte for
byte.  A change that means to alter a report rewrites the affected files in
the same change and names them in CHANGES.md.

The argv leave out ``--timings`` and every argparse help or usage text: their
bytes differ between runs or between Python versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

from semicat import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
# A restricted sl2 over zmod:5 with the p-map h^[5] = h, named by a
# repository-relative path because a report echoes its spec.
RESTRICTED = "tests/golden/restricted-sl2-zmod5.json"
SEEDS = (1, 2)


def _word(letters, times):
    return ",".join([letters] * times)


def _verify(carrier, *extra):
    return ["autmorph", "verify", "--semiring", carrier, *extra]


def _lie(action, spec, *extra):
    return ["lie", action, "--file", spec, *extra]


# The CLI operations of the benchmark's three workloads, copied here so that
# a change to the benchmark leaves the corpus alone.
BENCHMARK_ARGV = [
    _verify("gf:4", "--cap", "2"),
    _verify("zmod:4", "--cap", "2"),
    _verify("gf:3", "--cap", "2"),
    _verify("boolean", "--cap", "2"),
    _verify("gf:4", "--cap", "2", "--budget", "20000"),
    _verify("tropical", "--cap", "2", "--budget", "500"),
    *(["autmorph", action, "--semiring", carrier, "--random-family"]
      for carrier in ("gf:5", "zmod:6") for action in ("extract", "normalize")),
    ["semiring", "autgroups", "--semiring", "zmod:11"],
    ["semiring", "autgroups", "--semiring", "gf:9"],
    ["semiring", "validate", "--semiring", "zmod:60"],
    ["autmorph", "outgroup", "--semiring", "gf:9", "--cap", "2"],
    ["autmorph", "outgroup", "--semiring", "zmod:4", "--cap", "2"],
    ["ibn", "classify", "--semiring", "trivial", "--cap", "3"],
    ["ibn", "agree", "--semiring", "trivial", "--cap", "3"],
    ["semiring", "validate", "--semiring", "zmod:abc"],
    _lie("mul", "sl2:Q", "--left", _word("e", 10), "--right", _word("f", 10)),
    _lie("mul", "sl2:Z", "--left", _word("e", 12), "--right", _word("f", 12)),
    _lie("mul", "sl2:zmod:7", "--left", _word("e,h", 5), "--right", _word("f,h", 5)),
    _lie("suite", "sl2:Q"),
    _lie("suite", "heisenberg:Z"),
    _lie("suite", "sl2:zmod:5"),
    _lie("suite", "abelian4:Q"),
    _lie("suite", RESTRICTED),
    _lie("units", "sl2:zmod:5", "--degree-cap", "5"),
    _lie("lift", "sl2:Q"),
    _lie("validate", "sl2:zmod:x"),
]

ARGV = BENCHMARK_ARGV + [
    _verify("gf:4", "--cap", "3"),
    _verify("integers"),
    _verify("naturals"),
    ["autmorph", "extract", "--semiring", "gf:4", "--sigma", "1", "--random-family"],
    ["autmorph", "extract", "--semiring", "gf:9", "--sigma", "1"],
    ["semiring", "autgroups", "--semiring", "gf:16"],
    ["semiring", "validate", "--semiring", "tropical"],
    ["autmorph", "outgroup", "--semiring", "gf:4"],
    ["autmorph", "outgroup", "--semiring", "gf:4", "--budget", "5"],
    ["ibn", "agree", "--semiring", "boolean", "--cap", "3"],
    ["ibn", "agree", "--semiring", "gf:4", "--cap", "4"],
    ["ibn", "classify", "--semiring", "tropical"],
    _lie("validate", RESTRICTED),
    _lie("basis", RESTRICTED, "--degree-cap", "6"),
    _lie("mul", RESTRICTED, "--left", "h,h,h,e,e", "--right", "f,f,h,h,h"),
    _lie("units", "sl2:Q"),
    _lie("units", "sl2:Z"),
    _lie("units", "heisenberg:Q"),
    _lie("lift", "sl2:zmod:5"),
    _lie("basis", "sl2:Q", "--gens", "2"),
    _verify("gf:3", "--format", "text"),
    _lie("suite", "sl2:Q", "--format", "text"),
]


def cases():
    """(file name, argv with its seed) for every golden run."""
    out = []
    for argv in ARGV:
        slug = re.sub(r"[^A-Za-z0-9.]+", "-", " ".join(argv).replace("--", ""))
        if len(slug) > 60:
            digest = hashlib.sha1(" ".join(argv).encode()).hexdigest()[:8]
            slug = f"{slug[:48]}-{digest}"
        out += [(f"{slug}.seed{seed}.out", [*argv, "--seed", str(seed)])
                for seed in SEEDS]
    return out


def render(argv):
    """The exit code, stdout and stderr of ``semicat <argv>``, run in this
    process from the current directory, as one text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return (f"$ semicat {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    os.chdir(ROOT)
    for name, argv in cases():
        (GOLDEN / name).write_text(render(argv), encoding="utf-8")
