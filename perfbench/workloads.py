"""The benchmark's workloads: fixed lists of report-producing operations.

An operation is one report.  Most are a ``semicat`` argv run through
``semicat.cli.main``; the IBN oracle with ``shortcut=False`` is not reachable
from the CLI and runs as one library call (``"call"``).  The runner appends
``--seed <n>`` to every argv.

``expect`` holds the values a report states that do not depend on the seed.
They were recorded at the commit that introduced the benchmark.  Only these
named values are compared, never whole reports, so records that later
commits add do not read as failures.

``known_failure`` marks an operation that fails at the commit that
introduced the benchmark.  The runner runs it once per run, outside the
timed loop and the attempted and failed counts, and reports whether the
defect still shows; a failure of any other operation makes the run
incorrect.
"""

from __future__ import annotations

import json
import re

# A restricted sl2 over zmod:5 with the p-map h^[5] = h (basis order f, h, e),
# so that the p-power rewriting path of the envelope runs.
RESTRICTED_SL2_F5 = {
    "name": "sl2-restricted",
    "ring": "zmod:5",
    "dim": 3,
    "labels": ["f", "h", "e"],
    "brackets": [[0, 1, [[0, 2]]], [0, 2, [[1, 4]]], [1, 2, [[2, 2]]]],
    "pmap": [[0, []], [1, [[1, 1]]], [2, []]],
}
RESTRICTED_SL2_FILE = "restricted-sl2-zmod5.json"


def _verify(carrier, functors, *extra):
    return {"id": f"verify {carrier}" + "".join(f" {x}" for x in extra),
            "argv": ["autmorph", "verify", "--semiring", carrier, "--cap", "2",
                     *extra],
            "expect": {"verdict": "pass", "functors": functors}}


def _flow(action, carrier, witness):
    name = {"extract": "extract-round-trip",
            "normalize": "normalize-fixes-injections"}[action]
    return {"id": f"{action} {carrier}",
            "argv": ["autmorph", action, "--semiring", carrier,
                     "--random-family"],
            "expect": {"verdict": "pass", "witness": {name: witness}}}


def _lie(action, spec, *extra, expect=None):
    label = spec if not spec.endswith(".json") else "sl2-restricted:zmod:5"
    return {"id": f"lie {action} {label}" + "".join(f" {x}" for x in extra),
            "argv": ["lie", action, "--file", spec, *extra],
            "expect": {"verdict": "pass", **(expect or {})}}


def _word(letter, times):
    return ",".join([letter] * times)


SKEW2 = ["semi-inner", "skew[0]", "skew[1]"]
SKEW1 = ["semi-inner", "skew[0]"]

WORKLOADS = {
    # The only kind measured as slow: the matcat composition kernel and the
    # pairwise law sweeps of autfunctors.  lie and ibn do no work here.
    "functor-sweep": [
        _verify("gf:4", SKEW2),
        _verify("zmod:4", SKEW1),
        _verify("gf:3", SKEW1),
        _verify("boolean", SKEW1),
        _verify("gf:4", SKEW2, "--budget", "20000"),
        _verify("tropical", ["skew[id]"], "--budget", "500"),
    ],
    # Enumeration, Morphism construction and early-exit product checks
    # (invertible_morphisms, invert), automorphism enumeration and the IBN
    # oracle search; almost no composition.
    "carrier-search": [
        _flow("extract", "gf:5", "recovered aut[0, 1, 2, 3, 4]"),
        _flow("normalize", "gf:5", "components at ranks [0, 1, 2]"),
        _flow("extract", "zmod:6", "recovered aut[0, 1, 2, 3, 4, 5]"),
        _flow("normalize", "zmod:6", "components at ranks [0, 1, 2]"),
        {"id": "autgroups zmod:11",
         "argv": ["semiring", "autgroups", "--semiring", "zmod:11"],
         "expect": {"verdict": "pass",
                    "orders": {"aut": 1, "inn": 1, "out": 1}}},
        {"id": "autgroups gf:9",
         "argv": ["semiring", "autgroups", "--semiring", "gf:9"],
         "expect": {"verdict": "pass",
                    "orders": {"aut": 2, "inn": 1, "out": 2}}},
        {"id": "validate zmod:60",
         "argv": ["semiring", "validate", "--semiring", "zmod:60"],
         "expect": {"verdict": "pass", "axioms": 8}},
        {"id": "outgroup gf:9",
         "argv": ["autmorph", "outgroup", "--semiring", "gf:9", "--cap", "2"],
         "expect": {"verdict": "pass", "out_group": {"out_order": 2}}},
        {"id": "outgroup zmod:4",
         "argv": ["autmorph", "outgroup", "--semiring", "zmod:4", "--cap", "2"],
         "expect": {"verdict": "pass", "out_group": {"out_order": 1}}},
        {"id": "ibn classify trivial",
         "argv": ["ibn", "classify", "--semiring", "trivial", "--cap", "3"],
         "expect": {"verdict": "pass",
                    "ibn": {"kind": "type", "n": 1, "h": 1}}},
        {"id": "ibn agree trivial",
         "argv": ["ibn", "agree", "--semiring", "trivial", "--cap", "3"],
         "expect": {"verdict": "pass",
                    "ibn": {"kind": "type", "n": 1, "h": 1}}},
        {"id": "classify_type zmod:3 no-shortcut",
         "call": {"fn": "classify_type", "semiring": "zmod:3",
                  "args": [3], "kwargs": {"shortcut": False}},
         "expect": {"result": {"kind": "ibn", "cap": 3,
                               "regime": "exhaustive"}}},
        {"id": "free_iso_witness boolean 2 3 no-shortcut",
         "call": {"fn": "free_iso_witness", "semiring": "boolean",
                  "args": [2, 3], "kwargs": {"shortcut": False}},
         "expect": {"result": None}},
        {"id": "validate zmod:abc (malformed)",
         "argv": ["semiring", "validate", "--semiring", "zmod:abc"],
         "exit": 2, "expect": {}},
    ],
    # The lie normal form, coefficient arithmetic and the word-rewriting
    # oracle; matcat, semirings and autfunctors are idle.
    "pbw": [
        _lie("mul", "sl2:Q", "--left", _word("e", 10), "--right", _word("f", 10)),
        _lie("mul", "sl2:Z", "--left", _word("e", 12), "--right", _word("f", 12)),
        _lie("mul", "sl2:zmod:7", "--left", ",".join(["e,h"] * 5),
             "--right", ",".join(["f,h"] * 5)),
        _lie("suite", "sl2:Q"),
        _lie("suite", "heisenberg:Z"),
        _lie("suite", "sl2:zmod:5"),
        _lie("suite", "abelian4:Q"),
        _lie("suite", RESTRICTED_SL2_FILE, expect={"restricted_basis": True}),
        _lie("units", "sl2:zmod:5", "--degree-cap", "5",
             expect={"unit_count": 4}),
        _lie("lift", "sl2:Q"),
        {"id": "lie validate sl2:zmod:x (malformed)",
         "argv": ["lie", "validate", "--file", "sl2:zmod:x"],
         "exit": 2, "expect": {},
         "known_failure": "exits 1 with a ValueError traceback instead of "
                          "a parse error with exit 2"},
    ],
}

# Left out on purpose: ``autmorph verify --semiring gf:4 --cap 3`` does not
# finish (it stalls in invertible_morphisms), so every run would last as long
# as its timeout.  The change that makes it terminate adds it here.
EXCLUDED = {
    "autmorph verify --semiring gf:4 --cap 3":
        "does not terminate: invertible_morphisms checks ~6.9e10 pairs",
}


def operations(workload, seed, data_dir):
    """The workload's operations for this seed, with argv ready to run."""
    ops = []
    for op in WORKLOADS[workload]:
        op = dict(op)
        if "argv" in op:
            argv = [data_dir + "/" + a if a == RESTRICTED_SL2_FILE else a
                    for a in op["argv"]]
            op["argv"] = argv + ["--seed", str(seed)]
        op.setdefault("exit", 0)
        op.setdefault("known_failure", None)
        ops.append(op)
    return ops


def write_inputs(data_dir):
    with open(f"{data_dir}/{RESTRICTED_SL2_FILE}", "w") as fh:
        json.dump(RESTRICTED_SL2_F5, fh, sort_keys=True)


def _witness_json(report, name):
    return json.loads(_record(report, name)["witness"])


def _record(report, name):
    for record in report["records"]:
        if record["name"] == name:
            return record
    raise KeyError(f"no record {name!r}")


def _actual(key, expected, report):
    """The value that ``report`` states for the expectation ``key``."""
    if key == "verdict":
        return report["verdict"]
    if key == "result":
        return ({k: report[k] for k in expected} if isinstance(expected, dict)
                else report)
    if key == "functors":
        return sorted({r["name"].split(":", 1)[0] for r in report["records"]})
    if key == "orders":
        return _witness_json(report, "orders")
    if key == "axioms":
        return sum(r["status"] == "pass" for r in report["records"]
                   if r["name"].startswith("axiom:"))
    if key == "witness":
        return {name: _record(report, name)["witness"] for name in expected}
    if key == "out_group":
        data = _witness_json(report, "class-count-matches-out")
        if data["class_count"] != data["out_order"]:
            return {"class_count": data["class_count"]}
        return {"out_order": data["out_order"]}
    if key == "ibn":
        data = _witness_json(report, "classification")
        if not _witness_json(report, "left-right-agreement")["agree"]:
            return {"agree": False}
        return {k: data.get(k) for k in expected}
    if key == "restricted_basis":
        count, p, dim = map(int, re.fullmatch(
            r"(\d+) vs (\d+)\^(\d+)",
            _record(report, "restricted-basis-count")["witness"]).groups())
        return count == p ** dim
    if key == "unit_count":
        return _witness_json(report, "unit-count")["count"]
    raise KeyError(f"unknown expectation {key!r}")


def check_report(op, report_text):
    """Problems found comparing a report with the op's expected values."""
    if not op["expect"]:
        return []
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    for key, expected in op["expect"].items():
        try:
            actual = _actual(key, expected, report)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            actual = f"<unreadable: {type(exc).__name__}: {exc}>"
        if actual != expected:
            problems.append(f"{key}: expected {expected!r}, got {actual!r}")
    return problems
