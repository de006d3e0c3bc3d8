import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicat
from semicat import cli
from semicat import semirings as S
from semicat.errors import Check, ConfigError, SemicatError, VerificationReport
from semicat.harness import (
    MAX_DEGREE_CAP,
    ExperimentConfig,
    _parse_word,
    check_recovered_twist,
    emit_report,
    load_lie,
    run_experiment,
    run_lie_command,
)
from support import matrix_ring_f2


def config(kind, **kw):
    return ExperimentConfig(kind=kind, **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        config("no-such-kind", semiring="boolean").validate()
    with pytest.raises(ConfigError):
        config("ibn").validate()
    with pytest.raises(ConfigError):
        config("lie-suite").validate()
    with pytest.raises(ConfigError):
        config("ibn", semiring="boolean", cap=0).validate()
    with pytest.raises(ConfigError):
        config("ibn", semiring="boolean", budget=-1).validate()


def test_all_kinds_pass_on_good_inputs():
    cases = [
        config("validate", semiring="gf:4"),
        config("validate", semiring="tropical"),
        config("ibn", semiring="trivial", cap=3),
        config("aut-groups", semiring="gf:4"),
        config("functor-verify", semiring="zmod:4"),
        config("out-group", semiring="boolean"),
        config("lie-suite", lie="heisenberg:Z"),
    ]
    for cfg in cases:
        report = run_experiment(cfg)
        assert report.verdict == "pass", emit_report(report, "text")


def test_kind_by_carrier_smoke_matrix():
    # every experiment kind runs clean on a spread of carriers, including
    # the sampled regime over infinite ones
    cases = [
        config("validate", semiring="naturals"),
        config("validate", semiring="integers"),
        config("ibn", semiring="naturals", cap=3),
        config("ibn", semiring="gf:4", cap=3),
        config("aut-groups", semiring="trivial"),
        config("aut-groups", semiring="gf:8"),
        config("functor-verify", semiring="tropical", budget=500),
        config("functor-verify", semiring="trivial"),
        config("out-group", semiring="trivial"),
        config("out-group", semiring="zmod:4"),
        config("lie-suite", lie="abelian1:Q"),
        config("lie-suite", lie="sl2:Z"),
    ]
    for cfg in cases:
        report = run_experiment(cfg)
        assert report.verdict == "pass", emit_report(report, "text")
        sampled = [r for r in report.records if r.regime == "sampled"]
        for record in sampled:
            assert record.seed is not None


def test_validate_fails_on_broken_table(tmp_path):
    import ast

    broken = S.boolean_semiring().to_json()
    broken["mul"][1][1] = 0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    report = run_experiment(config("validate", semiring=str(path)))
    assert report.verdict == "fail"
    failed = [r for r in report.records if not r.passed]
    assert any("one-identity" in r.name for r in failed)
    text = emit_report(report, "text")
    assert "witness" in text and "(1,)" in text
    # the recorded witness replays: evaluating the named axiom at it on the
    # same tables reproduces the violation
    for record in failed:
        axiom = record.name.split(":", 1)[1]
        witness = ast.literal_eval(record.witness)
        assert not S.evaluate_axiom(
            broken["add"], broken["mul"], broken["zero"], broken["one"],
            axiom, witness)


def test_cli_refuses_a_semiring_file_that_breaks_an_axiom(tmp_path, capsys):
    broken = S.boolean_semiring().to_json()
    broken["add"][0][0] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(broken))
    for argv in (["semiring", "autgroups"], ["autmorph", "verify"], ["ibn", "classify"]):
        assert cli.main(argv + ["--semiring", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: axiom 'zero-identity' fails at witness (0,)\n")
    # validate reports the broken axioms instead of refusing the file
    assert cli.main(["semiring", "validate", "--semiring", str(path)]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r["name"] for r in records if r["status"] == "fail"] == [
        "axiom:zero-identity", "axiom:left-distributivity", "axiom:right-distributivity"]


def test_determinism_byte_identical():
    for cfg_args in (
        ("validate", {"semiring": "naturals"}),
        ("functor-verify", {"semiring": "gf:4"}),
        ("lie-suite", {"lie": "sl2:zmod:5"}),
    ):
        kind, kw = cfg_args
        first = emit_report(run_experiment(config(kind, seed=9, **kw)))
        second = emit_report(run_experiment(config(kind, seed=9, **kw)))
        assert first == second


def test_merged_records_keep_checked_counts():
    from semicat.autfunctors import (
        semi_inner_functor, skew_inner_functor, verify_functor)

    report = run_experiment(config("functor-verify", semiring="gf:3"))
    merged = next(r for r in report.records
                  if r.name == "skew[0]:composition-preservation")
    sigma = S.automorphism_groups(S.load_semiring("gf:3")).aut[0]
    direct = verify_functor(
        semi_inner_functor(skew_inner_functor(sigma, 2)), budget=200_000,
        seed=0).record("composition-preservation")
    assert merged.checked == direct.checked > 0


def test_unit_scalars_over_a_finite_ring_are_exhaustive():
    report = run_lie_command("units", config("lie-suite", lie="sl2:zmod:5"))
    record = next(r for r in report.records
                  if r.name.startswith("units:unit-scalars"))
    assert record.regime == "exhaustive" and record.checked == 5
    assert "seed" not in record.to_json()
    sampled = [r for r in report.records if r.regime == "sampled"]
    assert sampled and all(r.seed == 0 for r in sampled)


# one argv per report shape: the subject keys each action adds, and the
# records that CyclicUnitsReport passes through ``extend``
_REPORT_SHAPES = (
    ["ibn", "classify", "--semiring", "boolean", "--cap", "3"],
    ["autmorph", "extract", "--semiring", "gf:4", "--sigma", "1", "--random-family"],
    ["autmorph", "normalize", "--semiring", "zmod:4", "--random-family"],
    ["lie", "mul", "--file", "sl2:Q", "--left", "e,h", "--right", "f"],
    ["lie", "basis", "--file", "sl2:Q", "--gens", "2"],
    ["lie", "units", "--file", "sl2:zmod:5"],
)


def test_report_round_trip():
    for argv in _REPORT_SHAPES:
        report = cli._dispatch(cli._parse_plain(argv))
        for fmt, include_timing in (("json", False), ("json", True), ("text", False)):
            text = emit_report(report, fmt, include_timing)
            back = VerificationReport.from_json(emit_report(report, "json", include_timing))
            assert emit_report(back, fmt, include_timing) == text, (argv, fmt)


def test_report_show_names_the_parse_error(tmp_path, capsys):
    not_json, a_list = tmp_path / "not-json.json", tmp_path / "list.json"
    not_json.write_text("{not json")
    a_list.write_text("[1, 2]")
    assert cli.main(["report", "show", str(not_json)]) == 2
    assert capsys.readouterr().err == (
        "error: bad report JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)\n")
    assert cli.main(["report", "show", str(a_list)]) == 2
    assert capsys.readouterr().err == (
        "error: not a report object: "
        "TypeError('list indices must be integers or slices, not str')\n")


def test_vacuous_pass():
    empty = VerificationReport({"kind": "none"})
    assert empty.verdict == "vacuous-pass"
    data = json.loads(emit_report(empty))
    assert data["verdict"] == "vacuous-pass"


def test_timing_excluded_by_default():
    record = Check(name="n", regime="exhaustive", status="pass",
                   timing_ms=12.5)
    report = VerificationReport({}, [record])
    assert "timing_ms" not in emit_report(report)
    assert "timing_ms" in emit_report(report, include_timing=True)


def test_readme_quick_tour_runs():
    import pathlib
    import re

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    match = re.search(r"## Quick tour\n\n```python\n(.*?)```",
                      readme.read_text(), re.S)
    assert match, "README quick tour section missing"
    exec(compile(match.group(1), "README-quick-tour", "exec"), {})


def test_load_lie_builtins():
    lie, restricted = load_lie("sl2:Q")
    assert lie.dim == 3 and restricted is None
    lie, _ = load_lie("abelian2:gf:2")
    assert lie.dim == 2 and lie.ring.characteristic == 2


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["ibn", "classify", "--semiring", "boolean", "--cap", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["semiring", "validate", "--semiring", "not-a-thing"]) == 2
    capsys.readouterr()
    assert cli.main(["ibn", "classify", "--semiring", "boolean", "--cap", "0"]) == 2
    capsys.readouterr()
    broken = S.boolean_semiring().to_json()
    broken["add"][0][0] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(broken))
    assert cli.main(["semiring", "validate", "--semiring", str(path)]) == 1
    capsys.readouterr()
    assert cli.main(["lie", "validate", "--file", "sl2:zmod:x"]) == 2
    capsys.readouterr()
    assert cli.main(["lie", "validate", "--file", "sl2:gf:x"]) == 2
    capsys.readouterr()
    not_an_object = tmp_path / "five.json"
    not_an_object.write_text("5")
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    for path in (not_an_object, not_utf8):
        for argv in (["semiring", "validate", "--semiring"],
                     ["semiring", "autgroups", "--semiring"],
                     ["lie", "validate", "--file"],
                     ["report", "show"]):
            assert cli.main(argv + [str(path)]) == 2
            capsys.readouterr()
    # a dimension past int()'s digit limit, and a NUL byte in a file name
    for spec in ("abelian" + "9" * 5000 + ":Q", "no\x00such.json"):
        assert cli.main(["lie", "validate", "--file", spec]) == 2
        capsys.readouterr()
    too_big = tmp_path / "zmod257.json"
    too_big.write_text(json.dumps({
        "size": 257, "zero": 0, "one": 1,
        "add": [[(a + b) % 257 for b in range(257)] for a in range(257)],
        "mul": [[a * b % 257 for b in range(257)] for a in range(257)]}))
    for spec in ("zmod:100000", "gf:65536", str(too_big)):
        start = time.perf_counter()
        assert cli.main(["semiring", "validate", "--semiring", spec]) == 2
        assert time.perf_counter() - start < 1.0
        assert "table size limit" in capsys.readouterr().err
    for name, data in (("dim-not-int.json", {"ring": "Q", "dim": "x", "brackets": []}),
                       ("terms-not-list.json",
                        {"ring": "Q", "dim": 2, "brackets": [[0, 1, 5]]}),
                       ("divide-by-zero.json",
                        {"ring": "Q", "dim": 2, "brackets": [[0, 1, [[0, "1/0"]]]]}),
                       ("dim-0.json",
                        {"ring": "zmod:5", "dim": 0, "brackets": [], "pmap": []})):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        assert cli.main(["lie", "validate", "--file", str(path)]) == 2
        capsys.readouterr()
    for argv in (["lie", "suite", "--file", "abelian0:Q"],
                 ["lie", "units", "--file", "abelian0:zmod:5"],
                 ["lie", "units", "--file", "sl2:Q", "--degree-cap", "-2"],
                 ["lie", "basis", "--file", "sl2:Q", "--gens", "0"],
                 ["autmorph", "extract", "--semiring", "gf:4", "--sigma", "-1"],
                 ["autmorph", "extract", "--semiring", "gf:4", "--cap", "0"],
                 ["autmorph", "normalize", "--semiring", "gf:4", "--cap", "-1"],
                 ["autmorph", "verify", "--semiring", "gf:4", "--cap", "0"],
                 ["autmorph", "verify", "--semiring", "gf:4", "--budget", "-5"],
                 # caps past the limits, and a basis past the budget, which
                 # ran for minutes before they were refused
                 ["autmorph", "verify", "--semiring", "gf:4", "--cap", "16"],
                 ["ibn", "classify", "--semiring", "zmod:4", "--cap", "1000000"],
                 ["lie", "units", "--file", "sl2:Q", "--degree-cap", "1024"],
                 ["lie", "basis", "--file", "sl2:zmod:3", "--gens", "1000000"]):
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 1.0, argv
        capsys.readouterr()
    restricted8 = tmp_path / "abelian8-restricted.json"
    restricted8.write_text(json.dumps(
        {"ring": "zmod:5", "dim": 8, "brackets": [], "pmap": []}))
    for spec in ("abelian40:Q", str(restricted8)):
        start = time.perf_counter()
        assert cli.main(["lie", "suite", "--file", spec]) == 2
        assert time.perf_counter() - start < 2.0
        assert "exceed the budget" in capsys.readouterr().err
    huge = tmp_path / "dim-3000.json"
    huge.write_text(json.dumps({"ring": "Q", "dim": 3000, "brackets": []}))
    for spec in (str(huge), "abelian3000:Q"):
        start = time.perf_counter()
        assert cli.main(["lie", "validate", "--file", spec]) == 2
        assert time.perf_counter() - start < 1.0
        assert "basis triples" in capsys.readouterr().err
    for name, text, extra in (
            ("list.json", "[1, 2]", []),
            ("nameless.json", json.dumps({
                "experiment": {}, "records": [
                    {"regime": "exhaustive", "status": "pass"}]}), []),
            ("int-name.json", json.dumps({
                "experiment": {}, "records": [
                    {"name": 5, "regime": "exhaustive", "status": "pass"}]}),
             ["--format", "text"])):
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["report", "show", str(path)] + extra) == 2
        capsys.readouterr()


def test_cli_lie_mul_words_are_capped(capsys):
    """A word past the degree cap is refused before any product is formed:
    e^100 * f^100 over Q ran past a minute."""
    lie, _ = load_lie("sl2:Q")
    longest = ",".join(["e"] * MAX_DEGREE_CAP)
    assert _parse_word(lie, longest) == (2,) * MAX_DEGREE_CAP
    too_long = longest + ",e"
    for words in (["--left", too_long, "--right", "f"],
                  ["--left", "f", "--right", too_long]):
        start = time.perf_counter()
        assert cli.main(["lie", "mul", "--file", "sl2:Q", *words]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"at most {MAX_DEGREE_CAP} letters, not 65" in capsys.readouterr().err


def test_cli_refuses_a_p_map_whose_bracket_rounds_exceed_the_budget(tmp_path, capsys):
    pmap = tmp_path / "pmap1000003.json"
    pmap.write_text(json.dumps(
        {"ring": "zmod:1000003", "dim": 1, "brackets": [], "pmap": [[0, [[0, 1]]]]}))
    assert cli.main(["lie", "validate", "--file", str(pmap)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: 1 x 1000003 bracket rounds of s_polynomials exceed "
                   "the budget 200000\n")


def test_cli_reports_identical_across_hash_seeds(tmp_path):
    restricted = tmp_path / "sl2-restricted.json"
    restricted.write_text(json.dumps({
        "ring": "zmod:5", "dim": 3, "labels": ["f", "h", "e"],
        "brackets": [[0, 1, [[0, 2]]], [0, 2, [[1, 4]]], [1, 2, [[2, 2]]]],
        "pmap": [[0, []], [1, [[1, 1]]], [2, []]],
    }))
    src = str(Path(semicat.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for argv in (["lie", "mul", "--file", "sl2:Q", "--left", "e,e,h",
                  "--right", "f,f"],
                 ["lie", "units", "--file", "sl2:zmod:5"],
                 ["lie", "suite", "--file", str(restricted)],
                 ["autmorph", "verify", "--semiring", "gf:3"]):
        outputs = []
        for hash_seed in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-m", "semicat.cli", *argv],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path})
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


def test_cli_parser_keeps_help_and_usage_errors(capsys):
    # only the leaf that argv names gets its options built
    common = ["--seed SEED", "--budget BUDGET", "--cap CAP", "--degree-cap DEGREE_CAP",
              "--format {json,text}", "--out OUT", "--timings"]
    for argv, listed in (
            (["-h"], ["usage: semicat [-h] {semiring,ibn,autmorph,lie,report} ..."]),
            (["lie", "-h"], ["usage: semicat lie [-h] {validate,mul,basis,lift,units,suite} ..."]),
            (["lie", "mul", "-h"], ["usage: semicat lie mul [-h] --file LIE --left LEFT --right RIGHT",
                                    "lie algebra JSON file or built-in name like sl2:Q",
                                    "comma-separated basis labels, e.g. e,f"] + common),
            (["autmorph", "extract", "-h"], ["usage: semicat autmorph extract [-h] --semiring SEMIRING",
                                             "--sigma SIGMA", "--random-family"] + common)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(line in out for line in listed), out
    for argv, message in ((["foo"], "argument group: invalid choice: 'foo'"),
                          (["lie", "foo"], "argument action: invalid choice: 'foo'"),
                          (["lie", "mul", "--file", "sl2:Q"], "required: --left, --right"),
                          (["semiring", "validate", "--semiring", "gf:4", "--left", "e"],
                           "unrecognized arguments: --left e")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_double_dash_flag_value_is_a_usage_error(capsys):
    # argparse before 3.13 sets the flag to [] without calling its type, and
    # cli.main refuses it; 3.13 refuses "--" as an int itself and passes it
    # on as a semiring spec, which the loader refuses
    for argv in (["lie", "basis", "--file", "sl2:zmod:3", "--gens=--"],
                 ["semiring", "validate", "--semiring=--"]):
        try:
            empty = [] in vars(cli.build_parser(argv).parse_args(argv)).values()
        except SystemExit:
            empty = False
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err, err
        if empty:
            assert "expected one argument, not '--'" in err


_LEAF_FLAGS = sorted({names[0] for actions in cli._COMMANDS.values()
                      for options in actions.values()
                      for names, _ in options + cli._COMMON if names[0][0] == "-"})
_PLAIN_VALUES = st.one_of(
    st.integers(0, 300).map(str),
    st.sampled_from(("json", "text", "gf:4", "sl2:Q", "e,f", "report.json")))
_ARG_VALUES = st.one_of(
    _PLAIN_VALUES,
    st.integers(-300, -1).map(str),
    st.sampled_from(("", " 7", "1e3", "0x10", "\u0663")),
    st.text(max_size=6),
    st.text("0123456789", min_size=5000, max_size=5000),
)
_ODD_CHUNKS = st.one_of(
    st.tuples(st.sampled_from(_LEAF_FLAGS), _ARG_VALUES),
    st.tuples(st.sampled_from(_LEAF_FLAGS)),
    st.tuples(st.sampled_from(_LEAF_FLAGS).map(lambda flag: flag[:5])),
    st.tuples(st.builds("{}={}".format, st.sampled_from(_LEAF_FLAGS), _ARG_VALUES)),
    st.tuples(st.sampled_from(("-h", "--help", "--", "-", "--no-such-flag"))),
    st.tuples(_ARG_VALUES),
)


def _plain_chunk(option):
    """A leaf's flag with a value of its kind (now and then a bad choice or a
    bad int), or alone for a store-true flag."""
    (flag, *_), kwargs = option
    if kwargs.get("action") == "store_true":
        return st.just((flag,))
    if "choices" in kwargs:
        values = st.sampled_from((*kwargs["choices"], "xml"))
    elif kwargs.get("type") is int:
        values = st.one_of(st.integers(0, 300).map(str),
                           st.sampled_from(("1e3", " 7", "\u0663")))
    else:
        values = _PLAIN_VALUES
    return st.tuples(st.just(flag), values)


@st.composite
def _parser_argv(draw):
    """Known, unknown and abbreviated flags, ``=`` forms, repeats, help, stray
    positionals and odd values, around a leaf's own flags with plain values."""
    # mostly known names and the required arguments, so that most argv parse
    group = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["no-such-group"]))
    actions = cli._COMMANDS.get(group, {})
    action = draw(st.sampled_from([*actions] * 3 + ["no-such-action"]))
    options = actions.get(action, ()) + cli._COMMON
    argv = [group, action]
    if draw(st.integers(0, 3)):
        for names, kwargs in options:
            if names[0][0] != "-":
                argv.append(draw(_PLAIN_VALUES))
            elif kwargs.get("required"):
                argv += draw(_plain_chunk((names, kwargs)))
    own = st.sampled_from([o for o in options if o[0][0][0] == "-"]).flatmap(_plain_chunk)
    for chunk in draw(st.lists(st.one_of(own, own, own, own, _ODD_CHUNKS), max_size=5)):
        argv += chunk
    return argv


@given(_parser_argv())
@settings(max_examples=600, deadline=None)
def test_plain_parse_agrees_with_argparse(argv):
    # argparse is the reference: wherever the table parse answers, it gives
    # argparse's namespace; elsewhere main falls back to argparse itself
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert vars(plain) == vars(cli.build_parser(argv).parse_args(argv))


def test_plain_argv_leaves_argparse_unimported(tmp_path):
    # every argv the benchmark workloads run parses from the command table,
    # without the imports argparse pays for; help and usage errors still go
    # through argparse
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write_inputs(str(tmp_path))
    argvs = [op["argv"] for name in workloads.WORKLOADS
             for op in workloads.operations(name, 1, str(tmp_path)) if "argv" in op]
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from semicat import cli

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    return cli.main(argv)
                except SystemExit as exc:
                    return exc.code

        for argv in json.loads(sys.argv[1]):
            run(argv)
            loaded = [m for m in ("argparse", "shutil") if m in sys.modules]
            if loaded:
                sys.exit(f"{argv} imported {loaded}")
        print(run(["lie", "mul", "-h"]), run(["lie", "mul", "--file", "sl2:Q"]),
              "argparse" in sys.modules)
    """)
    src = str(Path(semicat.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-s", "-S", "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "2", "True"]


def _benchmark_argvs(tmp_path):
    """The argv of every operation of the benchmark workloads, at seed 1."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write_inputs(str(tmp_path))
    return [op["argv"] for name in workloads.WORKLOADS
            for op in workloads.operations(name, 1, str(tmp_path)) if "argv" in op]


def test_cli_runs_without_dataclasses_or_inspect(tmp_path):
    # the record classes are written out by hand: neither the import nor any
    # benchmark argv loads dataclasses or the modules it pulls in
    script = textwrap.dedent("""
        import contextlib, io, json, sys

        def loaded():
            return [m for m in ("dataclasses", "inspect", "ast", "dis")
                    if m in sys.modules]

        from semicat import cli
        if loaded():
            sys.exit(f"import semicat.cli imported {loaded()}")
        argvs = json.loads(sys.argv[1])
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
            if loaded():
                sys.exit(f"{argv} imported {loaded()}")
        print(len(argvs))
    """)
    argvs = _benchmark_argvs(tmp_path)
    src = str(Path(semicat.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-s", "-S", "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(len(argvs))]


def test_records_never_share_a_list():
    first, second = VerificationReport("x"), VerificationReport("x")
    first.records.append(Check("c", "exhaustive", "pass"))
    assert second.records == [] and first.records is not second.records
    one, two = S.AutomorphismGroups(), S.AutomorphismGroups()
    for name in ("aut", "inn", "out_reps"):
        assert getattr(one, name) == [] and getattr(one, name) is not getattr(two, name)


def test_recorder_extend_renames_and_keeps_the_counts():
    rec = VerificationReport(None, seed=7)
    sampled = Check("law", "sampled", "fail", witness="w", checked=12, seed=99,
                    timing_ms=1.5)
    swept = Check("sweep", "exhaustive", "pass", checked=30, seed=99, timing_ms=0.25)
    rec.extend("verify", [sampled, swept])
    assert rec.records == [
        Check("verify:law", "sampled", "fail", "w", 12, seed=7, timing_ms=1.5),
        Check("verify:sweep", "exhaustive", "pass", None, 30, seed=None,
              timing_ms=0.25),
    ]
    # the checks recorded elsewhere are left as they were
    assert (sampled.name, sampled.seed, swept.name, swept.seed) == (
        "law", 99, "sweep", 99)


def test_verify_report_survives_a_json_round_trip():
    report = cli._dispatch(cli._parse_plain(["autmorph", "verify", "--semiring", "gf:3"]))
    assert report.records and all(r.checked > 0 for r in report.records)
    for include_timing in (False, True):
        back = VerificationReport.from_json(
            emit_report(report, include_timing=include_timing))
        # the JSON carries every field but the case count, and the timings
        # only when asked for
        assert back == VerificationReport(
            report.subject,
            [Check(r.name, r.regime, r.status, r.witness, seed=r.seed,
                   timing_ms=r.timing_ms if include_timing else None)
             for r in report.records],
            version=report.version)
        assert emit_report(back) == emit_report(report)


def test_cli_report_show_round_trip(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main([
        "autmorph", "outgroup", "--semiring", "gf:4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["report", "show", str(out), "--format", "text"]) == 0
    shown = capsys.readouterr().out
    assert "verdict: pass" in shown


def test_cli_autmorph_flows(capsys):
    assert cli.main([
        "autmorph", "extract", "--semiring", "gf:4", "--sigma", "1",
        "--random-family", "--seed", "4"]) == 0
    capsys.readouterr()
    assert cli.main([
        "autmorph", "normalize", "--semiring", "zmod:4", "--random-family"]) == 0
    capsys.readouterr()


def test_cli_extract_passes_modulo_inner_on_a_noncommutative_carrier(tmp_path, capsys):
    # the family's rank-1 unit u survives normalize_injections, so the twist
    # recovered is sigma followed by conjugation by u: sigma modulo Inn(R)
    path = tmp_path / "m2f2.json"
    path.write_text(json.dumps(matrix_ring_f2().to_json()))
    for seed in (0, 2, 3):
        assert cli.main(["autmorph", "extract", "--semiring", str(path),
                         "--random-family", "--seed", str(seed)]) == 0
        (record,) = json.loads(capsys.readouterr().out)["records"]
        assert record["status"] == "pass"
        assert record["witness"].endswith(
            "aut[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15] "
            "modulo an inner automorphism")


def test_recovered_twist_must_match_modulo_inner_automorphisms():
    gf4 = S.automorphism_groups(S.galois_semiring(4))
    identity, frobenius = gf4.aut
    assert check_recovered_twist(identity, identity, gf4.inn) == "recovered aut[0, 1, 2, 3]"
    assert check_recovered_twist(frobenius, frobenius, gf4.inn) == "recovered aut[0, 1, 3, 2]"
    # Frobenius is outer: gf:4 is commutative, so Inn is trivial
    with pytest.raises(SemicatError, match="instead of"):
        check_recovered_twist(frobenius, identity, gf4.inn)
    with pytest.raises(SemicatError, match="instead of"):
        check_recovered_twist(identity, frobenius, gf4.inn)
    m2 = S.automorphism_groups(matrix_ring_f2())
    sigma = m2.aut[0]
    for inner in m2.inn:
        assert check_recovered_twist(inner, sigma, m2.inn).startswith(f"recovered {inner!r}")


def test_cli_verify_gf4_cap3_ends_quickly(capsys):
    # the family draws one invertible 3 x 3 matrix, not all of GL_3(F_4)
    start = time.perf_counter()
    assert cli.main(["autmorph", "verify", "--semiring", "gf:4", "--cap", "3"]) == 0
    assert time.perf_counter() - start < 5.0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_cli_autgroups_past_the_factorial(capsys):
    # (size-2)! bijections would be far over the cap on each of these
    for spec, order in (("gf:16", 4), ("gf:32", 5), ("zmod:12", 1)):
        start = time.perf_counter()
        assert cli.main(["semiring", "autgroups", "--semiring", spec]) == 0
        assert time.perf_counter() - start < 1.0
        report = json.loads(capsys.readouterr().out)
        orders = json.loads(report["records"][0]["witness"])
        assert orders == {"aut": order, "inn": 1, "out": order}
    # the largest field the constructors build: its search takes 1,111,844
    # steps, and the built-in tables are not re-validated
    start = time.perf_counter()
    assert cli.main(["semiring", "autgroups", "--semiring", "gf:256"]) == 0
    assert time.perf_counter() - start < 5.0
    report = json.loads(capsys.readouterr().out)
    assert json.loads(report["records"][0]["witness"]) == {"aut": 8, "inn": 1, "out": 8}


def test_aut_groups_steps_stay_out_of_the_json():
    report = run_experiment(config("aut-groups", semiring="gf:8"))
    orders = report.records[0]
    assert orders.name == "orders"
    assert orders.checked == S.automorphism_groups(S.galois_semiring(8)).steps > 0
    assert "checked" not in emit_report(report)


def test_cli_lie_commands(capsys):
    assert cli.main([
        "lie", "mul", "--file", "sl2:Q", "--left", "e", "--right", "f",
        "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "normal-form" in out
    assert cli.main(["lie", "basis", "--file", "abelian2:Q", "--gens", "2",
                     "--degree-cap", "2"]) == 0
    capsys.readouterr()
    assert cli.main(["lie", "lift", "--file", "sl2:Q"]) == 0
    capsys.readouterr()
    assert cli.main(["lie", "units", "--file", "sl2:zmod:5"]) == 0
    capsys.readouterr()


def test_cli_lie_mul_witness_over_q(capsys):
    assert cli.main(["lie", "mul", "--file", "sl2:Q",
                     "--left", "e,e", "--right", "f,f"]) == 0
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert record["name"] == "normal-form" and record["status"] == "pass"
    assert record["witness"] == "-2*h + 2*hh + -8*fe + 4*fhe + 1*ffee"


def test_cli_lie_mul_high_degree_ends_quickly(capsys):
    # e^33 * f^33 has 1089 inversions; the word oracle memoizes segments
    start = time.perf_counter()
    assert cli.main(["lie", "mul", "--file", "sl2:zmod:7",
                     "--left", ",".join(["e"] * 33), "--right", ",".join(["f"] * 33)]) == 0
    assert time.perf_counter() - start < 3.0
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert record["name"] == "normal-form" and record["status"] == "pass"


def test_cli_lie_coefficient_specs_are_bounded(capsys):
    for spec in ("sl2:gf:1024", "sl2:gf:2305843009213693951",
                 "sl2:zmod:3400000000000000000000023"):
        start = time.perf_counter()
        assert cli.main(["lie", "validate", "--file", spec]) == 2
        assert time.perf_counter() - start < 2.0, spec
        capsys.readouterr()
    start = time.perf_counter()
    assert cli.main(["lie", "validate", "--file", "sl2:zmod:2305843009213693951"]) == 0
    assert time.perf_counter() - start < 2.0
    capsys.readouterr()


def test_cli_lie_scans_over_a_large_prime_are_charged(tmp_path, capsys):
    """`lie units` scans every scalar, and `lie validate` takes each p-th
    power of a p-map by p repeated products; both are charged against the
    budget before they start.  Uncharged, the first ran past 10 s on
    zmod:1000000007 and the second past 20 s on a dim-1 p-map over
    zmod:1000003."""
    pmap = tmp_path / "abelian1-restricted.json"
    pmap.write_text(json.dumps(
        {"ring": "zmod:1000003", "dim": 1, "brackets": [], "pmap": [[0, [[0, 1]]]]}))
    for argv in (["lie", "units", "--file", "sl2:zmod:1000000007"],
                 ["lie", "validate", "--file", str(pmap)]):
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 1.0, argv
        assert "exceed the budget" in capsys.readouterr().err
    small = tmp_path / "abelian1-restricted-7.json"
    small.write_text(json.dumps(
        {"ring": "zmod:7", "dim": 1, "brackets": [], "pmap": [[0, [[0, 1]]]]}))
    assert cli.main(["lie", "validate", "--file", str(small)]) == 0
    assert cli.main(["lie", "validate", "--file", str(small), "--budget", "6"]) == 2
    capsys.readouterr()


_SPEC_TAILS = st.one_of(
    st.text(max_size=12),
    st.integers(-300, 300).map(str),
    st.integers().map(str),
    st.text("0123456789", min_size=4300, max_size=5000),
)
_SEMIRING_SPECS = st.builds(
    "{}{}".format,
    st.sampled_from(("gf:", "zmod:", "boolean", "tropical", "trivial")), _SPEC_TAILS)
_RING_SPECS = st.one_of(
    st.sampled_from(("Q", "Z")),
    st.builds("{}{}".format, st.sampled_from(("zmod:", "gf:")), _SPEC_TAILS),
    _SPEC_TAILS)
_LIE_SPECS = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(("sl2", "heisenberg")), _RING_SPECS),
    st.builds("abelian{}:{}".format, _SPEC_TAILS, _RING_SPECS))


@given(st.one_of(
    st.builds(lambda spec: ["semiring", "validate", f"--semiring={spec}"],
              _SEMIRING_SPECS),
    st.builds(lambda spec: ["lie", "validate", f"--file={spec}"], _LIE_SPECS)))
@settings(max_examples=100, deadline=timedelta(seconds=20))
def test_cli_spec_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_FLAG_VALUES = st.one_of(
    st.integers(-10, 70).map(str),
    st.integers().map(str),
    st.sampled_from(("", "x", "1.5", "1e3", "0x10", "-", "--", " 7", "\u0663")),
    st.text("0123456789", min_size=4300, max_size=5000),
)
# The budget licenses work, so a budget above the default may run long by
# design; out of range and malformed budgets are drawn, larger ones are not.
_BUDGETS = st.one_of(
    st.integers(-10, 200_000).map(str),
    st.integers(max_value=-1).map(str),
    st.sampled_from(("", "x", "1e3", "2.5")),
    st.text("0123456789", min_size=4301, max_size=5000),
)
_COMMON_FLAGS = ("--cap", "--budget", "--seed", "--degree-cap")
_SMALL_CARRIERS = st.sampled_from(("trivial", "boolean", "zmod:3", "zmod:4", "gf:4"))
_SMALL_LIES = st.sampled_from(("sl2:zmod:3", "heisenberg:zmod:2", "abelian2:gf:4"))
_FLAG_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(("semiring validate", "semiring autgroups", "ibn classify",
                               "ibn agree", "autmorph verify", "autmorph outgroup")),
              st.just("--semiring"), _SMALL_CARRIERS, st.just(_COMMON_FLAGS)),
    st.tuples(st.sampled_from(("autmorph extract", "autmorph normalize",
                               "autmorph extract --random-family",
                               "autmorph normalize --random-family")),
              st.just("--semiring"), _SMALL_CARRIERS, st.just(_COMMON_FLAGS + ("--sigma",))),
    st.tuples(st.sampled_from(("lie validate", "lie units", "lie suite", "lie lift")),
              st.just("--file"), _SMALL_LIES, st.just(_COMMON_FLAGS)),
    st.tuples(st.just("lie basis"), st.just("--file"), _SMALL_LIES,
              st.just(_COMMON_FLAGS + ("--gens",))),
)


@st.composite
def _flag_argv(draw):
    command, carrier_flag, carrier, flags = draw(_FLAG_COMMANDS)
    argv = [*command.split(), carrier_flag, carrier]
    for flag in draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3)):
        value = draw(_BUDGETS if flag == "--budget" else _FLAG_VALUES)
        argv += draw(st.sampled_from(([f"{flag}={value}"], [flag, value])))
    return argv


@given(_flag_argv())
@settings(max_examples=80, deadline=timedelta(seconds=20))
def test_cli_flag_fuzz(argv):
    # out-of-range and malformed numeric flags on carriers of at most four
    # elements end in a report or a usage error, never in a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_cli_restricted_file_flow(tmp_path, capsys):
    data = {
        "name": "heis3", "ring": "zmod:3", "dim": 3,
        "labels": ["x", "y", "z"],
        "brackets": [[0, 1, [[2, 1]]]],
        "pmap": [[2, [[2, 1]]]],
    }
    path = tmp_path / "heis3.json"
    path.write_text(json.dumps(data))
    assert cli.main(["lie", "suite", "--file", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["lie", "mul", "--file", str(path),
                     "--left", "y,x", "--right", "x,x"]) == 0
    capsys.readouterr()
    assert cli.main(["semiring", "autgroups", "--semiring", "gf:4"]) == 0
    capsys.readouterr()
    assert cli.main(["ibn", "agree", "--semiring", "trivial", "--cap", "3"]) == 0
    capsys.readouterr()


# sl2 over zmod:5 with the p-map h^[5] = h (basis order f, h, e)
_RESTRICTED_SL2 = {
    "name": "sl2-restricted", "ring": "zmod:5", "dim": 3,
    "labels": ["f", "h", "e"],
    "brackets": [[0, 1, [[0, 2]]], [0, 2, [[1, 4]]], [1, 2, [[2, 2]]]],
    "pmap": [[0, []], [1, [[1, 1]]], [2, []]],
}


def test_lie_validate_on_a_restricted_file(tmp_path):
    path = tmp_path / "sl2-restricted.json"
    path.write_text(json.dumps(_RESTRICTED_SL2))
    report = run_lie_command("validate", config("lie-suite", lie=str(path), seed=4))
    assert [(r.name, r.regime, r.status) for r in report.records] == [
        ("validate", "exhaustive", "pass"),
        ("restricted-axioms", "sampled", "pass")]
    assert report.records[0].witness == "dim=3 ring=zmod:5 restricted"
    assert report.records[1].seed == 4
    assert report.verdict == "pass"


def test_lie_validate_and_suite_describe_a_restricted_file_alike(tmp_path):
    path = tmp_path / "sl2-restricted.json"
    path.write_text(json.dumps(_RESTRICTED_SL2))
    validated = run_lie_command("validate", config("lie-suite", lie=str(path)))
    suite = run_experiment(config("lie-suite", lie=str(path)))
    assert suite.record("validate") == validated.record("validate")
    assert suite.record("validate").witness == "dim=3 ring=zmod:5 restricted"


def test_lie_basis_on_a_restricted_file_drops_p_powers(tmp_path):
    import itertools

    path = tmp_path / "sl2-restricted.json"
    path.write_text(json.dumps(_RESTRICTED_SL2))
    report = run_lie_command(
        "basis", config("lie-suite", lie=str(path), degree_cap=6), gens=2)
    # exponent vectors of 3 letters with every exponent below p = 5 and
    # total degree at most 6, once per generator
    expected = 2 * sum(
        1 for exps in itertools.product(range(5), repeat=3) if sum(exps) <= 6)
    free = 2 * sum(
        1 for exps in itertools.product(range(7), repeat=3) if sum(exps) <= 6)
    [record] = report.records
    assert (record.name, record.regime, record.status) == ("basis", "exhaustive", "pass")
    witness = json.loads(record.witness)
    assert witness["count"] == expected < free
    assert len(witness["labels"]) == 24


def test_lie_file_coefficient_outside_a_galois_field_exits_2(tmp_path, capsys):
    path = tmp_path / "gf4.json"
    path.write_text(json.dumps({
        "ring": "gf:4", "dim": 2, "brackets": [[0, 1, [[0, 4]]]]}))
    assert cli.main(["lie", "validate", "--file", str(path)]) == 2
    assert "4 is not an element index of gf:4" in capsys.readouterr().err


def test_cli_out_to_an_unwritable_path_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        assert cli.main(["semiring", "validate", "--semiring", "boolean",
                         "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write report {target}: ")
