import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicat
from semicat import cli
from semicat import semirings as S
from semicat.errors import Check, ConfigError
from semicat.harness import (
    ExperimentConfig,
    Report,
    emit_report,
    load_lie,
    report_from_json,
    run_experiment,
    run_lie_command,
)


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


def test_report_round_trip():
    report = run_experiment(config("ibn", semiring="boolean", cap=3))
    text = emit_report(report)
    assert emit_report(report_from_json(text)) == text


def test_vacuous_pass():
    empty = Report(experiment={"kind": "none"})
    assert empty.verdict == "vacuous-pass"
    data = json.loads(emit_report(empty))
    assert data["verdict"] == "vacuous-pass"


def test_timing_excluded_by_default():
    record = Check(name="n", regime="exhaustive", status="pass",
                   timing_ms=12.5)
    report = Report(experiment={}, records=[record])
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
                 ["autmorph", "verify", "--semiring", "gf:4", "--budget", "-5"]):
        assert cli.main(argv) == 2
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
@settings(max_examples=100, deadline=timedelta(seconds=60))
def test_cli_spec_fuzz(argv):
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
