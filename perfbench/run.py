"""semicat benchmark runner.

    python3 perfbench/run.py --workload functor-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0

Run it from the root of a semicat checkout.  Load shape: a closed loop with
one client.  Each operation (one report, see ``workloads.py``) runs in a
fresh Python worker, so every report pays the cold import and cold caches a
CLI invocation pays; at most one worker is alive at a time.  A run first
runs each known defect once and ``SETUP_SAMPLES`` import-only workers, then
cycles through the workload's other operations, after one full pass only
while the next one would still end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics (``work_s``, ``setup_s``,
``peak_rss_mb``); the two times are scaled to a reference machine speed
measured by a probe in each worker (see ``scaled``).  ``--trace 1`` runs each
operation untraced and then traced and reports the per-layer metrics of the
traced passes, with the tracing overhead.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(Python version, git SHA, nproc, seed, operations, per-operation times) and,
when traced, the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import EXCLUDED, WORKLOADS, check_report, operations, write_inputs  # noqa: E402

OUT = BENCH / "out"
OP_TIMEOUT_S = 90.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s

SETUP_SAMPLES = 16  # import-only workers per run
IMPORT_ONLY = {"id": "import semicat.cli", "import_only": True, "exit": 0,
               "expect": {}, "known_failure": None}

# A worker's speed probe (``worker.probe_once``) takes about this long on
# the machine where the benchmark was defined (an Intel Xeon at 2.1 GHz).
REF_PROBE_S = 0.001


def metric_units(kind):
    """{metric name: unit} of the ``end_to_end`` or ``per_layer`` metrics."""
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[kind]}


def git_sha(root):
    """HEAD of the checkout read from .git without leaving it, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_op(root, op, op_id, trace, timeout):
    """Run one operation in a fresh worker; returns its timing and failures.

    An operation fails when it exits with another code than expected,
    prints a traceback, runs past ``timeout``, or its report disagrees with
    the expected seed-independent values.  The report is checked whatever
    the exit code, so a report whose verdict is ``fail`` (exit 1) shows
    which value is wrong.
    """
    spec = {"src": str(root / "src"), "op": op, "op_id": op_id, "trace": trace}
    cmd = [sys.executable, "-s", "-S", str(BENCH / "worker.py"), json.dumps(spec)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    out = {"id": op["id"], "op_id": op_id, "traced": bool(trace),
           "known_failure": bool(op["known_failure"])}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        out.update(wall_s=time.perf_counter() - start,
                   failures=[f"timeout after {timeout:.0f} s"])
        return out
    out["wall_s"] = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        out["failures"] = [
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        return out
    failures = []
    if result["exit"] != op["exit"]:
        failures.append(f"exit {result['exit']}, expected {op['exit']}")
    if "Traceback (most recent call last)" in proc.stderr:
        failures.append("traceback: " + proc.stderr.strip().splitlines()[-1])
    failures.extend(check_report(op, result["report"]))
    out.update(exit=result["exit"], import_s=result["import_s"],
               work_s=result["work_s"], rss_mb=result["rss_mb"],
               import_probe_s=result["import_probe_s"],
               work_probe_s=result["work_probe_s"],
               failures=failures)
    if "trace" in result:
        out["trace"] = result["trace"]
    return out


def layer_metrics(results):
    """Per-layer metrics of one traced pass, summed over its operations."""
    calls, self_s, hot, hot_s, counters = {}, {}, {}, {}, {}
    for r in results:
        t = r.get("trace")
        if t is None:
            continue
        for total, part in ((calls, t["calls"]), (self_s, t["self_s"]),
                            (hot, t["hot"]), (hot_s, t["hot_s"]),
                            (counters, t["counters"])):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("then", "add", "eq"):
        m[f"matcat.{name}.calls"] = hot.get(f"matcat.{name}", 0)
        m[f"matcat.{name}.s"] = hot_s.get(f"matcat.{name}", 0.0)
    m["matcat.new.calls"] = hot.get("matcat.new", 0)
    m["matcat.functor_evals"] = hot.get("matcat.functor_evals", 0)
    inv = "matcat.invertible_morphisms"
    m[f"{inv}.calls"] = calls.get(inv, 0)
    m[f"{inv}.self_s"] = self_s.get(inv, 0.0)
    m[f"{inv}.candidates"] = counters.get(f"{inv}.candidates", 0)
    m[f"{inv}.hit_ratio"] = ratio(counters.get(f"{inv}.hits", 0), calls.get(inv, 0))
    m["matcat.invert.calls"] = calls.get("matcat.invert", 0)
    m["matcat.invert.self_s"] = self_s.get("matcat.invert", 0.0)
    for name in ("verify_functor", "extract_sigma", "normalize_injections"):
        m[f"autfunctors.{name}.self_s"] = self_s.get(f"autfunctors.{name}", 0.0)
    m["autfunctors.law_checks"] = counters.get("autfunctors.law_checks", 0)
    m["autfunctors.inner_witness.calls"] = calls.get("autfunctors.inner_witness", 0)
    m["autfunctors.inner_witness.undecided"] = counters.get(
        "autfunctors.inner_witness.undecided", 0)
    m["semirings.ops"] = hot.get("semirings.ops", 0)
    aut = "semirings.automorphism_groups"
    m[f"{aut}.self_s"] = self_s.get(aut, 0.0)
    m[f"{aut}.candidates"] = counters.get(f"{aut}.candidates", 0)
    m["semirings.find_axiom_witness.self_s"] = self_s.get(
        "semirings.find_axiom_witness", 0.0)
    m["ibn.free_iso_witness.self_s"] = self_s.get("ibn.free_iso_witness", 0.0)
    m["ibn.pair_space"] = counters.get("ibn.pair_space", 0)
    m["lie.multiply.calls"] = calls.get("lie.multiply", 0)
    m["lie.multiply.self_s"] = self_s.get("lie.multiply", 0.0)
    m["lie.normal_form_word.calls"] = hot.get("lie.normal_form_word", 0)
    m["lie.nf_cache.hit_ratio"] = ratio(counters.get("lie.nf_cache.hits", 0),
                                        hot.get("lie.normal_form_word", 0))
    m["lie.multiply_by_word_rewriting.self_s"] = self_s.get(
        "lie.multiply_by_word_rewriting", 0.0)
    m["lie.coeff_ops"] = hot.get("lie.coeff_ops", 0)
    m["harness.run.self_s"] = sum(self_s.get(f"harness.{name}", 0.0) for name in (
        "run_experiment", "run_autmorph_flow", "run_lie_command"))
    m["harness.emit_report.self_s"] = self_s.get("harness.emit_report", 0.0)
    m["harness.report_bytes"] = counters.get("harness.report_bytes", 0)
    m["cli.import_s"] = statistics.median(
        r["import_s"] for r in results if "import_s" in r)
    return m


def scaled(seconds, probe_s):
    """``seconds`` measured while the speed probe took ``probe_s``, at the
    reference speed.

    Other tenants of a shared machine slow the whole CPU by up to 1.7x for
    seconds to minutes at a time, in CPU time as much as in wall time.  The
    worker times a fixed loop that does not touch semicat before, during and
    after the operation; dividing by it removes the machine's speed at that
    moment and leaves the operation's own cost.
    """
    return seconds * REF_PROBE_S / probe_s


def pass_work(results):
    return sum(scaled(r["work_s"], r["work_probe_s"])
               for r in results if "work_probe_s" in r)


def op_work(results):
    """Sum over the operations of each one's median scaled time in the run."""
    times = {}
    for r in results:
        times.setdefault(r["id"], []).append(
            scaled(r["work_s"], r["work_probe_s"]))
    return sum(statistics.median(t) for t in times.values())


def fastest_work(results):
    """Sum over the operations of each one's fastest unscaled time."""
    fastest = {}
    for r in results:
        fastest[r["id"]] = min(fastest.get(r["id"], r["work_s"]), r["work_s"])
    return sum(fastest.values())


def complete_passes(results, n):
    return [results[k:k + n] for k in range(0, len(results) - n + 1, n)]


def run_workload(root, workload, seed, seconds, trace):
    """All passes of one run; returns (result line, full record)."""
    OUT.mkdir(exist_ok=True)
    write_inputs(str(OUT))
    ops = operations(workload, seed, str(OUT))
    timed = [op for op in ops if not op["known_failure"]]
    op_ids = itertools.count()
    # A known defect runs once, before the timed loop, and is reported on its
    # own: it is not a timed operation and does not count as attempted.
    defects = [run_op(root, op, next(op_ids), 0, OP_TIMEOUT_S)
               for op in ops if op["known_failure"]]
    # Import-only workers, so that setup_s is a median of many cold imports
    # even on a workload whose operations are few and long.
    setup = [run_op(root, IMPORT_ONLY, next(op_ids), 0, OP_TIMEOUT_S)
             for _ in range(SETUP_SAMPLES)]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # Cycle through the operations, each one untraced and, in a traced run,
    # then traced, until the next one would end after ``seconds``.
    untraced, traced = [], []
    longest = [0.0] * len(timed)
    while True:
        i = len(untraced) % len(timed)
        slot_start = time.monotonic()
        if slot_start >= deadline or (
                len(untraced) >= len(timed)
                and slot_start - start + longest[i] > seconds):
            break
        for mode in range(1 + trace):
            timeout = max(0.0, min(OP_TIMEOUT_S, deadline - time.monotonic()))
            (traced if mode else untraced).append(
                run_op(root, timed[i], next(op_ids), mode, timeout))
        longest[i] = max(longest[i], time.monotonic() - slot_start)

    results = setup + untraced + traced
    attempted = len(results)
    failed = sum(bool(r["failures"]) for r in results)
    passes = complete_passes(untraced, len(timed))
    # operations whose worker returned a result; the others failed
    done = [r for r in untraced if "work_probe_s" in r]
    imported = [r for r in setup + untraced if "import_probe_s" in r]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "git_sha": git_sha(root),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "operations": [{k: op[k] for k in ("id", "argv", "call", "exit",
                                           "known_failure")
                        if k in op} for op in ops],
        "excluded": EXCLUDED,
        "setup_samples": len(setup),
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "known_defects": [{"id": r["id"], "failures": r["failures"],
                           "reproduces": bool(r["failures"])}
                          for r in defects],
        "work_s_per_pass": [pass_work(p) for p in passes],
        "work_s_unscaled": fastest_work(done),
        "op_results": [{k: v for k, v in r.items() if k != "trace"}
                       for r in defects + results],
    }
    if trace:
        units = metric_units("per_layer")
        traced_passes = complete_passes(traced, len(timed))
        layers = [layer_metrics(p) for p in traced_passes]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in units if name != "trace.overhead"}
        metrics["trace.overhead"] = statistics.median(
            pass_work(t) / pass_work(u) for u, t in zip(passes, traced_passes))
        record["trace_overhead"] = metrics["trace.overhead"]
        record["missing_boundaries"] = sorted({
            b for r in traced for b in r.get("trace", {}).get("missing", ())})
        with open(OUT / f"{workload}-seed{seed}-spans.json", "w") as fh:
            json.dump([{"op_id": r["op_id"], "id": r["id"],
                        "spans": r["trace"]["spans"]}
                       for r in traced if "trace" in r], fh)
    else:
        units = metric_units("end_to_end")
        metrics = {
            "work_s": op_work(done),
            "setup_s": statistics.median(
                scaled(r["import_s"], r["import_probe_s"]) for r in imported)
            if imported else 0.0,
            "peak_rss_mb": max((r["rss_mb"] for r in done), default=0.0),
        }
        record["trace_overhead"] = None  # measured by --trace 1 runs only
    record["metrics"] = metrics
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    line = {
        # a failed operation means the program's output is wrong
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return line, record


def print_summary(workload, line, record):
    for r in record["op_results"]:
        if r["failures"] and not r["known_failure"]:
            print(f"{workload}: FAILED {r['id']}: {'; '.join(r['failures'])}")
    for d in record["known_defects"]:
        if d["reproduces"]:
            print(f"{workload}: known defect still present: {d['id']}: "
                  f"{'; '.join(d['failures'])}")
        else:
            print(f"{workload}: known defect no longer reproduces: {d['id']}")
    for name, metric in line["metrics"].items():
        print(f"{workload}: {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload}: failed_frac {record['failed_frac']:.6g} frac "
          f"({line['failed']}/{line['attempted']})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "semicat" / "cli.py").is_file():
        print(f"error: {root} is not a semicat checkout (no src/semicat/cli.py)",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        line, record = run_workload(root, name, args.seed, args.seconds,
                                    args.trace)
        print_summary(name, line, record)
        lines[name] = line
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
