"""Run one benchmark operation in this (fresh) process and print its result.

Usage: python3 -s -S worker.py '<json spec>'

The spec names the checkout's ``src`` directory, the operation and whether to
trace it.  An ``import_only`` operation stops after the import.  The last line on stdout is one JSON object with the exit code, the
import time of ``semicat.cli``, the operation's work time, the mean time of
a fixed speed probe at import and over the operation, the peak RSS of this
process, the rendered report and, when traced, the spans and counters.
Tracebacks go to stderr, as they would from the ``semicat`` console script.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback


def _render_call_result(result):
    from semicat.matcat import morphism_to_json

    if result is None:
        return "null"
    if isinstance(result, tuple):
        return json.dumps([morphism_to_json(m) for m in result], sort_keys=True)
    return json.dumps(result.to_json(), sort_keys=True)


def _probe_loop():
    # small-int arithmetic only: no allocation, so the heap and the garbage
    # collector state the operation leaves behind do not change its time
    s = 0
    for _ in range(250):
        for j in range(64):
            s = (s * 31 + j) & 255
    return s


def probe_once():
    """Time of one fixed pure-Python loop that does not touch semicat."""
    start = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - start


class SpeedSampler:
    """Times the probe every ``interval`` seconds while the operation runs.

    A timer signal interrupts the operation between two bytecodes; the
    handler runs the probe and records its time, which the caller takes
    out of the operation's time.
    """

    def __init__(self, interval=0.05):
        self.interval = interval
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(probe_once())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _library_call(call):
    from semicat import ibn
    from semicat.semirings import load_semiring

    fn = getattr(ibn, call["fn"])
    result = fn(load_semiring(call["semiring"]), *call["args"], **call["kwargs"])
    return _render_call_result(result)


def _run(op):
    """(exit code, rendered report) of one operation."""
    if "call" in op:
        try:
            return 0, _library_call(op["call"])
        except Exception:  # a library traceback is a failed operation
            traceback.print_exc()
            return 1, ""
    from semicat.cli import main

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(op["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # what the console script would print and exit 1 on
        traceback.print_exc()
        code = 1
    return code, out.getvalue()


def main():
    spec = json.loads(sys.argv[1])
    src = spec["src"]
    sys.path.insert(0, src)
    probe_start = [probe_once() for _ in range(10)]
    with SpeedSampler() as import_sampler:
        start = time.perf_counter()
        import semicat.cli  # noqa: F401  the cold import every CLI run pays
        import_s = time.perf_counter() - start
    import_s -= sum(import_sampler.samples)
    import semicat

    if not os.path.abspath(semicat.__file__).startswith(os.path.abspath(src)):
        print(f"semicat imported from {semicat.__file__}, not {src}",
              file=sys.stderr)
        return 3

    probe_before = [probe_once() for _ in range(10)]
    import_probe_s = statistics.fmean(
        probe_start + import_sampler.samples + probe_before)
    if spec["op"].get("import_only"):
        result = {"exit": 0, "import_s": import_s, "work_s": 0.0,
                  "rss_mb": _peak_rss_mb(), "report": "",
                  "import_probe_s": import_probe_s,
                  "work_probe_s": import_probe_s}
        sys.stdout.write(json.dumps(result) + "\n")
        return 0
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer(spec["op_id"])
        tracer.install()
        tracer.open("op")
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        code, report = _run(spec["op"])
        work_s = time.perf_counter() - start
    work_s -= sum(sampler.samples)
    probe_after = [probe_once() for _ in range(10)]
    result = {
        "exit": code,
        "import_s": import_s,
        "work_s": work_s,
        "rss_mb": _peak_rss_mb(),
        "report": report,
        # The machine's speed at import and over the whole operation.  Its
        # speed flips between states many times a second, and the operation
        # pays the time-weighted mix of them, which the mean estimates.
        "import_probe_s": import_probe_s,
        "work_probe_s": statistics.fmean(
            probe_before + sampler.samples + probe_after),
    }
    if tracer is not None:
        tracer.close_all()
        result["trace"] = tracer.export()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
