"""Wrappers that trace calls into semicat's layers from outside the program.

Coarse boundaries get one span per call: name, start, end, parent span and
operation id.  Hot boundaries (millions of calls on one report) get no span;
they bump a counter, and the timed ones add their duration to a total.  Each
span carries the hot counts and times that happened under it and not under a
child span, which gives one count-and-time total per parent span.

Every wrapper is installed on every binding of the wrapped name inside the
``semicat`` package: ``harness`` and ``autfunctors`` take functions with
``from ... import``, so patching only the defining module would record
nothing.  A boundary that no longer exists is listed in ``missing`` and its
metrics read zero.
"""

from __future__ import annotations

import inspect
import math
import sys
import time

perf_counter = time.perf_counter

# Hot boundaries: (name, module, class, method, timed).  The name is the
# per-layer metric prefix.  Timed totals are inclusive of nested hot calls.
HOT = (
    ("matcat.then", "semicat.matcat", "Morphism", "then", True),
    ("matcat.add", "semicat.matcat", "Morphism", "__add__", True),
    ("matcat.eq", "semicat.matcat", "Morphism", "__eq__", True),
    ("matcat.new", "semicat.matcat", "Morphism", "__init__", False),
    ("matcat.functor_evals", "semicat.matcat", "BlackBoxFunctor",
     "on_morphism", False),
    ("semirings.ops", "semicat.semirings", "FiniteSemiring", "add", False),
    ("semirings.ops", "semicat.semirings", "FiniteSemiring", "mul", False),
    ("lie.coeff_ops", "semicat.lie", "CoefficientRing", "add", False),
    ("lie.coeff_ops", "semicat.lie", "CoefficientRing", "mul", False),
)
HOT_NAMES = tuple(dict.fromkeys(h[0] for h in HOT)) + ("lie.normal_form_word",)

# Coarse boundaries: (span name, module, class or None, function).
SPANS = (
    ("matcat.invertible_morphisms", "semicat.matcat", None,
     "invertible_morphisms"),
    ("matcat.invert", "semicat.matcat", None, "invert"),
    ("autfunctors.verify_functor", "semicat.autfunctors", None,
     "verify_functor"),
    ("autfunctors.extract_sigma", "semicat.autfunctors", None, "extract_sigma"),
    ("autfunctors.normalize_injections", "semicat.autfunctors", None,
     "normalize_injections"),
    ("autfunctors.inner_witness", "semicat.autfunctors", None, "inner_witness"),
    ("semirings.automorphism_groups", "semicat.semirings", None,
     "automorphism_groups"),
    ("semirings.find_axiom_witness", "semicat.semirings", None,
     "find_axiom_witness"),
    ("ibn.free_iso_witness", "semicat.ibn", None, "free_iso_witness"),
    ("lie.multiply", "semicat.lie", "UniversalEnvelope", "multiply"),
    ("lie.multiply_by_word_rewriting", "semicat.lie", None,
     "multiply_by_word_rewriting"),
    ("harness.run_experiment", "semicat.harness", None, "run_experiment"),
    ("harness.run_autmorph_flow", "semicat.harness", None, "run_autmorph_flow"),
    ("harness.run_lie_command", "semicat.harness", None, "run_lie_command"),
    ("harness.emit_report", "semicat.harness", None, "emit_report"),
)


def _rebind(original, wrapper):
    """Replace every module-level binding of ``original`` in the package."""
    for name, module in list(sys.modules.items()):
        if name != "semicat" and not name.startswith("semicat."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Spans and counters of one operation, kept in memory until export."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []  # [name, start, end, parent, hot counts, hot secs]
        self.stack = []
        self.hot = [0] * len(HOT_NAMES)
        self.hot_s = [0.0] * len(HOT_NAMES)
        self.counters = dict.fromkeys((
            "autfunctors.law_checks", "autfunctors.inner_witness.undecided",
            "matcat.invertible_morphisms.candidates",
            "matcat.invertible_morphisms.hits",
            "semirings.automorphism_groups.candidates", "ibn.pair_space",
            "lie.nf_cache.hits", "harness.report_bytes"), 0)
        self.missing = []
        self._seen_invertible = set()
        self._seen_words = set()
        self._envelopes = {}  # keeps ids in _seen_words from being reused

    # -- spans

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent,
                           list(self.hot), list(self.hot_s)])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        span = self.spans[index]
        span[2] = perf_counter()
        span[4] = [now - then for now, then in zip(self.hot, span[4])]
        span[5] = [now - then for now, then in zip(self.hot_s, span[5])]
        self.stack.pop()

    def close_all(self):
        while self.stack:
            self.close(self.stack[-1])

    # -- installation

    def install(self):
        for name, module, cls, method, timed in HOT:
            self._install_hot(HOT_NAMES.index(name), module, cls, method, timed)
        self._install_normal_form_word()
        for name, module, cls, fn in SPANS:
            self._install_span(name, module, cls, fn)

    def _resolve(self, module, cls, attr):
        owner = sys.modules.get(module)
        if owner is not None and cls is not None:
            owner = getattr(owner, cls, None)
        target = getattr(owner, attr, None) if owner is not None else None
        if target is None:
            self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
        return owner, target

    def _install_hot(self, slot, module, cls, method, timed):
        base, _ = self._resolve(module, cls, method)
        if base is None or not isinstance(base, type):
            return
        hot, hot_s = self.hot, self.hot_s
        for klass in _subclasses(base):
            original = vars(klass).get(method)
            if original is None:
                continue
            if timed:
                wrapper = _timed(original, slot, hot, hot_s)
            else:
                wrapper = _counted(original, slot, hot)
            setattr(klass, method, wrapper)

    def _install_normal_form_word(self):
        klass, original = self._resolve(
            "semicat.lie", "UniversalEnvelope", "normal_form_word")
        if original is None:
            return
        slot = HOT_NAMES.index("lie.normal_form_word")
        hot, counters = self.hot, self.counters
        seen, envelopes = self._seen_words, self._envelopes

        def normal_form_word(envelope, word):
            hot[slot] += 1
            key = (id(envelope), word)
            if key in seen:
                counters["lie.nf_cache.hits"] += 1
            else:
                envelopes.setdefault(id(envelope), envelope)
                seen.add(key)
            return original(envelope, word)

        klass.normal_form_word = normal_form_word

    def _install_span(self, name, module, cls, fn):
        owner, original = self._resolve(module, cls, fn)
        if original is None:
            return
        after = getattr(self, "_after_" + name.split(".")[-1], None)
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index)
                if after is not None:
                    after(signature.bind(*args, **kwargs).arguments, None, exc)
                raise
            tracer.close(index)
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result, None)
            return result

        if cls is None:
            _rebind(original, wrapper)
        else:
            setattr(owner, fn, wrapper)

    # -- counters computed from the arguments and results of coarse calls

    def _after_verify_functor(self, args, result, exc):
        if exc is None:
            self.counters["autfunctors.law_checks"] += sum(
                r.checked for r in result.records)

    def _after_invertible_morphisms(self, args, result, exc):
        if exc is not None:
            return
        semiring, n = args["semiring"], args["n"]
        key = (semiring.key(), n)
        if key in self._seen_invertible:
            self.counters["matcat.invertible_morphisms.hits"] += 1
        else:
            self._seen_invertible.add(key)
            self.counters["matcat.invertible_morphisms.candidates"] += (
                semiring.size ** (n * n))

    def _after_inner_witness(self, args, result, exc):
        from semicat.errors import SearchCapExceeded

        if isinstance(exc, SearchCapExceeded):
            self.counters["autfunctors.inner_witness.undecided"] += 1

    def _after_automorphism_groups(self, args, result, exc):
        if exc is None:
            semiring = args["semiring"]
            movable = semiring.size - len({semiring.zero, semiring.one})
            self.counters["semirings.automorphism_groups.candidates"] += (
                math.factorial(movable))

    def _after_free_iso_witness(self, args, result, exc):
        semiring, n, m = args["semiring"], args["n"], args["m"]
        shortcut = args.get("shortcut", True)
        if (exc is None and n != m and semiring.is_finite
                and not (shortcut and semiring.size > 1)):
            self.counters["ibn.pair_space"] += semiring.size ** (2 * n * m)

    def _after_emit_report(self, args, result, exc):
        if exc is None:
            self.counters["harness.report_bytes"] += len(result.encode())

    # -- export

    def export(self):
        """Spans with their own hot totals, and per-name aggregates."""
        spans = []
        calls, self_s = {}, {}
        child_s = [0.0] * len(self.spans)
        child_hot = [[0] * len(HOT_NAMES) for _ in self.spans]
        child_hot_s = [[0.0] * len(HOT_NAMES) for _ in self.spans]
        for name, start, end, parent, hot, hot_s in self.spans:
            if parent is not None:
                child_s[parent] += end - start
                for k in range(len(HOT_NAMES)):
                    child_hot[parent][k] += hot[k]
                    child_hot_s[parent][k] += hot_s[k]
        for index, (name, start, end, parent, hot, hot_s) in enumerate(
                self.spans):
            own = {
                HOT_NAMES[k]: [hot[k] - child_hot[index][k],
                               hot_s[k] - child_hot_s[index][k]]
                for k in range(len(HOT_NAMES)) if hot[k] != child_hot[index][k]}
            spans.append({"name": name, "start": start, "end": end,
                          "parent": parent, "op": self.op_id, "hot": own})
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[index]
        return {
            "spans": spans,
            "calls": calls,
            "self_s": self_s,
            "hot": dict(zip(HOT_NAMES, self.hot)),
            "hot_s": dict(zip(HOT_NAMES, self.hot_s)),
            "counters": dict(self.counters),
            "missing": self.missing,
        }


def _counted(original, slot, hot):
    def wrapper(*args, **kwargs):
        hot[slot] += 1
        return original(*args, **kwargs)

    return wrapper


def _timed(original, slot, hot, hot_s):
    active = [False]

    def wrapper(*args, **kwargs):
        hot[slot] += 1
        if active[0]:
            return original(*args, **kwargs)
        active[0] = True
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            hot_s[slot] += perf_counter() - start
            active[0] = False

    return wrapper
