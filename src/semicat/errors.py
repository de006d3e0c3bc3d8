"""Exception types and the record classes shared across the library."""

import json
import time

from . import __version__


def _json_data(value):
    """value as JSON data: a record as its ``to_json()``, a tuple as a list."""
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_json_data(v) for v in value]
    return value


class Record:
    """Base of the library's plain record classes.

    A subclass lists its fields in ``__slots__``, in constructor order, and
    sets them in its own ``__init__``.  Two records of the same class are
    equal when their fields are, and show as ``Name(field=value, ...)``.
    ``to_json()`` writes the fields and then the attributes that a class
    names in ``_json_extra``, such as derived properties.
    """

    __slots__ = ()
    _json_extra = ()

    @classmethod
    def _fields(cls):
        return tuple(
            name for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ()))

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields(), self._values()))
        return f"{type(self).__name__}({fields})"

    def to_json(self):
        return {name: _json_data(getattr(self, name))
                for name in self._fields() + self._json_extra}


class FrozenRecord(Record):
    """A read-only, hashable record; ``__init__`` sets its fields through
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a read-only record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a read-only record")

    def __hash__(self):
        return hash(self._values())


class Check(Record):
    """One regime-labelled claim: what was checked, how, and the outcome.

    ``checked`` counts the cases examined and stays out of the JSON, as does
    ``timing_ms`` unless asked for; ``seed`` is written only for a sampled
    regime, the only one it affects.
    """

    __slots__ = ("name", "regime", "status", "witness", "checked", "seed", "timing_ms")

    def __init__(self, name, regime, status, witness=None, checked=0, seed=None,
                 timing_ms=None):
        self.name = name
        self.regime = regime
        self.status = status
        self.witness = witness
        self.checked = checked
        self.seed = seed
        self.timing_ms = timing_ms

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self, include_timing=False):
        data = {
            "name": self.name,
            "regime": self.regime,
            "status": self.status,
            "witness": self.witness,
        }
        if self.regime == "sampled":
            data["seed"] = self.seed
        if include_timing and self.timing_ms is not None:
            data["timing_ms"] = self.timing_ms
        return data


_CHECK_FIELD_TYPES = {
    "name": str, "regime": str, "status": str, "witness": (str, type(None)),
    "seed": (int, type(None)), "timing_ms": (int, float, type(None)),
}


class VerificationReport(Record):
    """The checks made on one subject: the one report type, which the runners
    fill, the CLI prints and ``report show`` reads back, and the one way to
    record a check.

    ``seed`` is the seed of the run; a check records it only in the sampled
    regime, the only one it affects.  ``version`` is the semicat version that
    wrote the report.  ``to_json`` and ``from_json`` are the report format.
    """

    __slots__ = ("subject", "records", "seed", "version")

    def __init__(self, subject, records=None, seed=None, version=__version__):
        self.subject = subject
        self.records = [] if records is None else records
        self.seed = seed
        self.version = version

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    @property
    def verdict(self):
        if not self.records:
            return "vacuous-pass"
        return "pass" if self.passed else "fail"

    def to_json(self, include_timing=False):
        return {
            "experiment": self.subject,
            "records": [r.to_json(include_timing) for r in self.records],
            "verdict": self.verdict,
            "version": self.version,
        }

    @classmethod
    def from_json(cls, text):
        """The report that ``to_json`` wrote as JSON ``text``, without the
        case counts and the run's seed, which the JSON does not carry.
        Raises ParseError on text that is not such a report."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad report JSON: {exc}") from exc
        try:
            report = cls(
                data["experiment"],
                [Check(r["name"], r["regime"], r["status"], r.get("witness"),
                       seed=r.get("seed"), timing_ms=r.get("timing_ms"))
                 for r in data["records"]],
                version=data.get("version", __version__))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"not a report object: {exc!r}") from exc
        for r in report.records:
            for field_name, types in _CHECK_FIELD_TYPES.items():
                value = getattr(r, field_name)
                if not isinstance(value, types) or isinstance(value, bool):
                    raise ParseError(
                        f"record field {field_name!r} has the wrong type: {value!r}")
        return report

    def record(self, name):
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def add(self, name, regime, passed, witness=None, checked=0, timing_ms=None):
        """Record one check.  A witness that is not text is written as
        canonical JSON (sorted keys; a record as its ``to_json()``)."""
        if witness is not None and not isinstance(witness, str):
            witness = json.dumps(_json_data(witness), sort_keys=True)
        self.records.append(Check(
            name, regime, "pass" if passed else "fail", witness, checked,
            self.seed if regime == "sampled" else None, timing_ms))

    def run(self, name, regime, body):
        """Record a timed ``body()``: a pass with its text witness, if any, or
        a fail naming the SemicatError it raised."""
        start = time.perf_counter()
        try:
            witness = body()
        except SemicatError as exc:
            passed, witness = False, f"{type(exc).__name__}: {exc}"
        else:
            passed = True
            witness = witness if isinstance(witness, str) else None
        self.add(name, regime, passed, witness,
                 timing_ms=round((time.perf_counter() - start) * 1000.0, 3))

    def extend(self, prefix, checks):
        """Record checks made elsewhere, as ``prefix:name``, with this seed."""
        for c in checks:
            self.add(f"{prefix}:{c.name}", c.regime, c.passed, c.witness, c.checked,
                     c.timing_ms)


class SemicatError(Exception):
    """Base class for all library errors."""


class AxiomViolation(SemicatError):
    """An algebraic axiom failed; carries the axiom name and a witness tuple."""

    def __init__(self, axiom, witness, message=""):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message or f"axiom {axiom!r} fails at witness {witness!r}")


class IndexOutOfRange(SemicatError):
    pass


class UnsupportedCarrier(SemicatError):
    pass


class SizeLimitExceeded(SemicatError):
    pass


class DimensionMismatch(SemicatError):
    pass


class SemiringMismatch(SemicatError):
    pass


class ZeroRank(SemicatError):
    pass


class SearchCapExceeded(SemicatError):
    """The search space exceeded its budget; the question remains undecided."""


class MissingIso(SemicatError):
    pass


class NonInvertibleFamily(SemicatError):
    pass


class NotAnAutomorphism(SemicatError):
    pass


class InjectionsNotFixed(SemicatError):
    pass


class NonInvertibleStack(SemicatError):
    pass


class DegreeCapExceeded(SemicatError):
    pass


class NotBracketPreserving(SemicatError):
    def __init__(self, witness, message=""):
        self.witness = witness
        super().__init__(message or f"bracket not preserved at {witness!r}")


class JacobiViolation(SemicatError):
    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails at {triple}, residual {residual!r}")


class AntisymmetryViolation(SemicatError):
    def __init__(self, index, message=""):
        self.index = index
        super().__init__(message or f"antisymmetry fails at basis index {index}")


class ConfigError(SemicatError):
    pass


class ParseError(SemicatError):
    pass

