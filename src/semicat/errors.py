"""Exception types and the check record shared across the library."""

from dataclasses import dataclass, field


@dataclass
class Check:
    """One regime-labelled claim: what was checked, how, and the outcome.

    ``checked`` counts the cases examined and stays out of the JSON, as does
    ``timing_ms`` unless asked for; ``seed`` is written only for a sampled
    regime, the only one it affects.
    """

    name: str
    regime: str
    status: str
    witness: str = None
    checked: int = 0
    seed: int = None
    timing_ms: float = None

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


@dataclass
class VerificationReport:
    """The checks made on one subject."""

    subject: str
    records: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def record(self, name):
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


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


class CapMismatch(SemicatError):
    pass


class EquivalenceViolation(SemicatError):
    def __init__(self, witness, message=""):
        self.witness = witness
        super().__init__(message or f"equivalence violated, witness {witness!r}")


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

