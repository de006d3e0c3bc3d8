"""Exception types shared across the library."""


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

