"""Brute-force classification of semirings by invariant basis number.

A semiring fails IBN when two free semimodules of different ranks are
isomorphic; the witness is a pair of matrices composing to identities both
ways.  Finite carriers with more than one element always classify as IBN by
a counting argument (|R|^n is injective in n), so the exhaustive search is
kept both as an independent oracle and for the one-element carrier, where
non-trivial types actually occur.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SearchCapExceeded, UnsupportedCarrier
from .matcat import _identity_entries, _mat_mul, from_entries, identity
from .semirings import opposite_semiring

DEFAULT_PAIR_CAP = 50_000_000


@dataclass
class TypeClassification:
    """Either IBN up to the scanned cap, or the first witnessed rank collapse."""

    kind: str  # "ibn" | "type"
    cap: int
    n: int = 0
    h: int = 0
    witness: tuple = None  # (A, B) with A;B = 1 and B;A = 1
    refuted: tuple = ()  # (n, h) pairs checked (and failed) before success
    regime: str = "exhaustive"  # "exhaustive" | "cardinality" | "declared"

    def to_json(self):
        data = {"kind": self.kind, "cap": self.cap, "regime": self.regime}
        if self.kind == "type":
            data.update({"n": self.n, "h": self.h})
        return data


def free_iso_witness(semiring, n, m, search_cap=DEFAULT_PAIR_CAP, shortcut=True):
    """Search for (A: n x m, B: m x n) with A;B and B;A both identities.

    With ``shortcut`` enabled, finite carriers of size > 1 refute n != m by
    cardinality without searching.  The search itself is exhaustive and
    column-separable: A;B = I_n holds exactly when column t of B solves
    A b_t = e_t, so for each A (in column-major odometer order) the |R|^m
    column vectors are sorted into the columns they solve, and B;A = I_m is
    tested only on the product of those solution lists, in odometer order.
    The first witness is the one a scan over every (A, B) pair would find.
    ``search_cap`` caps the steps: one per column vector tried and one per
    B;A check.  Going over it raises SearchCapExceeded.
    """
    if n < 1 or m < 1:
        raise UnsupportedCarrier("witness search needs positive ranks")
    R = semiring
    if n == m:
        return identity(R, n), identity(R, m)
    if not R.is_finite:
        if shortcut and R.declared_ibn:
            return None
        raise UnsupportedCarrier(
            f"no exhaustive search over the infinite carrier {R.name}")
    if shortcut and R.size > 1:
        # |R|^n elements in the rank-n free semimodule; unequal sizes cannot
        # be isomorphic.
        return None
    vectors = list(itertools.product(R.elements(), repeat=m))
    by_column = tuple(zip(*vectors))  # m x |R|^m, column k is vectors[k]
    units, target = _identity_entries(R, n), _identity_entries(R, m)
    steps = 0
    for a in _column_major_matrices(R, n, m):
        steps += len(vectors)
        if steps > search_cap:
            raise SearchCapExceeded(f"the witness search exceeds its cap of {search_cap} steps")
        images = tuple(zip(*_mat_mul(R, a, by_column, len(vectors))))
        # one vector solves several columns when 0 = 1
        solutions = [[v for v, image in zip(vectors, images) if image == e] for e in units]
        for columns in itertools.product(*solutions):
            steps += 1
            if steps > search_cap:
                raise SearchCapExceeded(f"the witness search exceeds its cap of {search_cap} steps")
            b = tuple(zip(*columns))
            if _mat_mul(R, b, a, m) == target:
                return (
                    from_entries(R, a, dom=n, cod=m),
                    from_entries(R, b, dom=m, cod=n),
                )
    return None


def _column_major_matrices(R, rows, cols):
    elements = list(R.elements())
    for flat in itertools.product(elements, repeat=rows * cols):
        # flat[j * rows + i] fills column j from top to bottom
        yield tuple(
            tuple(flat[j * rows + i] for j in range(cols)) for i in range(rows))


def classify_type(semiring, cap, search_cap=DEFAULT_PAIR_CAP, shortcut=True):
    """Scan (n, n+h) pairs in lexicographic (n, h) order up to the rank cap."""
    if cap < 2:
        raise UnsupportedCarrier("classification needs cap >= 2")
    R = semiring
    if not R.is_finite:
        if R.declared_ibn:
            return TypeClassification(kind="ibn", cap=cap, regime="declared")
        raise UnsupportedCarrier(
            f"{R.name} has neither tables nor a declared classification")
    refuted = []
    regime = "exhaustive" if (not shortcut or R.size == 1) else "cardinality"
    for n in range(1, cap):
        for h in range(1, cap - n + 1):
            witness = free_iso_witness(R, n, n + h, search_cap, shortcut)
            if witness is not None:
                a, b = witness
                if not (a.then(b).is_identity() and b.then(a).is_identity()):
                    raise AssertionError("witness failed its own re-check")
                return TypeClassification(
                    kind="type", cap=cap, n=n, h=h, witness=witness,
                    refuted=tuple(refuted), regime=regime)
            refuted.append((n, h))
    return TypeClassification(
        kind="ibn", cap=cap, refuted=tuple(refuted), regime=regime)


@dataclass
class LeftRightReport:
    left: TypeClassification
    right: TypeClassification

    @property
    def agree(self):
        if self.left.kind != self.right.kind:
            return False
        if self.left.kind == "type":
            return (self.left.n, self.left.h) == (self.right.n, self.right.h)
        return self.left.cap == self.right.cap

    def to_json(self):
        return {
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "agree": self.agree,
        }


def left_right_ibn_agree(semiring, cap, search_cap=DEFAULT_PAIR_CAP, shortcut=True):
    """Classify over R and over its opposite; the classifications must agree."""
    left = classify_type(semiring, cap, search_cap, shortcut)
    right = classify_type(opposite_semiring(semiring), cap, search_cap, shortcut)
    return LeftRightReport(left=left, right=right)

