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

from .errors import Record, SearchCapExceeded, UnsupportedCarrier
from .matcat import _mat_mul, from_entries, identity
from .semirings import opposite_semiring

DEFAULT_PAIR_CAP = 50_000_000


class TypeClassification(Record):
    """Either IBN up to the scanned cap, or the first witnessed rank collapse."""

    __slots__ = ("kind", "cap", "n", "h", "witness", "refuted", "regime")

    def __init__(self, kind, cap, n=0, h=0, witness=None, refuted=(),
                 regime="exhaustive"):
        self.kind = kind  # "ibn" | "type"
        self.cap = cap
        self.n = n
        self.h = h
        self.witness = witness  # (A, B) with A;B = 1 and B;A = 1
        # (n, h) pairs searched (and failed) before success; none by cardinality
        self.refuted = refuted
        self.regime = regime  # "exhaustive" | "cardinality" | "declared"

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
    A b_t = e_t, and B;A = I_m exactly when row j of B solves u A = e_j.  For
    each A (in column-major odometer order) the solutions of both are the
    ANDs of bitmasks: for each vector r, the vectors v with r.v = c, made once
    per r.  When some row has no solution no B exists for this A; otherwise
    the product of the column solution lists is walked in odometer order and
    the first B whose rows all solve is the witness.  That is the first
    witness a scan over every (A, B) pair would find.  ``search_cap`` caps the
    steps: one per A scanned and one per B walked.  Going over it raises
    SearchCapExceeded.
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
    # A: n x m and B: m x n.  ``columns`` solves A b = e_t for the columns b
    # of B, one equation a_i . b per row a_i of A; ``rows`` solves u A = e_j
    # for the rows u of B, one equation u . a^t per column a^t of A.
    columns, rows = _DotMasks(R, m), _DotMasks(R, n, vector_left=True)
    steps = 0
    for a in _column_major_matrices(R, n, m):
        steps += 1
        if steps > search_cap:
            raise SearchCapExceeded(f"the witness search exceeds its cap of {search_cap} steps")
        solutions = [columns.vectors_of(columns.solve(a, t)) for t in range(n)]
        if not all(solutions):
            continue
        a_t = tuple(zip(*a))
        admissible = [rows.solve(a_t, j) for j in range(m)]
        if not all(admissible):
            continue  # every B;A check on this A would fail
        for cols in itertools.product(*solutions):
            steps += 1
            if steps > search_cap:
                raise SearchCapExceeded(f"the witness search exceeds its cap of {search_cap} steps")
            b = tuple(zip(*cols))
            if all(mask >> rows.index[u] & 1 for mask, u in zip(admissible, b)):
                return (
                    from_entries(R, a, dom=n, cod=m),
                    from_entries(R, b, dom=m, cod=n),
                )
    return None


class _DotMasks:
    """For each vector r in R^k, the bitmask (bit i for ``vectors[i]``) of
    the v in R^k with r . v = c, one mask per value c; made on first use.
    With ``vector_left`` the product is v . r instead, which differs on a
    noncommutative carrier."""

    def __init__(self, R, k, vector_left=False):
        self.R = R
        self.vectors = list(itertools.product(R.elements(), repeat=k))
        self.index = {v: i for i, v in enumerate(self.vectors)}
        self.vector_left = vector_left
        self._by_column = tuple(zip(*self.vectors))
        self._masks = {}

    def masks(self, r):
        got = self._masks.get(r)
        if got is None:
            if self.vector_left:
                images = [row[0] for row in _mat_mul(
                    self.R, self.vectors, tuple((x,) for x in r), 1)]
            else:
                images = _mat_mul(
                    self.R, (r,), self._by_column, len(self.vectors))[0]
            got = {}
            for i, image in enumerate(images):
                got[image] = got.get(image, 0) | 1 << i
            self._masks[r] = got
        return got

    def solve(self, lines, t):
        """Mask of the v that solve the equation of each lines[i] with the
        right-hand side 1 at i == t and 0 elsewhere."""
        one, zero = self.R.one, self.R.zero
        mask = -1
        for i, r in enumerate(lines):
            mask &= self.masks(r).get(one if i == t else zero, 0)
            if not mask:
                break
        return mask

    def vectors_of(self, mask):
        """The vectors of a mask, in enumeration order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.vectors[low.bit_length() - 1])
            mask ^= low
        return out


def _column_major_matrices(R, rows, cols):
    elements = list(R.elements())
    for flat in itertools.product(elements, repeat=rows * cols):
        # flat[j * rows + i] fills column j from top to bottom
        yield tuple(
            tuple(flat[j * rows + i] for j in range(cols)) for i in range(rows))


def classify_type(semiring, cap, shortcut=True):
    """Scan (n, n+h) pairs in lexicographic (n, h) order up to the rank cap."""
    if cap < 2:
        raise UnsupportedCarrier("classification needs cap >= 2")
    R = semiring
    if not R.is_finite:
        if R.declared_ibn:
            return TypeClassification(kind="ibn", cap=cap, regime="declared")
        raise UnsupportedCarrier(
            f"{R.name} has neither tables nor a declared classification")
    if shortcut and R.size > 1:
        # every (n, n+h) pair is refuted by cardinality, without a search
        return TypeClassification(kind="ibn", cap=cap, regime="cardinality")
    refuted = []
    for n in range(1, cap):
        for h in range(1, cap - n + 1):
            witness = free_iso_witness(R, n, n + h, shortcut=shortcut)
            if witness is not None:
                a, b = witness
                if not (a.then(b).is_identity() and b.then(a).is_identity()):
                    raise AssertionError("witness failed its own re-check")
                return TypeClassification(
                    kind="type", cap=cap, n=n, h=h, witness=witness,
                    refuted=tuple(refuted))
            refuted.append((n, h))
    return TypeClassification(kind="ibn", cap=cap, refuted=tuple(refuted))


class LeftRightReport(Record):
    __slots__ = ("left", "right")
    _json_extra = ("agree",)

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @property
    def agree(self):
        if self.left.kind != self.right.kind:
            return False
        if self.left.kind == "type":
            return (self.left.n, self.left.h) == (self.right.n, self.right.h)
        return self.left.cap == self.right.cap


def left_right_ibn_agree(semiring, cap):
    """Classify over R and over its opposite; the classifications must agree."""
    left = classify_type(semiring, cap)
    right = classify_type(opposite_semiring(semiring), cap)
    return LeftRightReport(left=left, right=right)

