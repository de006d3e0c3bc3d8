"""Semiring carriers: finite Cayley-table semirings and exact built-in ones.

Finite carriers store dense index tables and their elements are plain ints
indexing the carrier.  The built-in infinite carriers (naturals, integers,
tropical rationals) use exact Python arithmetic, so algebraic identities never
drift.  All values are immutable and every operation here is a pure function.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import (
    AxiomViolation,
    IndexOutOfRange,
    ParseError,
    SizeLimitExceeded,
    UnsupportedCarrier,
)

# Each complete closure costs about 2 x size^2 table lookups, so the largest
# carriers the constructors build need more than a million steps (gf:256 with
# 8 automorphisms takes 1,111,844, about 0.35 s); the cap leaves room for them.
DEFAULT_AUT_STEP_CAP = 2_000_000
# Largest carrier whose dense tables the built-in constructors build: the
# tables are quadratic in the size and axiom validation is cubic.
MAX_TABLE_SIZE = 256

# Each axiom with its arity and a predicate that holds at an argument tuple
# when the axiom holds there; add and mul are functions of two elements.
AXIOMS = {
    "zero-identity": (1, lambda add, mul, zero, one, a:
                      add(a, zero) == a and add(zero, a) == a),
    "add-commutativity": (2, lambda add, mul, zero, one, a, b:
                          add(a, b) == add(b, a)),
    "add-associativity": (3, lambda add, mul, zero, one, a, b, c:
                          add(add(a, b), c) == add(a, add(b, c))),
    "one-identity": (1, lambda add, mul, zero, one, a:
                     mul(a, one) == a and mul(one, a) == a),
    "mul-associativity": (3, lambda add, mul, zero, one, a, b, c:
                          mul(mul(a, b), c) == mul(a, mul(b, c))),
    "left-distributivity": (3, lambda add, mul, zero, one, a, b, c:
                            mul(a, add(b, c)) == add(mul(a, b), mul(a, c))),
    "right-distributivity": (3, lambda add, mul, zero, one, a, b, c:
                             mul(add(b, c), a) == add(mul(b, a), mul(c, a))),
    "zero-annihilation": (1, lambda add, mul, zero, one, a:
                          mul(a, zero) == zero and mul(zero, a) == zero),
}
AXIOM_ORDER = tuple(AXIOMS)


class Semiring:
    """A carrier together with its two operations and distinguished constants."""

    name = "?"
    is_finite = False
    is_commutative = False
    declared_ibn = None  # reason string for built-ins with a known classification

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b):
        return a == b

    def sum(self, values):
        out = self.zero
        for v in values:
            out = self.add(out, v)
        return out

    def elements(self):
        raise UnsupportedCarrier(f"{self.name} has no finite element enumeration")

    def sample_element(self, rng):
        raise NotImplementedError

    def try_unit_inverse(self, x):
        """Two-sided multiplicative inverse of x, or None."""
        raise NotImplementedError

    def unit_elements(self):
        raise UnsupportedCarrier(f"units of {self.name} are not finitely enumerable")

    def value_to_json(self, x):
        return x

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Semiring) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<semiring {self.name}>"


class FiniteSemiring(Semiring):
    """Semiring on {0..size-1} given by dense add/mul tables, taken as given."""

    is_finite = True

    def __init__(self, add_table, mul_table, zero, one, name="custom"):
        self.size = len(add_table)
        self.add_table = tuple(tuple(row) for row in add_table)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.zero = zero
        self.one = one
        self.name = name
        self.is_commutative = all(
            self.mul_table[a][b] == self.mul_table[b][a]
            for a in range(self.size)
            for b in range(self.size)
        )

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def elements(self):
        return range(self.size)

    def sample_element(self, rng):
        return rng.randrange(self.size)

    def try_unit_inverse(self, x):
        for v in range(self.size):
            if self.mul_table[x][v] == self.one and self.mul_table[v][x] == self.one:
                return v
        return None

    def unit_elements(self):
        return [u for u in range(self.size) if self.try_unit_inverse(u) is not None]

    def key(self):
        return ("finite", self.size, self.add_table, self.mul_table, self.zero, self.one)

    def to_json(self):
        return {
            "name": self.name,
            "size": self.size,
            "zero": self.zero,
            "one": self.one,
            "add": [list(row) for row in self.add_table],
            "mul": [list(row) for row in self.mul_table],
        }


class NaturalsSemiring(Semiring):
    name = "naturals"
    is_commutative = True
    declared_ibn = "additively cancellative commutative semiring; IBN is a known fact"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def sample_element(self, rng):
        return rng.randrange(0, 12)

    def try_unit_inverse(self, x):
        return 1 if x == 1 else None

    def unit_elements(self):
        return [1]

    def key(self):
        return ("naturals",)


class IntegersSemiring(Semiring):
    name = "integers"
    is_commutative = True
    declared_ibn = "commutative ring; IBN is a known fact"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def sample_element(self, rng):
        return rng.randrange(-9, 10)

    def try_unit_inverse(self, x):
        return x if x in (1, -1) else None

    def unit_elements(self):
        return [1, -1]

    def key(self):
        return ("integers",)


class TropicalSemiring(Semiring):
    """Max-plus semiring over exact rationals; None is the additive zero."""

    name = "tropical"
    is_commutative = True
    declared_ibn = "division semiring (every non-bottom value invertible); IBN is a known fact"
    zero = None
    one = Fraction(0)

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a if a >= b else b

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return a + b

    def sample_element(self, rng):
        if rng.random() < 0.15:
            return None
        return Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 3, 4)))

    def try_unit_inverse(self, x):
        return None if x is None else -x

    def value_to_json(self, x):
        return "bottom" if x is None else str(x)

    def key(self):
        return ("tropical",)


def check_table_shapes(add_table, mul_table, zero, one):
    """Raise IndexOutOfRange unless the tables are square over a nonempty carrier.

    Every entry, zero and one must be an int in range(size).
    """
    size = len(add_table)
    if size == 0:
        raise IndexOutOfRange("empty carrier")
    for label, table in (("add", add_table), ("mul", mul_table)):
        if len(table) != size:
            raise IndexOutOfRange(f"{label} table is not {size}x{size}")
        for row in table:
            if len(row) != size:
                raise IndexOutOfRange(f"{label} table row has wrong length")
            for entry in row:
                if not isinstance(entry, int) or not 0 <= entry < size:
                    raise IndexOutOfRange(f"{label} entry {entry!r} out of range")
    for label, c in (("zero", zero), ("one", one)):
        if not isinstance(c, int) or not 0 <= c < size:
            raise IndexOutOfRange(f"{label} index {c!r} out of range")


def validate_semiring(add_table, mul_table, zero, one, name="custom"):
    """Exhaustively check the semiring axioms over raw index tables.

    Raises IndexOutOfRange for malformed tables and AxiomViolation (with the
    first failing axiom in AXIOM_ORDER and a witness tuple) otherwise.
    """
    check_table_shapes(add_table, mul_table, zero, one)
    for axiom in AXIOM_ORDER:
        witness = find_axiom_witness(add_table, mul_table, zero, one, axiom)
        if witness is not None:
            raise AxiomViolation(axiom, witness)
    return FiniteSemiring(add_table, mul_table, zero, one, name)


def find_axiom_witness(add, mul, zero, one, axiom):
    """First witness violating the axiom over raw tables, or None if it holds."""
    rng = range(len(add))
    if axiom == "zero-identity":
        for a in rng:
            if add[a][zero] != a or add[zero][a] != a:
                return (a,)
    elif axiom == "add-commutativity":
        for a in rng:
            for b in rng:
                if add[a][b] != add[b][a]:
                    return (a, b)
    elif axiom == "add-associativity":
        for a in rng:
            for b in rng:
                ab = add[a][b]
                for c in rng:
                    if add[ab][c] != add[a][add[b][c]]:
                        return (a, b, c)
    elif axiom == "one-identity":
        for a in rng:
            if mul[a][one] != a or mul[one][a] != a:
                return (a,)
    elif axiom == "mul-associativity":
        for a in rng:
            for b in rng:
                ab = mul[a][b]
                for c in rng:
                    if mul[ab][c] != mul[a][mul[b][c]]:
                        return (a, b, c)
    elif axiom == "left-distributivity":
        for a in rng:
            for b in rng:
                for c in rng:
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        return (a, b, c)
    elif axiom == "right-distributivity":
        for a in rng:
            for b in rng:
                for c in rng:
                    if mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]:
                        return (a, b, c)
    elif axiom == "zero-annihilation":
        for a in rng:
            if mul[a][zero] != zero or mul[zero][a] != zero:
                return (a,)
    else:
        raise ValueError(f"unknown axiom {axiom!r}")
    return None


def evaluate_axiom(add, mul, zero, one, axiom, witness):
    """True iff the axiom holds at the given witness tuple (for re-checking)."""
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}")
    _, holds = AXIOMS[axiom]
    return holds(lambda a, b: add[a][b], lambda a, b: mul[a][b], zero, one,
                 *witness)


def check_axioms_on_sample(semiring, sample):
    """Check all axioms over a finite sample of an infinite carrier.

    Returns the list of axiom names checked; raises AxiomViolation at the
    first failing axiom in AXIOM_ORDER.
    """
    sample = list(sample)
    for axiom, (arity, holds) in AXIOMS.items():
        for args in product(sample, repeat=arity):
            if not holds(semiring.add, semiring.mul, semiring.zero,
                         semiring.one, *args):
                raise AxiomViolation(axiom, args)
    return list(AXIOM_ORDER)


# ---------------------------------------------------------------------------
# built-in carriers: their tables are semirings by construction, so they skip
# the axiom sweep of validate_semiring, which is cubic in the size


def boolean_semiring():
    return FiniteSemiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1, "boolean")


def trivial_semiring():
    return FiniteSemiring([[0]], [[0]], 0, 0, "trivial")


def zmod_semiring(n):
    if n < 1:
        raise UnsupportedCarrier("modulus must be positive")
    if n > MAX_TABLE_SIZE:
        raise SizeLimitExceeded(f"zmod:{n} exceeds the table size limit {MAX_TABLE_SIZE}")
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteSemiring(add, mul, 0, 1 % n, f"zmod:{n}")


def galois_semiring(q):
    from ._galois import gf_tables

    if q > MAX_TABLE_SIZE:
        raise SizeLimitExceeded(f"gf:{q} exceeds the table size limit {MAX_TABLE_SIZE}")
    add, mul, _, _ = gf_tables(q)
    return FiniteSemiring(add, mul, 0, 1, f"gf:{q}")


def product_semiring(left, right, name=None):
    """Componentwise product of two finite semirings; pairs encoded as indices.

    A product of semirings is a semiring, so its tables are not re-checked.
    """
    if not (left.is_finite and right.is_finite):
        raise UnsupportedCarrier("product requires finite factors")
    n, m = left.size, right.size
    size = n * m
    if size > MAX_TABLE_SIZE:
        raise SizeLimitExceeded(
            f"a product of {size} elements exceeds the table size limit {MAX_TABLE_SIZE}")

    def enc(a, b):
        return a * m + b

    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for a1 in range(n):
        for b1 in range(m):
            for a2 in range(n):
                for b2 in range(m):
                    add[enc(a1, b1)][enc(a2, b2)] = enc(left.add(a1, a2), right.add(b1, b2))
                    mul[enc(a1, b1)][enc(a2, b2)] = enc(left.mul(a1, a2), right.mul(b1, b2))
    return FiniteSemiring(
        add, mul, enc(left.zero, right.zero), enc(left.one, right.one),
        name or f"{left.name}x{right.name}")


BUILTIN_NAMES = ("boolean", "naturals", "integers", "tropical", "trivial")


def load_semiring(spec):
    """Resolve a built-in name ('boolean', 'zmod:<n>', 'gf:<q>', ...) or a JSON file."""
    if spec == "boolean":
        return boolean_semiring()
    if spec == "trivial":
        return trivial_semiring()
    if spec == "naturals":
        return NaturalsSemiring()
    if spec == "integers":
        return IntegersSemiring()
    if spec == "tropical":
        return TropicalSemiring()
    if spec.startswith("zmod:"):
        try:
            return zmod_semiring(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ParseError(f"bad modulus in {spec!r}") from exc
    if spec.startswith("gf:"):
        try:
            return galois_semiring(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ParseError(f"bad field order in {spec!r}") from exc
    if os.path.exists(spec):
        return semiring_from_file(spec)
    raise ParseError(f"unknown semiring {spec!r} (not a built-in name or a file)")


def read_semiring_file(path):
    """The (add, mul, zero, one, name) of a semiring JSON file.

    The tables are shape-checked but not axiom-checked; a file that cannot be
    read as such raises ParseError, and one of more than MAX_TABLE_SIZE
    elements raises SizeLimitExceeded, as the built-in constructors do.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot parse semiring file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"semiring file {path} is not a JSON object")
    for field_name in ("size", "zero", "one", "add", "mul"):
        if field_name not in data:
            raise ParseError(f"semiring file missing field {field_name!r}")
    tables = (data["add"], data["mul"], data["zero"], data["one"])
    if isinstance(data["add"], list) and len(data["add"]) > MAX_TABLE_SIZE:
        raise SizeLimitExceeded(
            f"a semiring file of {len(data['add'])} elements exceeds the table "
            f"size limit {MAX_TABLE_SIZE}")
    try:
        check_table_shapes(*tables)
    except (IndexOutOfRange, TypeError) as exc:
        raise ParseError(f"malformed semiring tables: {exc}") from exc
    return (*tables, data.get("name", "custom"))


def semiring_from_file(path):
    return validate_semiring(*read_semiring_file(path))


# ---------------------------------------------------------------------------
# units, opposites, automorphisms


def units_of(semiring):
    """All two-sided units.  Finite carriers are searched exhaustively."""
    return list(semiring.unit_elements())


def opposite_semiring(semiring):
    """Same carrier with the multiplication arguments swapped.

    A commutative carrier is its own opposite.  The opposite of a semiring is
    a semiring, so its tables are not re-checked.
    """
    if semiring.is_commutative:
        return semiring
    if isinstance(semiring, FiniteSemiring):
        mul = [
            [semiring.mul_table[b][a] for b in range(semiring.size)]
            for a in range(semiring.size)
        ]
        return FiniteSemiring(semiring.add_table, mul, semiring.zero, semiring.one,
                              f"{semiring.name}^op")
    raise UnsupportedCarrier(f"no opposite construction for {semiring.name}")


class PermutationAutomorphism:
    """Carrier bijection of a finite semiring preserving both tables and 0, 1."""

    def __init__(self, semiring, perm):
        self.semiring = semiring
        self.perm = tuple(perm)
        inv = [0] * len(self.perm)
        for i, v in enumerate(self.perm):
            inv[v] = i
        self.inv_perm = tuple(inv)

    def apply(self, x):
        return self.perm[x]

    def inverse_apply(self, x):
        return self.inv_perm[x]

    @property
    def is_identity(self):
        return all(i == v for i, v in enumerate(self.perm))

    def then(self, other):
        """Automorphism 'apply self, then other'."""
        return PermutationAutomorphism(
            self.semiring, tuple(other.perm[v] for v in self.perm))

    def inverted(self):
        return PermutationAutomorphism(self.semiring, self.inv_perm)

    def __eq__(self, other):
        return (
            isinstance(other, PermutationAutomorphism)
            and self.semiring == other.semiring
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.semiring, self.perm))

    def __repr__(self):
        return f"aut{list(self.perm)}"


class MapAutomorphism:
    """Named carrier map for built-in infinite semirings (or sampled carriers).

    Bijectivity cannot be certified by enumeration here; homomorphism laws are
    the caller's responsibility (checked on samples where used).
    """

    def __init__(self, semiring, func, inverse_func=None, name="map"):
        self.semiring = semiring
        self.func = func
        self.inverse_func = inverse_func
        self.name = name

    def apply(self, x):
        return self.func(x)

    def inverse_apply(self, x):
        if self.inverse_func is None:
            raise UnsupportedCarrier(f"automorphism {self.name!r} has no stored inverse")
        return self.inverse_func(x)

    def then(self, other):
        """Automorphism 'apply self, then other'; its inverse undoes other first."""
        return MapAutomorphism(
            self.semiring,
            lambda x: other.apply(self.apply(x)),
            lambda x: self.inverse_apply(other.inverse_apply(x)),
            name=f"{self.name};{other.name}")

    def __repr__(self):
        return f"aut<{self.name}>"


def identity_automorphism(semiring):
    """A permutation on a Cayley-table carrier, the identity map otherwise."""
    if isinstance(semiring, FiniteSemiring):
        return PermutationAutomorphism(semiring, range(semiring.size))
    return MapAutomorphism(semiring, lambda x: x, lambda x: x, name="id")


def is_semiring_automorphism(semiring, perm):
    """Check that a carrier permutation preserves 0, 1, and both tables."""
    if perm[semiring.zero] != semiring.zero or perm[semiring.one] != semiring.one:
        return False
    for a in range(semiring.size):
        pa = perm[a]
        for b in range(semiring.size):
            if perm[semiring.add_table[a][b]] != semiring.add_table[pa][perm[b]]:
                return False
            if perm[semiring.mul_table[a][b]] != semiring.mul_table[pa][perm[b]]:
                return False
    return True


@dataclass
class AutomorphismGroups:
    """Aut, Inn, outer coset representatives, and the Aut search's steps."""

    aut: list = field(default_factory=list)
    inn: list = field(default_factory=list)
    out_reps: list = field(default_factory=list)
    steps: int = 0

    @property
    def aut_order(self):
        return len(self.aut)

    @property
    def inn_order(self):
        return len(self.inn)

    @property
    def out_order(self):
        return len(self.out_reps)


def automorphism_groups(semiring, max_candidates=DEFAULT_AUT_STEP_CAP):
    """Enumerate Aut, Inn (conjugation by two-sided units) and outer coset reps.

    Aut is searched by backtracking over the images of the elements in order,
    from 0 -> 0 and 1 -> 1.  Each choice is closed under both tables (sums and
    products of mapped elements map to those of their images); a forced image
    that clashes or is already taken prunes the branch.  Complete maps are
    re-checked with ``is_semiring_automorphism``.  ``max_candidates`` caps the
    closure steps, one per table lookup; going over it raises SizeLimitExceeded.
    """
    if not semiring.is_finite:
        raise UnsupportedCarrier("automorphism enumeration needs a finite carrier")
    size = semiring.size
    tables = (semiring.add_table, semiring.mul_table)
    image, taken, trail = [None] * size, [False] * size, []
    aut, steps = [], 0

    def assign(x, y):
        image[x] = y
        taken[y] = True
        trail.append(x)

    def closed(start):
        nonlocal steps  # each pair is checked when its later element is reached
        for pos in range(start, size):
            if pos == len(trail):
                return True
            x = trail[pos]
            steps += 4 * (pos + 1)
            if steps > max_candidates:
                raise SizeLimitExceeded(
                    f"the automorphism search exceeds its cap of {max_candidates} steps")
            for y in trail[:pos + 1]:
                for a, b in ((x, y), (y, x)):
                    for table in tables:
                        c, target = table[a][b], table[image[a]][image[b]]
                        if image[c] is None and not taken[target]:
                            assign(c, target)
                        elif image[c] != target:
                            return False
        return True

    def extend(start):
        if closed(start):
            if len(trail) == size:
                if is_semiring_automorphism(semiring, image):
                    aut.append(PermutationAutomorphism(semiring, image))
            else:
                x = image.index(None)
                for y in range(size):
                    if not taken[y]:
                        assign(x, y)
                        extend(len(trail) - 1)
        while len(trail) > start:
            x = trail.pop()
            taken[image[x]] = False
            image[x] = None

    for fixed in dict.fromkeys((semiring.zero, semiring.one)):  # 0 = 1 when trivial
        assign(fixed, fixed)
    extend(0)
    aut.sort(key=lambda a: a.perm)

    inner_perms = set()
    for u in semiring.unit_elements():
        v = semiring.try_unit_inverse(u)
        perm = tuple(semiring.mul(semiring.mul(u, r), v) for r in range(size))
        inner_perms.add(perm)
    inn = sorted(
        (PermutationAutomorphism(semiring, p) for p in inner_perms),
        key=lambda a: a.perm)

    remaining = {a.perm: a for a in aut}
    out_reps = []
    while remaining:
        rep_perm = min(remaining)
        rep = remaining.pop(rep_perm)
        out_reps.append(rep)
        for inner in inn:
            coset_member = inner.then(rep).perm  # rep following the inner twist
            remaining.pop(coset_member, None)
    return AutomorphismGroups(aut=aut, inn=inn, out_reps=out_reps, steps=steps)
