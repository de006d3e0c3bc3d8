"""Lie algebras over exact coefficient rings, with PBW arithmetic in the
(restricted) universal envelope, free Lie-module bases, ring-map lifting, and
the degree-truncated envelope carrier that plugs into the matrix-category
machinery.

Monomials are exponent vectors over the ordered basis.  A product is put in
canonical form by exponent-level straightening: a generator x_i times a PBW
monomial x_j * x^rest with i > j is x_j * (x_i * x^rest) + [x_i, x_j] * x^rest,
memoized per envelope on (i, exponent vector); in restricted mode a p-th power
at the front is traded for the stored p-map image.  An independent
word-rewriting route, rightmost pair first, is kept for cross-checks.  Both
run their recursions on explicit stacks, so no degree reaches Python's
recursion limit.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from ._galois import factor_prime_power, gf_tables
from .errors import (
    AntisymmetryViolation,
    AxiomViolation,
    Check,
    DegreeCapExceeded,
    JacobiViolation,
    NotAnAutomorphism,
    NotBracketPreserving,
    ParseError,
    SizeLimitExceeded,
    UnsupportedCarrier,
    VerificationReport,
)
from .matcat import _mat_mul
from .semirings import (
    MAX_TABLE_SIZE,
    PermutationAutomorphism,
    Semiring,
    identity_automorphism,
)

# The Jacobi identity is checked on every basis triple; past this many
# triples validate_lie refuses the algebra instead of sweeping.
JACOBI_TRIPLE_CAP = 200_000

# ---------------------------------------------------------------------------
# exact coefficient rings


class CoefficientRing(Semiring):
    """An exact integral domain (integers, rationals, or a finite field): a
    commutative semiring with negation, integer images, powers and units."""

    characteristic = 0
    is_commutative = True

    def neg(self, a):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def power(self, a, n):
        out = self.one
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def is_unit(self, a):
        return self.try_unit_inverse(a) is not None

    def value_from_json(self, data):
        if not _is_index(data):
            raise ParseError(f"coefficient {data!r} is not an integer")
        return data


class IntegerRing(CoefficientRing):
    name = "Z"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, n):
        return n

    def try_unit_inverse(self, a):
        return a if a in (1, -1) else None

    def sample_element(self, rng):
        return rng.randrange(-6, 7)

    def key(self):
        return ("Z",)


def _rational(x):
    """An exact rational as ``int`` when integral, else as its ``Fraction``."""
    return x.numerator if x.denominator == 1 else x


class RationalField(CoefficientRing):
    """Q with integral values as ``int`` and the rest as reduced ``Fraction``s,
    so integer-valued arithmetic never leaves ``int``."""

    name = "Q"
    zero = 0
    one = 1

    def add(self, a, b):
        return _rational(a + b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def from_int(self, n):
        return n

    def try_unit_inverse(self, a):
        return None if a == 0 else _rational(1 / Fraction(a))

    def sample_element(self, rng):
        return _rational(Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3))))

    def value_to_json(self, a):
        return str(a)

    def value_from_json(self, data):
        try:
            return _rational(Fraction(str(data)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"coefficient {data!r} is not a rational number") from exc

    def key(self):
        return ("Q",)


# Miller-Rabin on the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Deterministic Miller-Rabin for n below _MILLER_RABIN_EXACT_BELOW."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(CoefficientRing):
    is_finite = True

    def __init__(self, p):
        if p >= _MILLER_RABIN_EXACT_BELOW:
            raise SizeLimitExceeded(
                f"zmod:{p}: primality is decided exactly only below "
                f"{_MILLER_RABIN_EXACT_BELOW}")
        if not _is_prime(p):
            raise UnsupportedCarrier(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"zmod:{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def from_int(self, n):
        return n % self.p

    def try_unit_inverse(self, a):
        return None if a % self.p == 0 else pow(a, self.p - 2, self.p)

    def value_from_json(self, data):
        return super().value_from_json(data) % self.p

    def sample_element(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)

    def key(self):
        return ("zmod", self.p)


class GaloisFieldRing(CoefficientRing):
    """GF(p^k) with table arithmetic; elements are indices as in the semiring view."""

    is_finite = True

    def __init__(self, q):
        add, mul, p, k = gf_tables(q)
        self.q = q
        self.p = p
        self.k = k
        self.characteristic = p
        self.name = f"gf:{q}"
        self.add_table = add
        self.mul_table = mul
        self.zero = 0
        self.one = 1
        self._neg = [next(b for b in range(q) if add[a][b] == 0) for a in range(q)]

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self._neg[a]

    def from_int(self, n):
        out = self.zero
        step = self.one if n >= 0 else self._neg[self.one]
        for _ in range(abs(n)):
            out = self.add(out, step)
        return out

    def try_unit_inverse(self, a):
        if a == 0:
            return None
        for b in range(self.q):
            if self.mul_table[a][b] == self.one:
                return b
        return None

    def sample_element(self, rng):
        return rng.randrange(self.q)

    def elements(self):
        return range(self.q)

    def value_from_json(self, data):
        value = super().value_from_json(data)
        if not 0 <= value < self.q:
            raise ParseError(f"{value} is not an element index of {self.name}")
        return value

    def automorphisms(self):
        """The Frobenius powers x -> x^(p^i), i = 0..k-1."""
        return [
            PermutationAutomorphism(
                self, [self.power(a, self.p ** i) for a in range(self.q)])
            for i in range(self.k)]

    def key(self):
        return ("gf", self.q)


def coefficient_ring(spec):
    """Resolve 'Z', 'Q', 'zmod:<p>', or 'gf:<q>'."""
    if spec == "Z":
        return IntegerRing()
    if spec == "Q":
        return RationalField()
    if spec.startswith("zmod:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad modulus in {spec!r}") from exc
        return PrimeField(p)
    if spec.startswith("gf:"):
        try:
            q = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad field order in {spec!r}") from exc
        if q > MAX_TABLE_SIZE:
            raise SizeLimitExceeded(
                f"gf:{q} exceeds the table size limit {MAX_TABLE_SIZE}")
        p, k = factor_prime_power(q)
        return PrimeField(p) if k == 1 else GaloisFieldRing(q)
    raise ParseError(f"unknown coefficient ring {spec!r}")


# ---------------------------------------------------------------------------
# sparse vectors over the ring


def _accumulate(K, out, terms, c=None):
    """Add c*x (plain x when c is None) into ``out`` for each (key, x) of
    ``terms``, dropping every key whose sum is zero; returns ``out``."""
    for key, x in terms:
        s = K.add(out.get(key, K.zero), x if c is None else K.mul(c, x))
        if K.eq(s, K.zero):
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _memoized(memo, key, expand):
    """memo[key] of a memoized recursion, run on an explicit stack.

    ``expand(key)`` is a generator: it yields each key whose value it needs,
    is sent that value back, and returns its own value, which is stored.
    So the Python stack stays flat however deep the recursion goes.
    """
    value = memo.get(key)
    if value is not None:
        return value
    stack = [(key, expand(key))]
    while stack:
        top, steps = stack[-1]
        try:
            need = steps.send(value)
        except StopIteration as done:
            value = memo[top] = done.value
            stack.pop()
            continue
        value = memo.get(need)
        if value is None:
            stack.append((need, expand(need)))
    return value


def _exponents(dim, word):
    """Exponent vector of a word of basis indices."""
    exp = [0] * dim
    for letter in word:
        exp[letter] += 1
    return tuple(exp)


def vec_add(K, u, v):
    return _accumulate(K, dict(u), v.items())


def vec_scale(K, c, u):
    return _accumulate(K, {}, u.items(), c)


def vec_neg(K, u):
    return {i: K.neg(c) for i, c in u.items()}


def clean_vector(K, u):
    return {i: c for i, c in u.items() if not K.eq(c, K.zero)}


# ---------------------------------------------------------------------------
# Lie algebra data


class LieAlgebraData:
    """Finite-dimensional Lie algebra given by structure constants.

    Only pairs i < j are stored; the rest follows by antisymmetry.  Vectors
    are sparse {basis index: coefficient} dicts.
    """

    def __init__(self, ring, dim, table, labels=None):
        self.ring = ring
        self.dim = dim
        self.table = {}
        for pair, vec in table.items():
            vec = clean_vector(ring, vec)
            if vec:
                self.table[pair] = vec
        self.labels = tuple(labels) if labels else tuple(f"e{i+1}" for i in range(dim))

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a vector; antisymmetric in the indices."""
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return vec_neg(self.ring, self.table.get((j, i), {}))

    def bracket(self, u, v):
        K = self.ring
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                _accumulate(K, out, self.bracket_basis(i, j).items(), K.mul(a, b))
        return out

    def ad_matrix(self, u):
        """Matrix of [u, -]: column j holds the coordinates of [u, e_j]."""
        K = self.ring
        rows = [[K.zero] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            image = self.bracket(u, {j: K.one})
            for i, c in image.items():
                rows[i][j] = c
        return tuple(tuple(r) for r in rows)

    def key(self):
        return (
            self.ring.key(), self.dim,
            tuple(sorted(
                (pair, tuple(sorted(vec.items())))
                for pair, vec in self.table.items())))

    def __eq__(self, other):
        return isinstance(other, LieAlgebraData) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def validate_lie(ring, dim, brackets, labels=None):
    """Build a Lie algebra from raw structure constants, verifying the axioms.

    ``brackets`` maps (i, j) pairs to coefficient vectors; redundant (j, i)
    entries are accepted when consistent with antisymmetry.  The Jacobi
    identity is checked on every basis triple, of which there may be at most
    ``JACOBI_TRIPLE_CAP``.  Sampling draws basis indices, so dim must be >= 1.
    """
    if dim < 1:
        raise ParseError(f"a Lie algebra needs dimension at least 1, not {dim}")
    if math.comb(dim, 3) > JACOBI_TRIPLE_CAP:
        raise SizeLimitExceeded(
            f"dim {dim} has {math.comb(dim, 3)} basis triples to check for Jacobi; "
            f"the cap is {JACOBI_TRIPLE_CAP}")
    table = {}
    for (i, j), vec in dict(brackets).items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"bracket index ({i}, {j}) out of range")
        vec = clean_vector(ring, dict(vec))
        if i == j:
            if vec:
                raise AntisymmetryViolation(i)
            continue
        lo, hi = min(i, j), max(i, j)
        stored = vec if i < j else vec_neg(ring, vec)
        if (lo, hi) in table:
            if table[(lo, hi)] != stored:
                raise AntisymmetryViolation(
                    lo, f"brackets at ({i},{j}) contradict antisymmetry")
        else:
            table[(lo, hi)] = stored
    lie = LieAlgebraData(ring, dim, table, labels)
    K = ring
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                residual = lie.bracket(lie.bracket_basis(i, j), {k: K.one})
                residual = vec_add(K, residual,
                                   lie.bracket(lie.bracket_basis(j, k), {i: K.one}))
                residual = vec_add(K, residual,
                                   lie.bracket(lie.bracket_basis(k, i), {j: K.one}))
                if residual:
                    raise JacobiViolation((i, j, k), residual)
    return lie


def sl2(ring):
    """sl2 with the fixed basis order (f, h, e): [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    two = ring.from_int(2)
    return validate_lie(
        ring, 3,
        {(0, 1): {0: two}, (0, 2): {1: ring.neg(ring.one)}, (1, 2): {2: two}},
        labels=("f", "h", "e"))


def heisenberg(ring):
    """Three-dimensional algebra with [x,y]=z and z central."""
    return validate_lie(ring, 3, {(0, 1): {2: ring.one}}, labels=("x", "y", "z"))


def abelian(ring, dim, labels=None):
    return validate_lie(ring, dim, {}, labels=labels)


def _is_index(value):
    return isinstance(value, int) and not isinstance(value, bool)


def lie_from_dict(data):
    """Parse the JSON shape {name, ring, dim, brackets, pmap?}."""
    if not isinstance(data, dict):
        raise ParseError("lie file is not a JSON object")
    for field_name in ("ring", "dim", "brackets"):
        if field_name not in data:
            raise ParseError(f"lie file missing field {field_name!r}")
    if not isinstance(data["ring"], str):
        raise ParseError(f"lie file ring must be a string, not {data['ring']!r}")
    ring = coefficient_ring(data["ring"])
    dim = data["dim"]
    if not _is_index(dim):
        raise ParseError(f"lie file dim must be an integer, not {dim!r}")
    labels = data.get("labels")
    if labels is not None and (
            not isinstance(labels, (list, tuple)) or len(labels) != dim
            or not all(isinstance(x, str) for x in labels)):
        raise ParseError(f"lie file labels must be {dim} strings, not {labels!r}")

    def vector(terms):
        if not isinstance(terms, (list, tuple)):
            raise ParseError(f"coefficient terms must be a list, not {terms!r}")
        out = {}
        for term in terms:
            if not (isinstance(term, (list, tuple)) and len(term) == 2
                    and _is_index(term[0]) and 0 <= term[0] < dim):
                raise ParseError(f"malformed coefficient term {term!r}")
            try:
                out[term[0]] = ring.value_from_json(term[1])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad coefficient {term[1]!r}") from exc
        return out

    def entries(field_name, arity):
        items = data[field_name]
        if not isinstance(items, (list, tuple)):
            raise ParseError(f"lie file {field_name} must be a list, not {items!r}")
        for item in items:
            if not (isinstance(item, (list, tuple)) and len(item) == arity + 1
                    and all(_is_index(i) and 0 <= i < dim for i in item[:arity])):
                raise ParseError(f"malformed {field_name} entry {item!r}")
            yield tuple(item[:arity]), vector(item[arity])

    brackets = dict(entries("brackets", 2))
    lie = validate_lie(ring, dim, brackets, labels=labels)
    restricted = None
    if data.get("pmap") is not None:
        images = [{} for _ in range(dim)]
        for (i,), image in entries("pmap", 1):
            images[i] = image
        p = ring.characteristic
        if p == 0:
            raise ParseError("a p-map needs positive characteristic")
        restricted = RestrictedStructure(p=p, images=tuple(images))
    return lie, restricted


def lie_from_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot parse lie file {path}: {exc}") from exc
    return lie_from_dict(data)


# ---------------------------------------------------------------------------
# restricted structures


@dataclass(frozen=True)
class RestrictedStructure:
    """p-power images of the basis elements, as vectors in the algebra."""

    p: int
    images: tuple

    def image(self, i):
        return dict(self.images[i])

    def key(self):
        return (self.p, tuple(tuple(sorted(img.items())) for img in self.images))


def s_polynomials(lie, p, g1, g2):
    """The mixed terms of the p-th power of a sum, indexed 1..p-1.

    The i-th term is 1/i times the coefficient of t^(i-1) in the (p-1)-fold
    bracket of (t*g1 + g2) applied to g1; the division by i is the
    normalization that makes genuine restricted algebras satisfy the sum
    identity (the prime characteristic makes every i < p invertible).
    """
    K = lie.ring
    poly = {0: dict(g1)}
    for _ in range(p - 1):
        new = {}
        for d, vec in poly.items():
            up = lie.bracket(g1, vec)
            if up:
                new[d + 1] = vec_add(K, new.get(d + 1, {}), up)
            flat = lie.bracket(g2, vec)
            if flat:
                new[d] = vec_add(K, new.get(d, {}), flat)
        poly = {d: clean_vector(K, v) for d, v in new.items() if clean_vector(K, v)}
    out = []
    for i in range(1, p):
        inv = K.from_int(pow(i, -1, p))
        out.append(vec_scale(K, inv, poly.get(i - 1, {})))
    return out


def p_power(lie, restricted, vec):
    """Extend the stored basis p-images to an arbitrary element.

    Splits off the lowest-index term and recurses through the scalar rule and
    the sum rule; on basis elements it returns the stored image.
    """
    K = lie.ring
    items = sorted(clean_vector(K, vec).items())
    if not items:
        return {}
    i, lam = items[0]
    rest = dict(items[1:])
    out = vec_scale(K, K.power(lam, restricted.p), restricted.image(i))
    if not rest:
        return out
    out = vec_add(K, out, p_power(lie, restricted, rest))
    for s in s_polynomials(lie, restricted.p, {i: lam}, rest):
        out = vec_add(K, out, s)
    return out


def _mat_pow_k(K, a, n):
    d = len(a)
    out = tuple(
        tuple(K.one if i == j else K.zero for j in range(d)) for i in range(d))
    for _ in range(n):
        out = _mat_mul(K, out, a, d)
    return out


def verify_restricted(lie, restricted, seed=0, samples=12):
    """Verify the restricted-algebra laws against the stored p-images.

    The substantive constraint is the bracket-power law on basis elements;
    the scalar and sum laws additionally exercise the extension evaluator on
    sampled inputs and on all ordered basis pairs.  Raises AxiomViolation on
    the first failure; otherwise returns one passed Check per law.
    """
    K = lie.ring
    p = restricted.p
    report = VerificationReport(subject=f"p-map over {K.name}")
    if K.characteristic != p:
        raise AxiomViolation(
            "characteristic", (K.characteristic, p),
            f"coefficient ring has characteristic {K.characteristic}, p-map wants {p}")
    report.records.append(Check("characteristic", "exhaustive", "pass", checked=1))

    for i in range(lie.dim):
        lhs = lie.ad_matrix(restricted.image(i))
        rhs = _mat_pow_k(K, lie.ad_matrix({i: K.one}), p)
        if lhs != rhs:
            raise AxiomViolation(
                "bracket-power", (i,),
                f"ad of the p-image of basis {i} differs from the p-th ad power")
    report.records.append(Check(
        "bracket-power-basis", "exhaustive", "pass", checked=lie.dim))

    rng = random.Random(f"{seed}:restricted")
    for _ in range(samples):
        g = {i: K.sample_element(rng)
             for i in rng.sample(range(lie.dim), k=min(2, lie.dim))}
        g = clean_vector(K, g)
        lhs = lie.ad_matrix(p_power(lie, restricted, g))
        rhs = _mat_pow_k(K, lie.ad_matrix(g), p)
        if lhs != rhs:
            raise AxiomViolation("bracket-power", tuple(sorted(g.items())),
                                 "extension evaluator breaks the ad power law")
    report.records.append(Check(
        "bracket-power-combinations", "sampled", "pass", checked=samples, seed=seed))

    for _ in range(samples):
        lam = K.sample_element(rng)
        i = rng.randrange(lie.dim)
        g = {i: K.one}
        lhs = p_power(lie, restricted, vec_scale(K, lam, g))
        rhs = vec_scale(K, K.power(lam, p), p_power(lie, restricted, g))
        if lhs != rhs:
            raise AxiomViolation("scalar-power", (lam, i), "scalar rule broken")
    report.records.append(Check(
        "scalar-power", "sampled", "pass", checked=samples, seed=seed))

    for i in range(lie.dim):
        for j in range(lie.dim):
            if i == j:
                continue
            g1, g2 = {i: K.one}, {j: K.one}
            lhs = p_power(lie, restricted, vec_add(K, g1, g2))
            rhs = vec_add(K, p_power(lie, restricted, g1),
                          p_power(lie, restricted, g2))
            for s in s_polynomials(lie, p, g1, g2):
                rhs = vec_add(K, rhs, s)
            if lhs != rhs:
                raise AxiomViolation(
                    "sum-power", (i, j),
                    f"residual {vec_add(K, lhs, vec_neg(K, rhs))!r}")
    report.records.append(Check(
        "sum-power-basis-pairs", "exhaustive", "pass",
        checked=lie.dim * (lie.dim - 1)))
    return report


# ---------------------------------------------------------------------------
# the universal envelope and its canonical-form arithmetic


class UniversalEnvelope:
    """PBW arithmetic for U(L), or for the restricted envelope when a p-map
    is attached (exponents then stay below p)."""

    def __init__(self, lie, restricted=None):
        self.lie = lie
        self.ring = lie.ring
        self.restricted = restricted
        self._products = {}  # (i, exp) -> x_i * x^exp

    def key(self):
        return (self.lie.key(),
                self.restricted.key() if self.restricted else None)

    def __eq__(self, other):
        return isinstance(other, UniversalEnvelope) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- constructors

    def element(self, coeffs):
        return PbwElement(self, _accumulate(
            self.ring, {}, ((tuple(exp), c) for exp, c in coeffs.items())))

    def zero(self):
        return PbwElement(self, {})

    def scalar(self, c):
        return self.element({(0,) * self.lie.dim: c})

    def one(self):
        return self.scalar(self.ring.one)

    def generator(self, i):
        return self.element({_exponents(self.lie.dim, (i,)): self.ring.one})

    def from_vector(self, vec):
        return self.element(
            {_exponents(self.lie.dim, (i,)): c for i, c in vec.items()})

    def monomial(self, exp, coeff=None):
        return self.element({tuple(exp): coeff if coeff is not None else self.ring.one})

    def sample_element(self, rng, max_degree=2, terms=2):
        K = self.ring
        out = {}
        for _ in range(terms):
            degree = rng.randrange(max_degree + 1)
            word = tuple(sorted(rng.randrange(self.lie.dim) for _ in range(degree)))
            if self.restricted and any(
                    word.count(i) >= self.restricted.p for i in set(word)):
                continue
            exp = _exponents(self.lie.dim, word)
            c = K.sample_element(rng)
            if not K.eq(c, K.zero):
                out[exp] = K.add(out.get(exp, K.zero), c)
        return self.element(out)

    # -- canonical form

    def word_of(self, exp):
        word = []
        for i, a in enumerate(exp):
            word.extend([i] * a)
        return tuple(word)

    def normal_form_word(self, word):
        """Canonical coefficients of a product word of basis generators."""
        return self._left_multiply(word, {(0,) * self.lie.dim: self.ring.one})

    def _left_multiply(self, word, coeffs):
        """The word times the canonical element ``coeffs``, in canonical form.

        Folds the letters into ``coeffs`` from the right, each through
        ``_times``.
        """
        K = self.ring
        for letter in reversed(word):
            step = {}
            for exp, c in coeffs.items():
                _accumulate(K, step, self._times(letter, exp).items(), c)
            coeffs = step
        return coeffs

    def _times(self, i, exp):
        """x_i times the PBW monomial x^exp, in canonical form (memoized)."""
        return _memoized(self._products, (i, exp), self._straighten)

    def _straighten(self, key):
        """x_i * x^exp for ``_memoized``: yields the (letter, monomial)
        products it needs.

        Write x^exp = x_j * x^rest with j its first letter.  If i <= j the
        exponent of x_i goes up by one; in restricted mode, once it reaches p
        at the front, x_i^p is traded for its stored p-image times x^rest.
        Otherwise x_i * x_j * x^rest = x_j * (x_i * x^rest) + [x_i, x_j] * x^rest.
        """
        i, exp = key
        K = self.ring
        j = next((t for t, a in enumerate(exp) if a), len(exp))
        rest = list(exp)
        out = {}
        if i <= j:
            rest[i] += 1
            if self.restricted is None or rest[i] < self.restricted.p:
                return {tuple(rest): K.one}
            rest[i] = 0
            rest = tuple(rest)
            for k, c in self.restricted.image(i).items():
                _accumulate(K, out, (yield k, rest).items(), c)
            return out
        rest[j] -= 1
        rest = tuple(rest)
        for m, c in (yield i, rest).items():
            _accumulate(K, out, (yield j, m).items(), c)
        for k, c in self.lie.bracket_basis(i, j).items():
            _accumulate(K, out, (yield k, rest).items(), c)
        return out

    def multiply(self, u, v):
        K = self.ring
        out = {}
        for ea, ca in u.coeffs.items():
            product = self._left_multiply(self.word_of(ea), v.coeffs)
            _accumulate(K, out, product.items(), ca)
        return PbwElement(self, out)


class PbwElement:
    """Element of the envelope: a finite map from exponent vectors to nonzero
    coefficients, always in canonical straightened form."""

    __slots__ = ("envelope", "coeffs")

    def __init__(self, envelope, coeffs):
        if envelope.restricted is not None:
            p = envelope.restricted.p
            for exp in coeffs:
                if any(a >= p for a in exp):
                    raise DegreeCapExceeded(
                        f"restricted monomial exponent reached {max(exp)} >= p={p}")
        self.envelope = envelope
        self.coeffs = dict(coeffs)

    def __add__(self, other):
        self._check(other)
        return PbwElement(self.envelope, _accumulate(
            self.envelope.ring, dict(self.coeffs), other.coeffs.items()))

    def __neg__(self):
        K = self.envelope.ring
        return PbwElement(
            self.envelope, {exp: K.neg(c) for exp, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self.envelope.multiply(self, other)

    def scale(self, c):
        return PbwElement(self.envelope, _accumulate(
            self.envelope.ring, {}, self.coeffs.items(), c))

    def _check(self, other):
        if not isinstance(other, PbwElement) or other.envelope != self.envelope:
            raise UnsupportedCarrier("operands live in different envelopes")

    def degree(self):
        """Maximal total exponent; None is the bottom value of the zero element."""
        if not self.coeffs:
            return None
        return max(sum(exp) for exp in self.coeffs)

    def leading(self):
        """Top-degree part, read as a commutative polynomial."""
        d = self.degree()
        if d is None:
            return PbwElement(self.envelope, {})
        return PbwElement(
            self.envelope,
            {exp: c for exp, c in self.coeffs.items() if sum(exp) == d})

    def constant_coefficient(self):
        K = self.envelope.ring
        return self.coeffs.get((0,) * self.envelope.lie.dim, K.zero)

    def __eq__(self, other):
        return (
            isinstance(other, PbwElement)
            and self.envelope == other.envelope
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        labels = self.envelope.lie.labels
        parts = []
        for exp, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            word = "".join(labels[i] * a for i, a in enumerate(exp))
            parts.append(f"{c}" if not word else f"{c}*{word}")
        return " + ".join(parts)


def multiply_by_word_rewriting(u, v):
    """Independent cross-check route for products.

    Flattens monomial pairs to generator words and rewrites whole words: the
    rightmost out-of-order adjacent pair first through the bracket, then (in
    restricted mode) the rightmost run of p equal letters through the stored
    p-image.  It keeps its own memo on words and shares with the
    exponent-level engine only the explicit-stack loop ``_memoized``.
    """
    env = u.envelope
    K = env.ring
    lie = env.lie
    restricted = env.restricted
    memo = {}

    def rewrite(word):
        pieces = None
        for t in range(len(word) - 2, -1, -1):
            if word[t] > word[t + 1]:
                j, i = word[t], word[t + 1]
                pieces = [(None, word[:t] + (i, j) + word[t + 2:])]
                pieces += [(c, word[:t] + (k,) + word[t + 2:])
                           for k, c in lie.bracket_basis(j, i).items()]
                break
        if restricted is not None and pieces is None:
            p = restricted.p
            for t in range(len(word) - p, -1, -1):
                if len(set(word[t:t + p])) == 1:
                    pieces = [(c, word[:t] + (k,) + word[t + p:])
                              for k, c in restricted.image(word[t]).items()]
                    break
        if pieces is None:
            return {_exponents(lie.dim, word): K.one}
        out = {}
        for c, piece in pieces:
            _accumulate(K, out, (yield piece).items(), c)
        return out

    total = {}
    for ea, ca in u.coeffs.items():
        for eb, cb in v.coeffs.items():
            word = env.word_of(ea) + env.word_of(eb)
            nf = _memoized(memo, word, rewrite)
            _accumulate(K, total, nf.items(), K.mul(ca, cb))
    return env.element(total)


def commutative_multiply(u, v):
    """Product in the associated graded algebra: plain exponent addition."""
    out = {}
    for ea, ca in u.coeffs.items():
        shifted = ((tuple(a + b for a, b in zip(ea, eb)), cb)
                   for eb, cb in v.coeffs.items())
        _accumulate(u.envelope.ring, out, shifted, ca)
    return PbwElement(u.envelope, out)


def is_unit(u):
    """Units of the envelope are exactly the unit scalars of the ring."""
    if u.degree() != 0:
        return False
    return u.envelope.ring.is_unit(u.constant_coefficient())


# ---------------------------------------------------------------------------
# free module bases


@dataclass(frozen=True)
class ModuleBasisVector:
    """One basis monomial of a free module: a generator with a PBW word."""

    generator: str
    exponents: tuple

    @property
    def degree(self):
        return sum(self.exponents)

    def label(self, lie):
        word = "".join(
            lie.labels[i] * a
            for i, a in sorted(enumerate(self.exponents), reverse=True))
        return f"{word}{self.generator}"


def exponents_up_to(dim, degree_cap):
    """PBW exponent vectors by total degree, each degree in lexicographic
    order of its nondecreasing index word."""
    return [
        _exponents(dim, word)
        for degree in range(degree_cap + 1)
        for word in itertools.combinations_with_replacement(range(dim), degree)
    ]


def free_module_basis(lie, generators, degree_cap):
    """Module basis monomials up to the degree cap, generator-major order."""
    return [
        ModuleBasisVector(generator=gen, exponents=exp)
        for gen in generators
        for exp in exponents_up_to(lie.dim, degree_cap)
    ]


def restricted_module_basis(lie, p, generators, degree_cap):
    """As the free basis, but every exponent stays below p."""
    return [
        vec for vec in free_module_basis(lie, generators, degree_cap)
        if all(a < p for a in vec.exponents)
    ]


def multiset_count(dim, degree):
    return math.comb(dim + degree - 1, degree)


class FreeLieModuleElement:
    """Element of a free module over the envelope: coefficients indexed by
    (generator, exponent vector) pairs."""

    def __init__(self, envelope, generators, data):
        self.envelope = envelope
        self.generators = tuple(generators)
        self.data = _accumulate(envelope.ring, {}, data.items())

    def __add__(self, other):
        return FreeLieModuleElement(self.envelope, self.generators, _accumulate(
            self.envelope.ring, dict(self.data), other.data.items()))

    def scale(self, c):
        K = self.envelope.ring
        return FreeLieModuleElement(
            self.envelope, self.generators,
            {key: K.mul(c, x) for key, x in self.data.items()})

    def act(self, u):
        """Left action of an envelope element."""
        out = {}
        for (gen, exp), c in self.data.items():
            product = u * self.envelope.monomial(exp)
            terms = (((gen, exp2), c2) for exp2, c2 in product.coeffs.items())
            _accumulate(self.envelope.ring, out, terms, c)
        return FreeLieModuleElement(self.envelope, self.generators, out)

    def __eq__(self, other):
        return (
            isinstance(other, FreeLieModuleElement)
            and self.envelope == other.envelope
            and self.generators == other.generators
            and self.data == other.data
        )

    def __repr__(self):
        return f"module-elt{sorted(self.data.items())}"


# ---------------------------------------------------------------------------
# semi-morphisms and lifting


class LieSemiMorphism:
    """A scalar automorphism paired with basis images inside the algebra."""

    def __init__(self, lie, delta, images):
        self.lie = lie
        self.delta = delta
        self.images = tuple(clean_vector(lie.ring, dict(img)) for img in images)

    def apply_vector(self, vec):
        out = {}
        for i, c in vec.items():
            _accumulate(self.lie.ring, out, self.images[i].items(), self.delta.apply(c))
        return out

    def matrix(self):
        K = self.lie.ring
        return tuple(
            tuple(self.images[i].get(j, K.zero) for j in range(self.lie.dim))
            for i in range(self.lie.dim))


def chevalley_involution(lie):
    """The swap of the extreme root vectors with negated central element,
    for an sl2-shaped algebra in the (f, h, e) basis order."""
    K = lie.ring
    if lie.dim != 3:
        raise UnsupportedCarrier("the involution needs a three-dimensional algebra")
    return LieSemiMorphism(
        lie, identity_automorphism(K),
        images=({2: K.one}, {1: K.neg(K.one)}, {0: K.one}))


def _determinant(K, matrix):
    d = len(matrix)
    out = K.zero
    for perm in itertools.permutations(range(d)):
        sign = 1
        seen = list(perm)
        for a in range(d):
            for b in range(a + 1, d):
                if seen[a] > seen[b]:
                    sign = -sign
        term = K.one
        for i in range(d):
            term = K.mul(term, matrix[i][perm[i]])
        out = K.add(out, term if sign > 0 else K.neg(term))
    return out


class EnvelopeSemiMorphism:
    """Ring map of the envelope determined by a scalar automorphism and the
    images of the degree-one generators."""

    def __init__(self, envelope, delta, generator_images, name="ringmap"):
        self.envelope = envelope
        self.delta = delta
        self.generator_images = tuple(generator_images)
        self.name = name
        self._monomial_cache = {}

    def _monomial_image(self, exp):
        cached = self._monomial_cache.get(exp)
        if cached is not None:
            return cached
        out = self.envelope.one()
        for i, a in enumerate(exp):
            for _ in range(a):
                out = out * self.generator_images[i]
        self._monomial_cache[exp] = out
        return out

    def apply(self, u):
        K = self.envelope.ring
        out = {}
        for exp, c in u.coeffs.items():
            image = self._monomial_image(exp).coeffs
            _accumulate(K, out, image.items(), self.delta.apply(c))
        return PbwElement(self.envelope, out)

    def then(self, other):
        return EnvelopeSemiMorphism(
            self.envelope,
            self.delta.then(other.delta),
            tuple(other.apply(img) for img in self.generator_images),
            name=f"{self.name};{other.name}")

    def __repr__(self):
        return f"envelope-map<{self.name}>"


def lift_semi_automorphism(theta, envelope=None, seed=0, spot_checks=10,
                           check_degree=2):
    """Extend a bracket-preserving semilinear bijection of the algebra to the
    envelope, by mapping generator factors and re-straightening.

    Bracket preservation is checked on every basis pair, bijectivity through
    the determinant of the image matrix, and multiplicativity of the lift on
    a handful of seeded sample pairs.
    """
    lie = theta.lie
    K = lie.ring
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            lhs = theta.apply_vector(lie.bracket_basis(i, j))
            rhs = lie.bracket(theta.images[i], theta.images[j])
            if clean_vector(K, lhs) != clean_vector(K, rhs):
                raise NotBracketPreserving((i, j))
    det = _determinant(K, theta.matrix())
    if not K.is_unit(det):
        raise NotAnAutomorphism(
            f"image matrix determinant {det!r} is not a unit; the map is not bijective")
    env = envelope if envelope is not None else UniversalEnvelope(lie)
    lifted = EnvelopeSemiMorphism(
        env, theta.delta,
        tuple(env.from_vector(img) for img in theta.images),
        name="lifted")
    rng = random.Random(f"{seed}:lift")
    for _ in range(spot_checks):
        u = env.sample_element(rng, max_degree=check_degree)
        v = env.sample_element(rng, max_degree=check_degree)
        if lifted.apply(u * v) != lifted.apply(u) * lifted.apply(v):
            raise NotBracketPreserving(
                (u, v), "lift failed a multiplicativity spot check")
        if lifted.apply(u + v) != lifted.apply(u) + lifted.apply(v):
            raise NotBracketPreserving(
                (u, v), "lift failed an additivity spot check")
    return lifted


# ---------------------------------------------------------------------------
# the truncated envelope as a matrix-category carrier


class UEnvelopeSemiring(Semiring):
    """The envelope truncated at a total degree, exposed with the semiring
    interface so the matrix-category machinery runs over it.

    Products escaping the truncation raise DegreeCapExceeded rather than
    silently dropping terms.
    """

    def __init__(self, envelope, degree_cap):
        self.envelope = envelope
        self.degree_cap = degree_cap
        self.zero = envelope.zero()
        self.one = envelope.one()
        self.name = f"U({'/'.join(envelope.lie.labels)})<= {degree_cap}"

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        out = a * b
        degree = out.degree()
        if degree is not None and degree > self.degree_cap:
            raise DegreeCapExceeded(
                f"product degree {degree} escapes the cap {self.degree_cap}")
        return out

    def sample_element(self, rng):
        return self.envelope.sample_element(
            rng, max_degree=max(0, self.degree_cap // 2))

    def try_unit_inverse(self, u):
        if not is_unit(u):
            return None
        inv = self.envelope.ring.try_unit_inverse(u.constant_coefficient())
        return self.envelope.scalar(inv)

    def value_to_json(self, u):
        K = self.envelope.ring
        return [
            [list(exp), K.value_to_json(c)]
            for exp, c in sorted(u.coeffs.items())
        ]

    def key(self):
        return ("uenv", self.envelope.key(), self.degree_cap)


def hat_sigma_conjugate(sigma, nu, rng=None, linearity_samples=0):
    """Apply a ring map of the envelope entrywise to a matrix over it.

    This realizes conjugation of the module map by the coefficientwise
    semilinear bijections; the result stays a module map.  Optionally runs
    seeded scalar-linearity sample checks on the output.
    """
    carrier = nu.semiring
    if not isinstance(carrier, UEnvelopeSemiring):
        raise UnsupportedCarrier("the matrix must live over a truncated envelope")
    out = nu.map_entries(sigma.apply)
    for row in out.entries:
        for entry in row:
            degree = entry.degree()
            if degree is not None and degree > carrier.degree_cap:
                raise DegreeCapExceeded(
                    f"conjugated entry degree {degree} escapes the cap")
    if rng is not None and linearity_samples:
        n = out.dom.rank
        entry_degree = max(
            (e.degree() or 0 for row in out.entries for e in row), default=0)
        slack = max(0, carrier.degree_cap - entry_degree)
        for _ in range(linearity_samples):
            scalar = carrier.envelope.sample_element(
                rng, max_degree=min(1, slack))
            vector = tuple(
                carrier.envelope.sample_element(
                    rng, max_degree=max(0, slack - 1))
                for _ in range(n))
            scaled = tuple(carrier.mul(scalar, x) for x in vector)
            left = out.act(scaled)
            right = tuple(carrier.mul(scalar, x) for x in out.act(vector))
            if left != right:
                raise NotAnAutomorphism(
                    f"conjugated matrix lost linearity at {scalar!r}")
    return out


@dataclass
class CyclicUnitsReport(VerificationReport):
    """The unit checks on a truncated envelope, with the scalar units found."""

    unit_count: int = 0
    units: list = field(default_factory=list)


def cyclic_aut_check(envelope, degree_cap, seed=0, scan_bound=8, samples=25):
    """Characterize the invertible 1x1 matrices over the truncated envelope.

    The invertible scalars must be exactly the units of the coefficient ring
    embedded in degree zero; sampled positive-degree elements must fail the
    unit test, and a direct product sweep re-refutes a degree-one candidate.
    """
    K = envelope.ring
    records = []
    if K.is_finite:
        units = [c for c in K.elements() if K.is_unit(c)]
        found = [c for c in K.elements() if is_unit(envelope.scalar(c))]
        records.append(Check(
            f"unit-scalars({len(found)})", "exhaustive",
            "pass" if found == units else "fail", checked=len(K.elements())))
    elif K.characteristic == 0 and K.name == "Z":
        units = [c for c in range(-scan_bound, scan_bound + 1)
                 if is_unit(envelope.scalar(c))]
        records.append(Check(
            "unit-scalars({-1,1})", "sampled",
            "pass" if sorted(units) == [-1, 1] else "fail",
            checked=2 * scan_bound + 1, seed=seed))
    else:
        rng0 = random.Random(f"{seed}:qunits")
        units = []
        ok = all(
            is_unit(envelope.scalar(c)) == (not K.eq(c, K.zero))
            for c in (K.sample_element(rng0) for _ in range(samples)))
        records.append(Check(
            "unit-scalars(K*)", "sampled", "pass" if ok else "fail", seed=seed))

    rng = random.Random(f"{seed}:cyclic")
    ok = not any(
        u.degree() not in (None, 0) and is_unit(u) for u in (
            envelope.sample_element(rng, max_degree=max(1, degree_cap))
            for _ in range(samples)))
    records.append(Check(
        "positive-degree-non-units", "sampled", "pass" if ok else "fail",
        seed=seed))

    candidate = envelope.one() + envelope.generator(envelope.lie.dim - 1)
    refuted = not is_unit(candidate) and not any(
        candidate * envelope.sample_element(rng, max_degree=max(0, degree_cap - 1))
        == envelope.one() for _ in range(samples))
    records.append(Check(
        "one-plus-generator-refuted", "sampled", "pass" if refuted else "fail",
        seed=seed))
    return CyclicUnitsReport(
        subject=K.name,
        records=records,
        unit_count=len(units),
        units=[K.value_to_json(c) for c in units],
    )
