"""Matrix category of finitely generated free (left) semimodules.

Conventions used throughout the library:

* composition is diagrammatic: ``f.then(g)`` means "f first, then g", and is
  the matrix product A_f * A_g;
* a morphism n -> m is an n x m grid, and elements of the rank-n free
  semimodule are length-n row vectors acting by ``a |-> a @ A``;
* the rank-0 object is the zero object, with empty matrices.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import (
    DimensionMismatch,
    MissingIso,
    NonInvertibleFamily,
    SearchCapExceeded,
    SemiringMismatch,
    ZeroRank,
)

DEFAULT_INVERT_CAP = 400_000


class FreeObject(tuple):
    """A free semimodule of finite rank as a (rank, label) tuple, so that it
    compares and hashes in C; canonical skeleton objects are 'F<n>'."""

    __slots__ = ()

    def __new__(cls, rank, label=""):
        if rank < 0:
            raise DimensionMismatch(f"negative rank {rank}")
        return tuple.__new__(cls, (rank, label or f"F{rank}"))

    rank = property(operator.itemgetter(0))
    label = property(operator.itemgetter(1))

    @property
    def is_canonical(self):
        return self.label == f"F{self.rank}"

    def __repr__(self):
        return self.label


def canonical(rank):
    return FreeObject(rank)


def _as_object(obj_or_rank):
    if isinstance(obj_or_rank, FreeObject):
        return obj_or_rank
    return FreeObject(obj_or_rank)


class Morphism:
    """A matrix over a semiring, read as a map between free semimodules."""

    __slots__ = ("semiring", "dom", "cod", "entries")

    def __init__(self, semiring, dom, cod, entries):
        dom = _as_object(dom)
        cod = _as_object(cod)
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != dom.rank:
            raise DimensionMismatch(
                f"{len(entries)} rows for domain rank {dom.rank}")
        for row in entries:
            if len(row) != cod.rank:
                raise DimensionMismatch(
                    f"row of length {len(row)} for codomain rank {cod.rank}")
        self.semiring = semiring
        self.dom = dom
        self.cod = cod
        self.entries = entries

    def then(self, other):
        """Diagrammatic composite self ; other (matrix product)."""
        if self.semiring != other.semiring:
            raise SemiringMismatch(
                f"{self.semiring.name} vs {other.semiring.name}")
        if self.cod != other.dom:
            raise DimensionMismatch(f"cannot compose {self} with {other}")
        R = self.semiring
        entries = _mat_mul(R, self.entries, other.entries, other.cod.rank)
        return Morphism(R, self.dom, other.cod, entries)

    def __add__(self, other):
        if self.semiring != other.semiring:
            raise SemiringMismatch(
                f"{self.semiring.name} vs {other.semiring.name}")
        if self.dom != other.dom or self.cod != other.cod:
            raise DimensionMismatch(f"cannot add {self} and {other}")
        R = self.semiring
        entries = tuple(
            tuple(R.add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries))
        return Morphism(R, self.dom, self.cod, entries)

    def map_entries(self, fn):
        """Apply a carrier map entrywise (same semiring, same shape)."""
        return Morphism(
            self.semiring, self.dom, self.cod,
            tuple(tuple(fn(e) for e in row) for row in self.entries))

    def act(self, vector):
        """Row-vector action: a |-> a @ A."""
        if len(vector) != self.dom.rank:
            raise DimensionMismatch("vector length does not match domain rank")
        return _mat_mul(self.semiring, (vector,), self.entries, self.cod.rank)[0]

    def is_identity(self):
        if self.dom.rank != self.cod.rank:
            return False
        return self.entries == _identity_entries(self.semiring, self.dom.rank)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Morphism)
            and self.entries == other.entries
            and self.dom == other.dom
            and self.cod == other.cod
            and self.semiring == other.semiring
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.entries))

    def __repr__(self):
        return f"{self.dom}->{self.cod}{list(list(r) for r in self.entries)}"


def _mat_mul(R, a_entries, b_entries, cod_rank):
    mul = R.mul
    add = R.add
    zero = R.zero
    m = len(b_entries)
    out = []
    for row in a_entries:
        new_row = []
        for t in range(cod_rank):
            acc = zero
            for j in range(m):
                acc = add(acc, mul(row[j], b_entries[j][t]))
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def _identity_entries(R, n):
    return tuple(
        tuple(R.one if i == j else R.zero for j in range(n)) for i in range(n))


def identity(semiring, obj_or_rank):
    obj = _as_object(obj_or_rank)
    return Morphism(semiring, obj, obj, _identity_entries(semiring, obj.rank))


def zero_morphism(semiring, dom, cod):
    dom = _as_object(dom)
    cod = _as_object(cod)
    return Morphism(
        semiring, dom, cod,
        tuple(tuple(semiring.zero for _ in range(cod.rank)) for _ in range(dom.rank)))


def from_entries(semiring, entries, dom=None, cod=None):
    entries = [list(row) for row in entries]
    n = len(entries)
    m = len(entries[0]) if entries else 0
    return Morphism(
        semiring,
        _as_object(dom if dom is not None else n),
        _as_object(cod if cod is not None else m),
        entries)


def morphism_to_json(m):
    return {
        "semiring": m.semiring.name,
        "dom": m.dom.rank,
        "cod": m.cod.rank,
        "entries": [[m.semiring.value_to_json(e) for e in row] for row in m.entries],
    }


class BiproductSystem:
    """Unit-row injections, unit-column projections, and the fold map of F_n."""

    def __init__(self, semiring, rank):
        if rank < 1:
            raise ZeroRank("the zero object has an empty biproduct system")
        R = semiring
        self.semiring = R
        self.rank = rank
        one, zero = R.one, R.zero
        f1 = FreeObject(1)
        fn = FreeObject(rank)
        self.injections = tuple(
            Morphism(R, f1, fn, ((tuple(one if j == i else zero for j in range(rank)),)))
            for i in range(rank))
        self.projections = tuple(
            Morphism(R, fn, f1, tuple((one,) if j == i else (zero,) for j in range(rank)))
            for i in range(rank))
        self.codiagonal = Morphism(R, fn, f1, tuple((one,) for _ in range(rank)))
        for i, mu in enumerate(self.injections):
            defect = biproduct_defect(self.injections, self.projections, i)
            if defect or not mu.then(self.codiagonal).is_identity():
                raise DimensionMismatch(defect or "codiagonal pairing broken")


def biproduct_defect(mu, pi, i):
    """Why row i of the biproduct relations fails for mu and pi, or None.

    ``mu`` and ``pi`` are the n injections A -> B and projections B -> A of a
    would-be biproduct B of n copies of A.  Row i holds when mu_i;pi_i = id
    and mu_i;pi_j = 0 for j != i; the last row also needs the sum of the
    pi_j;mu_j to be the identity.  The witness names the rank n.
    """
    n = len(mu)
    R = mu[i].semiring
    k = mu[i].dom.rank
    if not mu[i].then(pi[i]).is_identity():
        return f"image injection/projection pairing broken at rank {n}"
    nought = ((R.zero,) * k,) * k
    if any(mu[i].then(pi[j]).entries != nought for j in range(n) if j != i):
        return f"image cross pairing not zero at rank {n}"
    if i == n - 1 and not functools.reduce(
            Morphism.__add__, (p.then(m) for p, m in zip(pi, mu))).is_identity():
        return f"image biproduct sum is not the identity at rank {n}"
    return None


def biproduct_system(semiring, rank):
    return BiproductSystem(semiring, rank)


# ---------------------------------------------------------------------------
# enumeration and inversion


def count_morphisms(semiring, n, m):
    if not semiring.is_finite:
        return None
    return semiring.size ** (n * m)


def enumerate_morphisms(semiring, n, m, dom=None, cod=None):
    """All morphisms n -> m over a finite carrier, in row-major lexicographic order."""
    elements = list(semiring.elements())
    dom = _as_object(dom if dom is not None else n)
    cod = _as_object(cod if cod is not None else m)
    if n == 0 or m == 0:
        yield zero_morphism(semiring, dom, cod)
        return
    for flat in itertools.product(elements, repeat=n * m):
        entries = tuple(flat[i * m:(i + 1) * m] for i in range(n))
        yield Morphism(semiring, dom, cod, entries)


def random_morphism(semiring, n, m, rng, dom=None, cod=None):
    dom = _as_object(dom if dom is not None else n)
    cod = _as_object(cod if cod is not None else m)
    entries = tuple(
        tuple(semiring.sample_element(rng) for _ in range(m)) for _ in range(n))
    return Morphism(semiring, dom, cod, entries)


def _try_monomial_inverse(m):
    """Inverse of a generalized permutation matrix (unit entries), or None."""
    R = m.semiring
    n = m.dom.rank
    zero = R.zero
    position = [None] * n
    seen_cols = set()
    for i in range(n):
        nonzero = [j for j in range(n) if not R.eq(m.entries[i][j], zero)]
        if len(nonzero) != 1 or nonzero[0] in seen_cols:
            return None
        j = nonzero[0]
        inv = R.try_unit_inverse(m.entries[i][j])
        if inv is None:
            return None
        position[i] = (j, inv)
        seen_cols.add(j)
    entries = [[zero] * n for _ in range(n)]
    for i, (j, inv) in enumerate(position):
        entries[j][i] = inv
    cand = Morphism(R, m.cod, m.dom, entries)
    if m.then(cand).is_identity() and cand.then(m).is_identity():
        return cand
    return None


def invert(m, cap=DEFAULT_INVERT_CAP):
    """Two-sided inverse of a square morphism, or None if provably absent.

    Tries unit/monomial fast paths first.  On finite carriers it then acts
    with m on each of the |R|^n row vectors once and reads the inverse off
    the preimages of the unit rows, so a matrix costs at most |R|^n row
    actions.  Raises SearchCapExceeded when the |R|^(n^2) candidate matrices
    exceed the cap and no fast path applied: that outcome is "undecided",
    not "no inverse".
    """
    if m.dom.rank != m.cod.rank:
        raise DimensionMismatch("only square morphisms can be inverted")
    n = m.dom.rank
    R = m.semiring
    if n == 0:
        return Morphism(R, m.cod, m.dom, ())
    if n == 1:
        inv = R.try_unit_inverse(m.entries[0][0])
        if inv is None:
            return None
        return Morphism(R, m.cod, m.dom, ((inv,),))
    fast = _try_monomial_inverse(m)
    if fast is not None:
        return fast
    if not R.is_finite:
        raise SearchCapExceeded(
            f"cannot search for an inverse over the infinite carrier {R.name}")
    total = R.size ** (n * n)
    if total > cap:
        raise SearchCapExceeded(f"{total} inverse candidates exceed the cap {cap}")
    # v |-> v.m is additive and R-linear on the finite set R^n.  An inverse
    # makes it injective; an injective self-map of a finite set is a
    # bijection, whose inverse is again linear, i.e. w |-> w.B for the B
    # whose rows are the preimages of the unit rows.  Then mB = Bm = I.
    preimage = {}
    for v in itertools.product(R.elements(), repeat=n):
        image = m.act(v)
        if image in preimage:
            return None
        preimage[image] = v
    cand = Morphism(
        R, m.cod, m.dom, [preimage[row] for row in _identity_entries(R, n)])
    if m.then(cand).is_identity() and cand.then(m).is_identity():
        return cand
    return None


def random_invertible(semiring, n, rng, cap=DEFAULT_INVERT_CAP):
    """A uniformly random invertible n x n morphism and its inverse.

    Rejection sampling: random matrices are drawn until one inverts, each
    charged the |R|^n row actions of ``invert``, so at most cap // |R|^n are
    drawn.  Raises SearchCapExceeded past the cap or on an infinite carrier.
    """
    if not semiring.is_finite:
        raise SearchCapExceeded("drawing an invertible matrix needs a finite carrier")
    total = semiring.size ** (n * n)
    if total > cap:
        raise SearchCapExceeded(f"{total} candidate matrices exceed the cap {cap}")
    draws = cap // semiring.size ** n
    for _ in range(draws):
        m = random_morphism(semiring, n, n, rng)
        inv = invert(m, cap)
        if inv is not None:
            return m, inv
    raise SearchCapExceeded(
        f"none of {draws} random {n}x{n} matrices inverts within the cap {cap}")


# ---------------------------------------------------------------------------
# iso families, functors, skeleton transport


class IsoFamily:
    """Invertible morphisms t_A: A -> A', one per covered object, with inverses.

    The family acts by conjugation: ``conjugate(f)`` is t_A^-1 ; f ; t_B for
    f: A -> B, and ``unconjugate(g, A, B)`` is t_A ; g ; t_B^-1, its inverse.
    Both are keyed by the endpoints A and B of the original morphism.  A
    rank-0 object the family does not cover conjugates through the unique
    empty morphism to F0.  ``inverses``, keyed like ``assignments``, are
    taken as given; without them each inverse is found with ``invert``.
    """

    def __init__(self, assignments, inverses=None, require_canonical_identity=False):
        self._pairs = {}
        for key, morphism in assignments.items():
            obj = _as_object(key)
            if morphism.dom != obj:
                raise MissingIso(f"iso for {obj} does not start at it")
            inv = invert(morphism) if inverses is None else inverses[key]
            if inv is None:
                raise NonInvertibleFamily(f"iso for {obj} has no two-sided inverse")
            if require_canonical_identity and obj.is_canonical and not morphism.is_identity():
                raise MissingIso(f"canonical object {obj} must carry the identity")
            self._pairs[obj] = (morphism, inv)

    @classmethod
    def identities(cls, semiring, objects):
        isos = {obj: identity(semiring, obj) for obj in objects}
        return cls(isos, isos)

    @property
    def components(self):
        """The ranks of the covered objects, in assignment order."""
        return [obj.rank for obj in self._pairs]

    def objects(self):
        return list(self._pairs)

    def component(self, obj):
        return self._pair(_as_object(obj))[0]

    def inverse(self, obj):
        return self._pair(_as_object(obj))[1]

    def _pair(self, obj, semiring=None):
        """(t_A, t_A^-1); given a semiring, an uncovered rank-0 object gets
        the empty morphisms to and from F0."""
        got = self._pairs.get(obj)
        if got is not None:
            return got
        if obj.rank == 0 and semiring is not None:
            return (Morphism(semiring, obj, canonical(0), ()),
                    Morphism(semiring, canonical(0), obj, ()))
        raise MissingIso(f"no isomorphism assigned to {obj}")

    def conjugate(self, f):
        """t_A^-1 ; f ; t_B for f: A -> B."""
        _, dom_inv = self._pair(f.dom, f.semiring)
        cod_iso, _ = self._pair(f.cod, f.semiring)
        return dom_inv.then(f).then(cod_iso)

    def unconjugate(self, g, dom, cod):
        """t_A ; g ; t_B^-1 for the endpoints A = dom, B = cod of the original
        morphism, so that ``unconjugate(conjugate(f), f.dom, f.cod) == f``."""
        dom_iso, _ = self._pair(dom, g.semiring)
        _, cod_inv = self._pair(cod, g.semiring)
        return dom_iso.then(g).then(cod_inv)

    def square_commutes(self, base_image, target_image):
        """base(f) ; t_B == t_A ; target(f) for f: A -> B."""
        return (base_image.then(self.component(base_image.cod))
                == self.component(base_image.dom).then(target_image))

    def verify(self, target, morphisms):
        """Check target(f) == t_A^-1 ; f ; t_B over the given morphisms."""
        for f in morphisms:
            if target.on_morphism(f) != self.conjugate(f):
                return False, f
        return True, None


class BlackBoxFunctor:
    """An opaque endofunctor on the rank-truncated matrix category.

    Nothing is checked at construction; verification is an explicit operation.
    The morphism action must be pure (it may be swept in parallel).
    """

    def __init__(self, semiring, morphism_action, object_action=None, cap=2,
                 name="functor"):
        self.semiring = semiring
        self.morphism_action = morphism_action
        self.object_action = object_action
        self.cap = cap
        self.name = name

    def on_object(self, obj):
        obj = _as_object(obj)
        if self.object_action is None:
            return obj
        return self.object_action(obj)

    def on_morphism(self, m):
        image = self.morphism_action(m)
        expected_dom = self.on_object(m.dom)
        expected_cod = self.on_object(m.cod)
        if image.dom != expected_dom or image.cod != expected_cod:
            raise DimensionMismatch(
                f"{self.name} sent {m.dom}->{m.cod} to {image.dom}->{image.cod}")
        return image

    def __repr__(self):
        return f"<functor {self.name} cap={self.cap}>"


def identity_functor(semiring, cap=2):
    return BlackBoxFunctor(semiring, lambda m: m, cap=cap, name="identity")


def skeleton_transport(phi_bar, isos):
    """Extend a functor defined on canonical objects to labeled ones.

    The extension conjugates through the supplied object isomorphisms: a
    morphism is transported to the skeleton, pushed through phi_bar, and
    transported back.  On canonical objects (identity isos) it agrees with
    phi_bar exactly.  Rank-0 objects need no assignment: their isomorphism to
    the skeleton is the unique empty morphism.
    """

    def action(f):
        return isos.unconjugate(phi_bar.on_morphism(isos.conjugate(f)), f.dom, f.cod)

    return BlackBoxFunctor(
        phi_bar.semiring, action, cap=phi_bar.cap,
        name=f"{phi_bar.name}^transported")
