"""Shared helpers for the test suite: perturbation generators, independent
oracles, and small enumeration utilities kept separate from the library."""

import itertools
from fractions import Fraction

from semicat import _galois as G
from semicat import semirings as S
from semicat.errors import (
    AxiomViolation,
    DegreeCapExceeded,
    NotAnAutomorphism,
    Record,
    SemicatError,
    SemiringMismatch,
    UnsupportedCarrier,
)
from semicat.lie import RationalField, _exponents, _rational, is_unit


def catalog_finite():
    return [
        S.boolean_semiring(),
        S.zmod_semiring(4),
        S.galois_semiring(4),
        S.trivial_semiring(),
    ]


def catalog_infinite():
    return [S.NaturalsSemiring(), S.IntegersSemiring(), S.TropicalSemiring()]


def catalog_all():
    return catalog_finite() + catalog_infinite()


def upper_triangular_boolean():
    """The eight 2x2 upper-triangular boolean matrices, as a table semiring.

    Elements are encoded as a*4 + b*2 + c for the matrix [[a, b], [0, c]];
    a genuinely noncommutative catalog extra.
    """

    def unpack(i):
        return (i >> 2) & 1, (i >> 1) & 1, i & 1

    def pack(a, b, c):
        return a * 4 + b * 2 + c

    def b_or(x, y):
        return x | y

    size = 8
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for i in range(size):
        a1, b1, c1 = unpack(i)
        for j in range(size):
            a2, b2, c2 = unpack(j)
            add[i][j] = pack(b_or(a1, a2), b_or(b1, b2), b_or(c1, c2))
            mul[i][j] = pack(a1 & a2, (a1 & b2) | (b1 & c2), c1 & c2)
    return S.validate_semiring(add, mul, pack(0, 0, 0), pack(1, 0, 1), "ut2(boolean)")


def matrix_ring_f2():
    """M_2(F_2), the sixteen 2x2 matrices over the two-element field.

    Elements are encoded as a*8 + b*4 + c*2 + d for [[a, b], [c, d]]: a
    noncommutative Artinian ring whose six automorphisms are all inner.
    """

    def unpack(i):
        return (i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1

    def pack(a, b, c, d):
        return a * 8 + b * 4 + c * 2 + d

    size = 16
    add = [[i ^ j for j in range(size)] for i in range(size)]
    mul = [[0] * size for _ in range(size)]
    for i in range(size):
        a1, b1, c1, d1 = unpack(i)
        for j in range(size):
            a2, b2, c2, d2 = unpack(j)
            mul[i][j] = pack((a1 & a2) ^ (b1 & c2), (a1 & b2) ^ (b1 & d2),
                             (c1 & a2) ^ (d1 & c2), (c1 & b2) ^ (d1 & d2))
    return S.validate_semiring(add, mul, pack(0, 0, 0, 0), pack(1, 0, 0, 1), "M2(gf:2)")


def single_entry_perturbations(semiring):
    """All tables differing from the input in exactly one cell, in a fixed order."""
    size = semiring.size
    for which in ("add", "mul"):
        base = semiring.add_table if which == "add" else semiring.mul_table
        for i in range(size):
            for j in range(size):
                for value in range(size):
                    if value == base[i][j]:
                        continue
                    table = [list(row) for row in base]
                    table[i][j] = value
                    if which == "add":
                        yield (which, i, j, value), table, [
                            list(r) for r in semiring.mul_table]
                    else:
                        yield (which, i, j, value), [
                            list(r) for r in semiring.add_table], table


def rejected_perturbations(semiring, limit):
    """The first ``limit`` single-entry perturbations that validate rejects,
    each with its (verified-incorrect) witness."""
    out = []
    for where, add, mul in single_entry_perturbations(semiring):
        try:
            S.validate_semiring(add, mul, semiring.zero, semiring.one)
        except AxiomViolation as exc:
            out.append((where, add, mul, exc))
            if len(out) == limit:
                break
    return out


def unrolled_axiom_witness(add, mul, zero, one, axiom):
    """First witness violating the axiom over raw tables, or None if it holds:
    one plain loop per axiom over every argument tuple, in lexicographic order.

    The oracle of ``semirings.find_axiom_witness``, which compares whole rows.
    """
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


def word_exponents_up_to(dim, degree_cap):
    """PBW exponent vectors by total degree, each degree in lexicographic
    order of its nondecreasing index word, counted letter by letter.

    The oracle of ``lie.exponents_up_to``, which builds each vector directly.
    """
    out = []
    for total in range(degree_cap + 1):
        for word in itertools.combinations_with_replacement(range(dim), total):
            exp = [0] * dim
            for letter in word:
                exp[letter] += 1
            out.append(tuple(exp))
    return out


def monomials_up_to(envelope, degree):
    """Every PBW monomial of total degree <= the bound, unit coefficient."""
    return [envelope.monomial(exp)
            for exp in word_exponents_up_to(envelope.lie.dim, degree)]


def whole_word_rewriting(u, v):
    """Independent cross-check route for products.

    Flattens monomial pairs to generator words and rewrites whole words: the
    rightmost out-of-order adjacent pair first through the bracket, then (in
    restricted mode) the rightmost run of p equal letters through the stored
    p-image.  It keeps its own memo on words and shares with the
    exponent-level engine only the explicit-stack loop ``_memoized``.

    The oracle of ``lie.multiply_by_word_rewriting``, which memoizes the
    rewritten segment instead of the whole word.
    """
    from semicat.lie import _accumulate, _exponents, _memoized

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


def reference_sample_element(envelope, rng, max_degree=2, terms=2):
    """``UniversalEnvelope.sample_element`` as first written, the reference
    its draws are pinned to.

    Each term sorts a word of random letters, drops it when a letter occurs p
    times in restricted mode, and draws a coefficient; over Q the coefficient
    is built as a ``Fraction`` and then made ``int`` when integral.
    """
    K = envelope.ring
    dim = envelope.lie.dim
    out = {}
    for _ in range(terms):
        degree = rng.randrange(max_degree + 1)
        word = tuple(sorted(rng.randrange(dim) for _ in range(degree)))
        if envelope.restricted and any(
                word.count(i) >= envelope.restricted.p for i in set(word)):
            continue
        exp = _exponents(dim, word)
        if isinstance(K, RationalField):
            c = _rational(Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3))))
        else:
            c = K.sample_element(rng)
        if c != K.zero:
            out[exp] = K.add(out.get(exp, K.zero), c)
    return envelope.element(out)


def repeated_product_power(mul, one, a, n):
    """a^n as n products one after another, the reference for the repeated
    squaring of ``CoefficientRing.power`` and ``lie._mat_pow_k``."""
    out = one
    for _ in range(n):
        out = mul(out, a)
    return out


def pairwise_gf_tables(q):
    """GF(q) add and mul tables by one polynomial product and reduction per
    pair of elements, the reference for ``_galois.gf_tables``."""
    p, k = G.factor_prime_power(q)
    modulus = G._first_irreducible(p, k)
    digits = [list(G._digits(a, p, k)) for a in range(q)]
    add = [[G._index([(x + y) % p for x, y in zip(da, db)], p) for db in digits]
           for da in digits]
    mul = [[G._index(G._poly_mod(G._poly_mul(da, db, p), modulus, p), p)
            for db in digits] for da in digits]
    return add, mul


def brute_force_inverse(semiring, entries):
    """Two-sided inverse of a square matrix by a pair scan over every
    candidate matrix with a plain triple-loop product, or None."""
    n = len(entries)
    ident = tuple(
        tuple(semiring.one if i == j else semiring.zero for j in range(n))
        for i in range(n))

    def product(a, b):
        return tuple(
            tuple(semiring.sum(semiring.mul(a[i][k], b[k][j]) for k in range(n))
                  for j in range(n))
            for i in range(n))

    for flat in itertools.product(semiring.elements(), repeat=n * n):
        cand = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if product(entries, cand) == ident and product(cand, entries) == ident:
            return cand
    return None


def invertible_morphisms(semiring, n):
    """All (M, M_inverse) pairs of invertible n x n morphisms over a finite
    carrier, in lexicographic order, by inverting every candidate matrix."""
    from semicat import matcat as M

    out = []
    for a in M.enumerate_morphisms(semiring, n, n):
        b = M.invert(a)
        if b is not None:
            out.append((a, b))
    return out


def permutation_automorphisms(semiring):
    """The perms of every automorphism of a finite carrier, sorted, by a loop
    over all (size-2)! bijections that fix 0 and 1."""
    size = semiring.size
    movable = [i for i in range(size) if i not in (semiring.zero, semiring.one)]
    out = []
    for images in itertools.permutations(movable):
        perm = list(range(size))
        for slot, img in zip(movable, images):
            perm[slot] = img
        if S.is_semiring_automorphism(semiring, perm):
            out.append(tuple(perm))
    return sorted(out)


def pair_scan_iso_witness(semiring, n, m):
    """The first (A: n x m, B: m x n) entries with A;B and B;A identities, or
    None, by a scan over every pair in column-major odometer order."""
    R = semiring

    def matrices(rows, cols):
        for flat in itertools.product(R.elements(), repeat=rows * cols):
            yield tuple(
                tuple(flat[j * rows + i] for j in range(cols)) for i in range(rows))

    def is_identity_product(a, b):
        return all(
            R.sum(R.mul(a[i][j], b[j][t]) for j in range(len(b)))
            == (R.one if i == t else R.zero)
            for i in range(len(a)) for t in range(len(a)))

    for a in matrices(n, m):
        for b in matrices(m, n):
            if is_identity_product(a, b) and is_identity_product(b, a):
                return a, b
    return None


def extend_witness(witness, steps_up=0, pad=0):
    """Transport an F_n ~ F_{n+h} witness to larger / congruent ranks.

    ``pad`` block-extends both matrices by an identity of that rank (giving
    F_{n+pad} ~ F_{n+h+pad}); ``steps_up`` then chains the padded witness,
    moving up by h each time.  The result is re-verified.
    """
    from semicat.matcat import identity

    a, b = witness
    R = a.semiring
    if pad:
        a = _block_diag(a, identity(R, pad))
        b = _block_diag(b, identity(R, pad))
    base_a, base_b = a, b
    h = base_a.cod.rank - base_a.dom.rank
    for step in range(1, steps_up + 1):
        a = a.then(_block_diag(base_a, identity(R, step * h)))
        b = _block_diag(base_b, identity(R, step * h)).then(b)
    if not (a.then(b).is_identity() and b.then(a).is_identity()):
        raise AssertionError("transported witness failed verification")
    return a, b


def _block_diag(m, other):
    from semicat.matcat import Morphism

    R = m.semiring
    left, right = (R.zero,) * m.cod.rank, (R.zero,) * other.cod.rank
    return Morphism(
        R, m.dom.rank + other.dom.rank, m.cod.rank + other.cod.rank,
        [row + right for row in m.entries] + [left + row for row in other.entries])


def pairwise_laws_hold(functor):
    """Whether the functor preserves every sum and every composite of
    morphisms up to its cap, by a plain pairwise sweep over raw entries
    with an entrywise sum and a triple-loop product."""
    from semicat import matcat as M

    R = functor.semiring
    ranks = range(functor.cap + 1)
    space = {
        (n, m): [f.entries for f in M.enumerate_morphisms(R, n, m)]
        for n in ranks for m in ranks}
    image = {
        (n, m, f.entries): functor.on_morphism(f).entries
        for n in ranks for m in ranks for f in M.enumerate_morphisms(R, n, m)}

    def add(a, b):
        return tuple(tuple(R.add(x, y) for x, y in zip(ra, rb))
                     for ra, rb in zip(a, b))

    def product(a, b, inner, k):
        out = []
        for row in a:
            new_row = []
            for t in range(k):
                acc = R.zero
                for j in range(inner):
                    acc = R.add(acc, R.mul(row[j], b[j][t]))
                new_row.append(acc)
            out.append(tuple(new_row))
        return tuple(out)

    for (n, m), fs in space.items():
        for f in fs:
            for g in fs:
                if image[(n, m, add(f, g))] != add(image[(n, m, f)], image[(n, m, g)]):
                    return False
    for n in ranks:
        for m in ranks:
            for k in ranks:
                for f in space[(n, m)]:
                    f_image = image[(n, m, f)]
                    for g in space[(m, k)]:
                        lhs = image[(n, k, product(f, g, m, k))]
                        if lhs != product(f_image, image[(m, k, g)], m, k):
                            return False
    return True


class CapMismatch(SemicatError):
    """Two semi-inner data with different rank caps."""


def decompose_stable_inner(functor, isos):
    """Split an equinumerous functor as an object-fixing part and a conjugation.

    ``isos`` assigns each object A an isomorphism A -> F(A).  The stable part
    conjugates the functor action back to the original objects; the inner part
    is conjugation by the family itself.  Applying the stable part and then
    the inner part reproduces the input pointwise.
    """
    from semicat import matcat as M

    stable = M.BlackBoxFunctor(
        functor.semiring,
        lambda f: isos.unconjugate(functor.on_morphism(f), f.dom, f.cod),
        cap=functor.cap, name=f"{functor.name}^stable")
    inner = M.BlackBoxFunctor(
        functor.semiring, isos.conjugate, object_action=functor.on_object,
        cap=functor.cap, name=f"{functor.name}^inner")
    return stable, inner


def compose_semi_inner(a, b):
    """Data of the composite functor 'apply a, then b'.

    The composite carrier map is r -> b.sigma(a.sigma(r)) and the composite
    matrix at rank n is the b.sigma-image of a's matrix times b's matrix.
    """
    from semicat.autfunctors import SemiInnerData

    if a.semiring != b.semiring:
        raise SemiringMismatch("semi-inner data over different semirings")
    if a.cap != b.cap:
        raise CapMismatch(f"caps differ: {a.cap} vs {b.cap}")
    sigma = a.sigma.then(b.sigma)
    family = {}
    for n in range(1, a.cap + 1):
        t = a.component(n).map_entries(b.sigma.apply).then(b.component(n))
        if not t.is_identity():
            family[n] = t
    return SemiInnerData(semiring=a.semiring, sigma=sigma, family=family, cap=a.cap)


def compose_functors(first, second):
    """Pointwise composite: morphisms go through ``first`` and then ``second``."""
    from semicat import matcat as M

    return M.BlackBoxFunctor(
        first.semiring,
        lambda f: second.on_morphism(first.on_morphism(f)),
        object_action=lambda obj: second.on_object(first.on_object(obj)),
        cap=min(first.cap, second.cap),
        name=f"{first.name};{second.name}")


def identity_functor(semiring, cap=2):
    from semicat import matcat as M

    return M.BlackBoxFunctor(semiring, lambda m: m, cap=cap, name="identity")


def skeleton_transport(phi_bar, isos):
    """Extend a functor defined on canonical objects to labeled ones.

    The extension conjugates through the supplied object isomorphisms: a
    morphism is transported to the skeleton, pushed through phi_bar, and
    transported back.  On canonical objects (identity isos) it agrees with
    phi_bar exactly.  Rank-0 objects need no assignment: their isomorphism to
    the skeleton is the unique empty morphism.
    """
    from semicat import matcat as M

    def action(f):
        return isos.unconjugate(phi_bar.on_morphism(isos.conjugate(f)), f.dom, f.cod)

    return M.BlackBoxFunctor(
        phi_bar.semiring, action, cap=phi_bar.cap,
        name=f"{phi_bar.name}^transported")


class EquivalenceViolation(SemicatError):
    def __init__(self, witness, message=""):
        self.witness = witness
        super().__init__(message or f"equivalence violated, witness {witness!r}")


class ReductionReport(Record):
    __slots__ = (
        "rank", "monoid_fixed", "codiagonal_fixed", "unit_rows_fixed", "regime")
    _json_extra = ("agree",)

    def __init__(self, rank, monoid_fixed, codiagonal_fixed, unit_rows_fixed, regime):
        self.rank = rank
        self.monoid_fixed = monoid_fixed
        self.codiagonal_fixed = codiagonal_fixed
        self.unit_rows_fixed = unit_rows_fixed
        self.regime = regime

    @property
    def left_side(self):
        return self.monoid_fixed and self.codiagonal_fixed

    @property
    def right_side(self):
        return self.unit_rows_fixed

    @property
    def agree(self):
        return self.left_side == self.right_side


def reduction_precondition_check(functor, n):
    """Evaluate both sides of the triviality equivalence at rank n, the
    reduction step of acceptance criterion 8.

    Side one: the functor fixes every endomorphism of F_n and the fold map
    F_n -> F_1.  Side two: it fixes every morphism F_1 -> F_n.  For a genuine
    additive functor these agree; a mismatch raises EquivalenceViolation and
    certifies the black box is not a functor.
    """
    from semicat.autfunctors import DEFAULT_BUDGET, _morphism_sweep
    from semicat.matcat import BiproductSystem

    R = functor.semiring
    system = BiproductSystem(R, n)
    regime, endos = _morphism_sweep(
        R, [((n, n),)], DEFAULT_BUDGET, 0, tag=f"reduction-endo-{n}")
    monoid_fixed = all(functor.on_morphism(f) == f for (f,) in endos)
    codiag_fixed = functor.on_morphism(system.codiagonal) == system.codiagonal
    regime2, rows = _morphism_sweep(
        R, [((1, n),)], DEFAULT_BUDGET, 0, tag=f"reduction-rows-{n}")
    rows_fixed = all(functor.on_morphism(f) == f for (f,) in rows)
    report = ReductionReport(
        rank=n,
        monoid_fixed=monoid_fixed,
        codiagonal_fixed=codiag_fixed,
        unit_rows_fixed=rows_fixed,
        regime="exhaustive" if regime == regime2 == "exhaustive" else "sampled",
    )
    if not report.agree:
        raise EquivalenceViolation(
            report.to_json(),
            "triviality sides disagree: the supplied map is not a functor")
    return report


def brute_force_inner_witness(functor):
    """A witness {t_n} with F(f) = t_n^-1 ; f ; t_m for every morphism up to
    the cap, or None, by exhaustive search: keep the invertible matrices of
    each rank that commute with the functor on every endomorphism of that
    rank, then test every combination of survivors on the morphisms between
    different ranks."""
    from semicat import matcat as M

    R = functor.semiring
    ranks = range(1, functor.cap + 1)
    candidates = []
    for n in ranks:
        endos = [(f, functor.on_morphism(f)) for f in M.enumerate_morphisms(R, n, n)]
        survivors = [
            (t, ti) for t, ti in invertible_morphisms(R, n)
            if all(t.then(image) == f.then(t) for f, image in endos)]
        if not survivors:
            return None
        candidates.append(survivors)
    cross = [
        (n, m, f, functor.on_morphism(f))
        for n in ranks for m in ranks if n != m
        for f in M.enumerate_morphisms(R, n, m)]
    for combo in itertools.product(*candidates):
        comps = {0: M.identity(R, 0)}
        invs = {0: M.identity(R, 0)}
        for n, (t, ti) in enumerate(combo, start=1):
            comps[n], invs[n] = t, ti
        if all(image == invs[n].then(f).then(comps[m]) for n, m, f, image in cross):
            return M.IsoFamily(comps, invs)
    return None


def pairwise_outer_group_experiment(semiring, cap, budget, seed=0):
    """``outer_group_experiment`` as a union-find over all pairs: the
    innerness of sigma_i^-1 ; sigma_j is asked once per pair i < j, a yes
    merges i and j, and classes are listed by their union-find roots."""
    from semicat import autfunctors as A
    from semicat.errors import SearchCapExceeded

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    groups = S.automorphism_groups(semiring)
    k = len(groups.aut)
    parent = list(range(k))
    undecided = []
    for i in range(k):
        for j in range(i + 1, k):
            tau = groups.aut[i].inverted().then(groups.aut[j])
            composite = A.semi_inner_functor(A.skew_inner_functor(tau, cap))
            try:
                witness = A.inner_witness(composite, budget=budget, seed=seed)
            except SearchCapExceeded:
                undecided.append((i, j))
                continue
            if witness is not None:
                parent[find(parent, i)] = find(parent, j)
    classes = {}
    for i in range(k):
        classes.setdefault(find(parent, i), []).append(i)
    class_list = tuple(tuple(v) for _, v in sorted(classes.items()))
    merged = list(parent)
    for i, j in undecided:
        merged[find(merged, i)] = find(merged, j)
    return A.OuterGroupReport(
        semiring=semiring.name,
        cap=cap,
        aut_order=groups.aut_order,
        inn_order=groups.inn_order,
        out_order=groups.out_order,
        class_count=len(class_list),
        class_count_lower_bound=len({find(merged, i) for i in range(k)}),
        classes=class_list,
        undecided=tuple(undecided),
        consistent=not undecided and len(class_list) == groups.out_order,
    )


def all_shape_morphisms(semiring, max_rank, include_zero_rank=False):
    from semicat import matcat as M

    low = 0 if include_zero_rank else 1
    out = []
    for n in range(low, max_rank + 1):
        for m in range(low, max_rank + 1):
            out.extend(M.enumerate_morphisms(semiring, n, m))
    return out


class UEnvelopeSemiring(S.Semiring):
    """The envelope truncated at a total degree, exposed with the semiring
    interface so the matrix-category machinery runs over it; with
    ``hat_sigma_conjugate``, the carrier of acceptance criterion 13.

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
