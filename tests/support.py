"""Shared helpers for the test suite: perturbation generators, independent
oracles, and small enumeration utilities kept separate from the library."""

import itertools

from semicat import semirings as S
from semicat.errors import AxiomViolation


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


def monomials_up_to(envelope, degree):
    """Every PBW monomial of total degree <= the bound, unit coefficient."""
    dim = envelope.lie.dim
    out = []
    for total in range(degree + 1):
        for word in itertools.combinations_with_replacement(range(dim), total):
            exp = [0] * dim
            for letter in word:
                exp[letter] += 1
            out.append(envelope.monomial(exp))
    return out


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


def all_shape_morphisms(semiring, max_rank, include_zero_rank=False):
    from semicat import matcat as M

    low = 0 if include_zero_rank else 1
    out = []
    for n in range(low, max_rank + 1):
        for m in range(low, max_rank + 1):
            out.extend(M.enumerate_morphisms(semiring, n, m))
    return out
