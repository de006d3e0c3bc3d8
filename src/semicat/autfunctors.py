"""Automorphisms of the truncated matrix category: construction, verification,
normalization, decomposition, composition, and inner-witness extraction.

A functor here is always truncated at a rank cap, so "for all morphisms"
claims are either exhaustive (finite carrier, small rank) or seeded-sample
checks; every report records which regime applied.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import (
    InjectionsNotFixed,
    NonInvertibleStack,
    NotAnAutomorphism,
    Record,
    SearchCapExceeded,
    SemicatError,
    VerificationReport,
)
from .matcat import (
    BiproductSystem,
    BlackBoxFunctor,
    FreeObject,
    IsoFamily,
    Morphism,
    _mat_add,
    biproduct_defect,
    count_morphisms,
    enumerate_morphisms,
    from_entries,
    identity,
    invert,
    random_invertible,
    random_morphism,
    zero_morphism,
)
from .semirings import (
    MapAutomorphism,
    PermutationAutomorphism,
    automorphism_groups,
    is_semiring_automorphism,
)

DEFAULT_BUDGET = 200_000
DEFAULT_SAMPLES = 200


# ---------------------------------------------------------------------------
# data carried by semi-inner automorphisms


class SemiInnerData(Record):
    """A carrier automorphism plus one invertible matrix per rank.

    The induced action on a morphism A: n -> m is T_n^-1 ; sigma(A) ; T_m with
    sigma applied entrywise; ranks without a stored matrix default to the
    identity, so an empty family is the plain entrywise action.
    """

    __slots__ = ("semiring", "sigma", "family", "cap")

    def __init__(self, semiring, sigma, family=None, cap=2):
        self.semiring = semiring
        self.sigma = sigma
        self.family = {} if family is None else family
        self.cap = cap

    def component(self, n):
        got = self.family.get(n)
        return got if got is not None else identity(self.semiring, n)


def skew_inner_functor(sigma, cap):
    """Entrywise carrier-automorphism action (identity matrix family)."""
    return SemiInnerData(semiring=sigma.semiring, sigma=sigma, family={}, cap=cap)


def semi_inner_functor(data):
    """Materialize the functor of a SemiInnerData; every T_n must invert."""
    family = IsoFamily({n: data.component(n) for n in range(data.cap + 1)})
    sigma = data.sigma
    if sigma.is_identity:
        action = family.conjugate
    else:
        def action(f):
            return family.conjugate(f.map_entries(sigma.apply))
    return BlackBoxFunctor(
        data.semiring, action, cap=data.cap, name=f"semi-inner({sigma!r})")


def random_semi_inner_data(semiring, cap, rng, groups=None):
    """Seeded random SemiInnerData: random automorphism, random invertible family."""
    if groups is None:
        groups = automorphism_groups(semiring)
    sigma = groups.aut[rng.randrange(len(groups.aut))]
    family = {
        n: random_invertible(semiring, n, rng)[0] for n in range(1, cap + 1)
    }
    return SemiInnerData(semiring=semiring, sigma=sigma, family=family, cap=cap)


# ---------------------------------------------------------------------------
# verification sweeps


def linear_certificate(functor, budget=DEFAULT_BUDGET):
    """Certify addition and composition preservation up to the cap in linear work.

    Over a finite carrier R with cap c, the certificate holds when F keeps
    every rank, F(0) = 0 for all shapes, the 1 x 1 action phi(r) = F([r]) is
    additive and multiplicative on all |R|^2 pairs, the images of the
    injections mu_i and projections pi_i of each rank satisfy
    mu_i;pi_j = delta_ij and sum_i pi_i;mu_i = id, and
    F(f) = sum_ij F(pi_i);phi(f_ij);F(mu_j) for every f: n -> m, 1 <= n, m <= c.

    Proof sketch: the right-hand side G(f) is additive in f because phi is,
    and G(f);G(g) collapses through mu_j;pi_k = delta_jk to G(f;g) because phi
    is multiplicative and additive.  Rank-0 shapes have one morphism each and
    are covered by the rank and zero checks.  F([1]) = id needs no check of
    its own: at rank 1, mu_1 = pi_1 = [1], so the biproduct relation gives
    phi(1);phi(1) = id, and multiplicativity gives phi(1);phi(1) = phi(1);
    the structure count keeps one check for it.

    The certificate is sufficient, not necessary: a functor that fails it may
    still preserve both laws.  It costs sum_nm |R|^(nm) decomposition checks
    plus 2|R|^2 pair checks plus O(c^3) structure checks.  The sums run over
    precomputed terms F(pi_i);phi(r);F(mu_j) and are kept as a stack of
    prefix sums in the row-major order of ``enumerate_morphisms``, which
    changes a suffix of the entries from one morphism to the next, so a
    check costs about |R|/(|R|-1) matrix additions amortized instead of
    n*m - 1.  The certificate runs only when the total of checks is within
    ``budget``.  Returns (addition checks, composition checks) when it holds,
    splitting the total between the two laws, and None when it fails or
    cannot run (infinite carrier, cap below 1, over budget).
    """
    R = functor.semiring
    cap = functor.cap
    if not R.is_finite or cap < 1:
        return None
    ranks = range(1, cap + 1)
    elements = list(R.elements())
    decompositions = sum(count_morphisms(R, n, m) for n in ranks for m in ranks)
    pairs = len(elements) ** 2
    zeros = (cap + 1) ** 2
    structure = (cap + 1) + 1 + sum(n * n + 1 for n in ranks)
    if decompositions + 2 * pairs + zeros + structure > budget:
        return None

    obj = [functor.on_object(FreeObject(n)) for n in range(cap + 1)]
    if any(o.rank != n for n, o in enumerate(obj)):
        return None
    for n in range(cap + 1):
        for m in range(cap + 1):
            if functor.on_morphism(zero_morphism(R, n, m)) != zero_morphism(R, obj[n], obj[m]):
                return None
    phi = {r: functor.on_morphism(from_entries(R, [[r]])) for r in elements}
    for a in elements:
        for b in elements:
            if phi[R.add(a, b)] != phi[a] + phi[b]:
                return None
            if phi[R.mul(a, b)] != phi[a].then(phi[b]):
                return None

    mu, pi = {}, {}
    for n in ranks:
        system = BiproductSystem(R, n)
        mu[n] = [functor.on_morphism(x) for x in system.injections]
        pi[n] = [functor.on_morphism(x) for x in system.projections]
        if any(biproduct_defect(mu[n], pi[n], i) for i in range(n)):
            return None

    for n in ranks:
        for m in ranks:
            # term[k][r] is F(pi_i);phi(r);F(mu_j) for the k-th entry (i, j) in
            # row-major order, and sums[k] the sum of the terms of entries 0..k
            term = [{r: pi[n][i].then(phi[r]).then(mu[m][j]).entries for r in elements}
                    for i in range(n) for j in range(m)]
            last = n * m - 1
            sums = [None] * (last + 1)
            previous = None
            for f in enumerate_morphisms(R, n, m):
                flat = tuple(itertools.chain.from_iterable(f.entries))
                # the odometer moves a suffix of the entries; rebuild from its start
                start = 0
                if previous is not None:
                    start = last
                    while start and flat[start - 1] != previous[start - 1]:
                        start -= 1
                acc = sums[start - 1] if start else None
                for k in range(start, last + 1):
                    t = term[k][flat[k]]
                    acc = t if acc is None else _mat_add(R, acc, t)
                    sums[k] = acc
                previous = flat
                # on_morphism has already checked the image runs obj[n] -> obj[m]
                if functor.on_morphism(f).entries != acc:
                    return None
    return pairs + zeros + decompositions, pairs + structure


def verify_functor(functor, budget=DEFAULT_BUDGET, seed=0):
    """Check functor laws up to the rank cap; failures become report records.

    Identity, composition, zero and addition preservation, biproduct-image
    validity, and rank preservation of the object action are each one record.

    Addition and composition are first tried through ``linear_certificate``
    (finite carriers, when its cost fits the budget): if it holds, both
    records pass as exhaustive for every pair up to the cap, with its checks
    as their counts.  If it fails or cannot run, ``_morphism_sweep`` decides
    the pairs: all of them when their number fits the budget, otherwise a
    seeded sample; it is also the path that names a concrete failing pair.
    A swept morphism carries its image, so each is evaluated once per
    enumeration or draw and not once per pair; nothing is memoized.
    """
    R = functor.semiring
    ranks = range(0, functor.cap + 1)
    report = VerificationReport(subject=functor.name, seed=seed)
    try:
        certified = linear_certificate(functor, budget)
    except SemicatError:
        certified = None
    image_of = functor.on_morphism

    def obj(n):
        return functor.on_object(FreeObject(n))

    def law(name, regime, cases, broken):
        """Record the first case ``broken`` names a witness for, else a pass."""
        count, witness = 0, None
        try:
            for count, case in enumerate(cases, 1):
                witness = broken(*case)
                if witness is not None:
                    break
        except SemicatError as exc:
            regime, witness, count = "exhaustive", f"error: {exc}", 0
        report.add(name, regime, witness is None, witness, count)

    def identity_moved(n):
        image = image_of(identity(R, n))
        if image != identity(R, obj(n)):
            return f"identity at rank {n} moved: {image!r}"
        return None

    def with_image(f):  # each morphism's image is evaluated once, not once per pair
        return f, image_of(f)

    def addition_broken(f_pair, g_pair):
        (f, image_f), (g, image_g) = f_pair, g_pair
        if image_of(f + g) != image_f + image_g:
            return f"addition broken at {f!r} + {g!r}"
        return None

    def composition_broken(f_pair, g_pair):
        (f, image_f), (g, image_g) = f_pair, g_pair
        if image_of(f.then(g)) != image_f.then(image_g):
            return f"composition broken at {f!r} ; {g!r}"
        return None

    def biproduct_rows():
        for n in ranks[1:]:
            system = BiproductSystem(R, n)
            mu = [image_of(x) for x in system.injections]
            pi = [image_of(x) for x in system.projections]
            yield from ((mu, pi, i) for i in range(n))

    law("object-ranks", "exhaustive", ((n, obj(n).rank) for n in ranks),
        lambda n, rank: None if rank == n else f"rank {n} sent to rank {rank}")
    law("identity-preservation", "exhaustive", ((n,) for n in ranks), identity_moved)
    law("zero-preservation", "exhaustive", ((n, m) for n in ranks for m in ranks),
        lambda n, m: None if zero_morphism(R, obj(n), obj(m)) == image_of(
            zero_morphism(R, n, m)) else f"zero {n}->{m} moved")
    if certified is None:
        regime, cases = _morphism_sweep(
            R, [((n, m), (n, m)) for n in ranks for m in ranks if n * m > 0],
            budget, seed, tag="addition", each=with_image)
        law("addition-preservation", regime, cases, addition_broken)
        regime, cases = _morphism_sweep(
            R, [((n, m), (m, k)) for n in ranks for m in ranks for k in ranks],
            budget, seed, tag="composition", each=with_image)
        law("composition-preservation", regime, cases, composition_broken)
    else:
        for name, checks in zip(("addition-preservation", "composition-preservation"),
                                certified):
            report.add(name, "exhaustive", True, checked=checks)
    law("biproduct-images", "exhaustive", biproduct_rows(), biproduct_defect)
    return report


def _morphism_sweep(R, shapes, budget, seed, samples=DEFAULT_SAMPLES, tag="sweep",
                    each=None):
    """Return (regime, cases): one tuple of morphisms per case over ``shapes``.

    A shape is a tuple of (n, m) factors and a case holds one morphism of
    each factor, passed through ``each`` when it is given.  The sweep is
    exhaustive when the carrier is finite and the sum over the shapes of the
    product of their factors' morphism counts is at most ``budget``: the
    cases are then every combination, shape by shape, in ``itertools.product``
    order over the row-major lexicographic enumeration of each factor.  A
    shape's factors are enumerated (and ``each`` applied to them) when the
    sweep reaches it, and its cases are yielded one at a time.  Otherwise the
    sweep is sampled: ``max(1, samples // len(shapes))`` cases per shape,
    shape by shape, each drawn factor by factor from
    ``random.Random(f"{seed}:{tag}")``.  Seeded reports name their failing
    cases by this draw order, so it must not move.
    """
    each = each or (lambda f: f)

    def every_case():
        for shape in shapes:  # equal factors share one enumeration
            spaces = {nm: [each(f) for f in enumerate_morphisms(R, *nm)] for nm in shape}
            yield from itertools.product(*map(spaces.get, shape))

    if R.is_finite and sum(
            math.prod(count_morphisms(R, n, m) for n, m in shape)
            for shape in shapes) <= budget:
        return "exhaustive", every_case()
    rng = random.Random(f"{seed}:{tag}")
    return "sampled", (
        tuple(each(random_morphism(R, n, m, rng)) for n, m in shape)
        for shape in shapes for _ in range(max(1, samples // len(shapes))))


# ---------------------------------------------------------------------------
# extraction and normalization


def extract_sigma(functor, budget=DEFAULT_BUDGET, seed=0):
    """Read the carrier automorphism off the 1 x 1 action of the functor.

    Requires the canonical injections to be fixed (normalize first otherwise).
    The induced carrier map is validated as a semiring automorphism, and the
    plain entrywise action it induces must reproduce the functor on a sweep of
    morphisms up to the cap.
    """
    R = functor.semiring
    for n in range(1, functor.cap + 1):
        for mu in BiproductSystem(R, n).injections:
            if functor.on_morphism(mu) != mu:
                raise InjectionsNotFixed(
                    f"injection {mu!r} is moved; normalize the functor first")

    def one_by_one(r):
        return functor.on_morphism(from_entries(R, [[r]])).entries[0][0]

    if R.is_finite:
        mapping = tuple(one_by_one(r) for r in R.elements())
        if sorted(mapping) != list(R.elements()):
            raise NotAnAutomorphism(f"1x1 action is not a carrier bijection: {mapping}")
        if not is_semiring_automorphism(R, mapping):
            raise NotAnAutomorphism(f"1x1 action is not a semiring automorphism: {mapping}")
        sigma = PermutationAutomorphism(R, mapping)
    else:
        rng = random.Random(f"{seed}:extract")
        if one_by_one(R.zero) != R.zero or one_by_one(R.one) != R.one:
            raise NotAnAutomorphism("1x1 action moves zero or one")
        for _ in range(DEFAULT_SAMPLES // 4):
            a = R.sample_element(rng)
            b = R.sample_element(rng)
            if one_by_one(R.add(a, b)) != R.add(one_by_one(a), one_by_one(b)):
                raise NotAnAutomorphism(f"addition not preserved at ({a!r}, {b!r})")
            if one_by_one(R.mul(a, b)) != R.mul(one_by_one(a), one_by_one(b)):
                raise NotAnAutomorphism(f"multiplication not preserved at ({a!r}, {b!r})")
        sigma = MapAutomorphism(R, one_by_one, name="extracted")

    shapes = [((n, m),) for n in range(1, functor.cap + 1)
              for m in range(1, functor.cap + 1)]
    _, sweep = _morphism_sweep(R, shapes, budget, seed, tag="extract-agree")
    identity_twist = sigma.is_identity
    for (f,) in sweep:
        if functor.on_morphism(f) != (f if identity_twist else f.map_entries(sigma.apply)):
            raise NotAnAutomorphism(
                f"extracted carrier map does not reproduce the functor at {f!r}")
    return sigma


def normalize_injections(functor):
    """Conjugate a functor into one fixing all canonical injections.

    The rank-n component stacks the functor's images of the unit rows; its
    invertibility is exactly biproduct preservation, and conjugating by the
    stack yields an injection-fixing functor naturally isomorphic to the
    input.  Returns (normalized functor, witness with components U_n such
    that F(f) = U_n^-1 ; F0(f) ; U_m).
    """
    R = functor.semiring
    stacks = {0: identity(R, 0)}
    inverses = {0: identity(R, 0)}
    for n in range(1, functor.cap + 1):
        rows = [
            functor.on_morphism(mu).entries[0]
            for mu in BiproductSystem(R, n).injections
        ]
        stack = Morphism(R, n, n, rows)
        inv = invert(stack)
        if inv is None:
            raise NonInvertibleStack(
                f"stacked injection images at rank {n} are not invertible "
                f"(the functor does not preserve biproducts)")
        stacks[n] = stack
        inverses[n] = inv
    witness = IsoFamily(stacks, inverses)
    normalized = BlackBoxFunctor(
        R, lambda f: witness.unconjugate(functor.on_morphism(f), f.dom, f.cod),
        cap=functor.cap, name=f"{functor.name}^normalized")
    for n in range(1, functor.cap + 1):
        for mu in BiproductSystem(R, n).injections:
            if normalized.on_morphism(mu) != mu:
                raise NonInvertibleStack(
                    f"normalization failed to fix {mu!r}; the input is not additive")
    return normalized, witness


# ---------------------------------------------------------------------------
# inner witnesses and the reduction machinery


def inner_witness(functor, budget=DEFAULT_BUDGET, seed=0):
    """Find a conjugation family realizing the functor, or refute one.

    The paper's rank-1 reduction.  ``normalize_injections`` gives F0, which
    fixes every canonical injection, and U with F(f) = U_n^-1 ; F0(f) ; U_m.
    If F0(f) = s_n^-1 ; f ; s_m for some family s, fixing the injections
    forces s_n = s_1 I_n, and s_1 = [u] for a unit u with F0([r]) = [u^-1 r u]
    for every scalar r.  So only units are searched, R.one first, and the
    first match u gives the candidate t_n = (u I_n) ; U_n, which is checked
    on a morphism sweep up to the cap (exhaustive when its size fits the
    budget, seeded samples otherwise).  Two matching units differ by a
    central unit and conjugate alike, so one candidate decides the question.

    Cost: |units| * |R| checks on a finite carrier, charged against
    ``budget`` before the search, plus the sweep.  On an infinite commutative
    carrier only u = 1 is tried, on ``DEFAULT_SAMPLES // 4`` seeded scalars.

    Returns the witness when the sweep confirms it; None when no family
    exists (the stacked injection images do not invert, no unit matches the
    1 x 1 action, or the sweep finds a counterexample); raises
    SearchCapExceeded when the question is left undecided (the unit search
    exceeds the budget, or the carrier is infinite and noncommutative).
    """
    R = functor.semiring
    cap = functor.cap
    try:
        normalized, stacks = normalize_injections(functor)
    except NonInvertibleStack:
        return None  # an inner functor preserves biproducts

    if R.is_finite:
        units = sorted(R.unit_elements(), key=lambda u: u != R.one)
        if len(units) * R.size > budget:
            raise SearchCapExceeded(
                f"{len(units)} units x {R.size} scalars exceed the budget {budget}")
        scalars = list(R.elements())
    elif R.is_commutative:
        rng = random.Random(f"{seed}:end-f1")
        units = [R.one]
        scalars = [R.sample_element(rng) for _ in range(DEFAULT_SAMPLES // 4)]
    else:
        raise SearchCapExceeded(
            f"units of the infinite noncommutative carrier {R.name} cannot be searched")
    action = [
        (r, normalized.on_morphism(from_entries(R, [[r]])).entries[0][0])
        for r in scalars]
    for u in units:
        v = R.try_unit_inverse(u)
        if all(image == R.mul(R.mul(v, r), u) for r, image in action):
            break
    else:
        return None

    witness = IsoFamily(
        {n: stacks.component(n).map_entries(lambda x: R.mul(u, x))
         for n in range(cap + 1)},
        {n: stacks.inverse(n).map_entries(lambda x: R.mul(x, v))
         for n in range(cap + 1)})
    shapes = [((n, m),) for n in range(1, cap + 1) for m in range(1, cap + 1)]
    _, sweep = _morphism_sweep(R, shapes, budget, seed, tag="inner-verify")
    ok, _ = witness.verify(functor, (f for (f,) in sweep))
    return witness if ok else None


# ---------------------------------------------------------------------------
# the outer-group experiment


class OuterGroupReport(Record):
    __slots__ = (
        "semiring", "cap", "aut_order", "inn_order", "out_order", "class_count",
        "class_count_lower_bound", "classes", "undecided", "consistent")

    def __init__(self, semiring, cap, aut_order, inn_order, out_order, class_count,
                 class_count_lower_bound, classes, undecided, consistent):
        self.semiring = semiring
        self.cap = cap
        self.aut_order = aut_order
        self.inn_order = inn_order
        self.out_order = out_order
        # with confirmed merges only: an upper bound when undecided
        self.class_count = class_count
        # if every undecided pair merged
        self.class_count_lower_bound = class_count_lower_bound
        self.classes = classes
        self.undecided = undecided
        self.consistent = consistent


def outer_group_experiment(semiring, cap, budget=DEFAULT_BUDGET, seed=0):
    """Count inner-equivalence classes of the entrywise carrier actions.

    sigma_i and sigma_j share a class when the composite sigma_i^-1 ; sigma_j
    acts as an inner functor.  The inner functors form a normal subgroup H,
    so the classes are the cosets sigma ; H, and each non-identity
    automorphism is tested for innerness once (``aut[0]``, the least
    permutation, is the identity).  The class count is compared with the
    outer coset count of the carrier itself.
    """
    groups = automorphism_groups(semiring)
    aut = groups.aut
    index = {a.perm: i for i, a in enumerate(aut)}
    inner = {aut[0].perm: True}  # tau -> True, False or None (undecided)
    for tau in aut[1:]:
        composite = semi_inner_functor(skew_inner_functor(tau, cap))
        try:
            witness = inner_witness(composite, budget=budget, seed=seed)
        except SearchCapExceeded:
            inner[tau.perm] = None
        else:
            inner[tau.perm] = witness is not None

    def cosets(subgroup):  # the classes sigma ; H, listed by largest member
        return tuple(sorted(
            {tuple(sorted({index[a.then(h).perm] for h in subgroup})) for a in aut},
            key=lambda c: c[-1]))

    class_list = cosets([h for h in aut if inner[h.perm]])
    lower_bound = len(cosets([h for h in aut if inner[h.perm] is not False]))
    undecided = tuple(
        (i, j) for i in range(len(aut)) for j in range(i + 1, len(aut))
        if inner[aut[i].inverted().then(aut[j]).perm] is None)
    consistent = not undecided and len(class_list) == groups.out_order
    return OuterGroupReport(
        semiring=semiring.name,
        cap=cap,
        aut_order=groups.aut_order,
        inn_order=groups.inn_order,
        out_order=groups.out_order,
        class_count=len(class_list),
        class_count_lower_bound=lower_bound,
        classes=class_list,
        undecided=undecided,
        consistent=consistent,
    )
