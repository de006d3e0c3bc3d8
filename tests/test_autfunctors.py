import itertools
import random
from fractions import Fraction

import pytest

from semicat import autfunctors as A
from semicat import matcat as M
from semicat import semirings as S
from semicat.errors import (
    InjectionsNotFixed,
    NonInvertibleFamily,
    SearchCapExceeded,
)
from support import (
    CapMismatch,
    EquivalenceViolation,
    all_shape_morphisms,
    brute_force_inner_witness,
    catalog_finite,
    compose_functors,
    compose_semi_inner,
    decompose_stable_inner,
    identity_functor,
    invertible_morphisms,
    matrix_ring_f2,
    pairwise_laws_hold,
    pairwise_outer_group_experiment,
    reduction_precondition_check,
    upper_triangular_boolean,
)

B = S.boolean_semiring()
F4 = S.galois_semiring(4)
Z4 = S.zmod_semiring(4)
F4_GROUPS = S.automorphism_groups(F4)
FROB = F4_GROUPS.aut[1]


def skew(sigma, cap=2):
    return A.semi_inner_functor(A.skew_inner_functor(sigma, cap))


def test_skew_identity_is_identity_functor():
    ident = skew(S.identity_automorphism(B))
    for f in all_shape_morphisms(B, 2):
        assert ident.on_morphism(f) == f


def test_skew_frobenius_on_scalars():
    functor = skew(FROB)
    alpha = 2
    image = functor.on_morphism(M.from_entries(F4, [[alpha]]))
    assert image.entries == ((F4.mul(alpha, alpha),),)


def test_skew_product_swap():
    z2 = S.zmod_semiring(2)
    prod = S.product_semiring(z2, z2)
    swap = S.automorphism_groups(prod).aut[1]
    # (1,0) and (0,1) encode as indices 2 and 1; the swap exchanges them
    f = M.from_entries(prod, [[2, 1]])
    assert skew(swap).on_morphism(f).entries == ((1, 2),)


def test_skew_vector_diagram_commutes():
    # applying the carrier map to a vector, then the image matrix, matches
    # mapping the matrix action of the original vector
    functor = skew(FROB)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        vectors = list(itertools.product(range(4), repeat=n))
        for f in M.enumerate_morphisms(F4, n, m):
            image = functor.on_morphism(f)
            for vec in vectors:
                mapped_vec = tuple(FROB.apply(x) for x in vec)
                lhs = tuple(FROB.apply(x) for x in f.act(vec))
                assert lhs == image.act(mapped_vec)


def test_semi_inner_is_conjugation():
    permutation = M.from_entries(B, [[0, 1], [1, 0]])
    data = A.SemiInnerData(
        semiring=B, sigma=S.identity_automorphism(B),
        family={2: permutation}, cap=2)
    functor = A.semi_inner_functor(data)
    sample = M.from_entries(B, [[1, 1], [0, 1]])
    expected = permutation.then(sample).then(permutation)  # the swap is self-inverse
    assert functor.on_morphism(sample) == expected


def test_semi_inner_identity_family_is_skew():
    data = A.SemiInnerData(semiring=F4, sigma=FROB, family={}, cap=2)
    functor = A.semi_inner_functor(data)
    for f in all_shape_morphisms(F4, 2):
        assert functor.on_morphism(f) == f.map_entries(FROB.apply)


def test_semi_inner_random_family_verifies():
    rng = random.Random(21)
    data = A.random_semi_inner_data(F4, 2, rng, F4_GROUPS)
    assert A.verify_functor(A.semi_inner_functor(data)).passed
    frob_data = A.SemiInnerData(
        semiring=F4, sigma=FROB,
        family={n: M.random_invertible(F4, n, rng)[0] for n in (1, 2)}, cap=2)
    assert A.verify_functor(A.semi_inner_functor(frob_data)).passed


def test_semi_inner_rejects_singular_family():
    singular = M.from_entries(B, [[1, 1], [1, 1]])
    data = A.SemiInnerData(
        semiring=B, sigma=S.identity_automorphism(B),
        family={2: singular}, cap=2)
    with pytest.raises(NonInvertibleFamily):
        A.semi_inner_functor(data)


def test_verify_functor_passes_identity_and_skew():
    assert A.verify_functor(identity_functor(F4, cap=2)).passed
    assert A.verify_functor(skew(FROB)).passed


def test_verify_functor_flags_corruption():
    poison = M.from_entries(F4, [[2, 0], [0, 1]])

    def corrupt(f):
        if f == poison:
            return M.zero_morphism(F4, f.dom, f.cod)
        return f.map_entries(FROB.apply)

    report = A.verify_functor(M.BlackBoxFunctor(F4, corrupt, cap=2, name="corrupt"))
    assert not report.passed
    assert report.record("composition-preservation").status == "fail"
    assert report.record("composition-preservation").witness


def _non_automorphism_permutation(semiring, groups):
    """The first permutation of the carrier that is not an automorphism."""
    perms = {tuple(sigma.perm) for sigma in groups.aut}
    elements = list(semiring.elements())
    return next((p for p in itertools.permutations(elements) if p not in perms), None)


def _half_homomorphisms(semiring):
    """The first carrier map fixing 0 and 1 that preserves addition but not
    multiplication, and the first that does the reverse, where they exist."""
    elements = list(semiring.elements())
    found = {}
    for phi in itertools.product(elements, repeat=len(elements)):
        if phi[semiring.zero] != semiring.zero or phi[semiring.one] != semiring.one:
            continue
        kept = tuple(
            all(phi[op(a, b)] == op(phi[a], phi[b]) for a in elements for b in elements)
            for op in (semiring.add, semiring.mul))
        if kept in ((True, False), (False, True)):
            found.setdefault(kept, phi)
    return list(found.values())


def test_linear_certificate_agrees_with_pairwise_oracle():
    rng = random.Random(71)
    for semiring in catalog_finite() + [S.galois_semiring(3)]:
        groups = S.automorphism_groups(semiring)
        functors = [
            A.semi_inner_functor(A.random_semi_inner_data(semiring, 2, rng, groups))
            for _ in range(2)]
        base = functors[0]
        if semiring.size > 1:
            poison = M.random_morphism(semiring, 2, 2, rng)
            while poison.entries == M.zero_morphism(semiring, 2, 2).entries:
                poison = M.random_morphism(semiring, 2, 2, rng)

            def poisoned(f, base=base, poison=poison):
                if f == poison:
                    return M.zero_morphism(semiring, f.dom, f.cod)
                return base.on_morphism(f)

            functors.append(M.BlackBoxFunctor(semiring, poisoned, cap=2, name="poisoned"))

            # T_n^-1 ; sigma(f) ; S_m with S_2 != T_2: every 1 x 1 law and
            # every decomposition holds, only the biproduct relations break
            data = A.random_semi_inner_data(semiring, 2, rng, groups)
            left = {n: M.invert(data.component(n)) for n in (0, 1, 2)}
            right = {n: data.component(n) for n in (0, 1)}
            right[2] = next(t for t, _ in invertible_morphisms(semiring, 2)
                            if t != data.component(2))

            def mismatched(f, data=data, left=left, right=right):
                image = f.map_entries(data.sigma.apply)
                return left[f.dom.rank].then(image).then(right[f.cod.rank])

            functors.append(M.BlackBoxFunctor(
                semiring, mismatched, cap=2, name="mismatched"))
        perm = _non_automorphism_permutation(semiring, groups)
        maps = _half_homomorphisms(semiring) + ([perm] if perm is not None else [])
        for table in maps:
            functors.append(M.BlackBoxFunctor(
                semiring, lambda f, table=table: f.map_entries(table.__getitem__),
                cap=2, name=f"entrywise{table}"))
        for functor in functors:
            certified = A.linear_certificate(functor) is not None
            assert certified == pairwise_laws_hold(functor), (semiring.name, functor.name)


@pytest.mark.parametrize(("semiring", "cap"), [
    (B, 2), (S.zmod_semiring(2), 2), (B, 3)], ids=["boolean-2", "zmod:2-2", "boolean-3"])
def test_prefix_sum_certificate_catches_a_poisoned_carry_point(semiring, cap):
    """The certificate keeps prefix sums along the odometer order of
    ``enumerate_morphisms``; a wrong image at its first step, its last step
    or the step that carries into entry 0 (and so rebuilds every partial
    sum) must each be caught, as the pairwise sweep catches it."""
    base = A.semi_inner_functor(A.random_semi_inner_data(semiring, cap, random.Random(5)))
    assert A.linear_certificate(base) is not None
    order = list(M.enumerate_morphisms(semiring, cap, cap))
    carry = order[semiring.size ** (cap * cap - 1)]
    assert carry.entries[0][0] != order[0].entries[0][0]
    assert carry.entries[0][1:] == order[0].entries[0][1:]
    for poison in (order[0], order[-1], carry):

        def poisoned(f, poison=poison):
            image = base.on_morphism(f)
            if f != poison:
                return image
            head = image.entries[0][0]
            moved = semiring.one if head == semiring.zero else semiring.zero
            return M.Morphism(semiring, image.dom, image.cod,
                              ((moved,) + image.entries[0][1:],) + image.entries[1:])

        functor = M.BlackBoxFunctor(semiring, poisoned, cap=cap, name="poisoned")
        assert A.linear_certificate(functor) is None, poison
        assert not pairwise_laws_hold(functor), poison


def test_certificate_needs_the_zero_checks():
    """On boolean at cap 1, F([r]) = [1] for both r passes every other check
    of the certificate: phi is additive and multiplicative, and the rank-1
    biproduct relations and decompositions hold.  But F([0]) = [1] is not
    F(1 -> 0);F(0 -> 1) = [0], so composition fails, and only F(0) = 0
    tells the certificate so."""
    one = M.from_entries(B, [[B.one]])
    functor = M.BlackBoxFunctor(
        B, lambda f: one if f.dom.rank == f.cod.rank == 1 else f, cap=1, name="all-one")
    assert A.linear_certificate(functor) is None
    assert not pairwise_laws_hold(functor)
    record = A.verify_functor(functor).record("composition-preservation")
    assert (record.regime, record.status) == ("exhaustive", "fail")


def _law_records(report):
    return [report.record(name) for name in
            ("addition-preservation", "composition-preservation")]


def test_certificate_makes_large_sweeps_exhaustive():
    boolean_cap3 = skew(S.identity_automorphism(B), cap=3)
    for functor, budget in ((boolean_cap3, A.DEFAULT_BUDGET), (skew(FROB), 20000)):
        for record in _law_records(A.verify_functor(functor, budget=budget, seed=5)):
            assert (record.regime, record.status) == ("exhaustive", "pass")


def test_certificate_over_budget_or_infinite_stays_sampled():
    for record in _law_records(A.verify_functor(skew(FROB), budget=300, seed=5)):
        assert (record.regime, record.status, record.seed) == ("sampled", "pass", 5)
    tropical = S.TropicalSemiring()
    functor = skew(S.identity_automorphism(tropical))
    for record in _law_records(A.verify_functor(functor, budget=500, seed=5)):
        assert (record.regime, record.status) == ("sampled", "pass")


def test_sampled_sweep_over_tropical_names_the_same_failures():
    """x -> x + 1 keeps max but breaks +: the seeded sweep of an infinite
    carrier, which keeps no image memo, finds these failures at seed 5."""
    tropical = S.TropicalSemiring()
    shift = M.BlackBoxFunctor(
        tropical, lambda f: f.map_entries(lambda x: None if x is None else x + 1),
        cap=2, name="shift")
    report = A.verify_functor(shift, budget=500, seed=5)
    got = {r.name: (r.regime, r.status, r.checked, r.witness) for r in report.records}
    assert got == {
        "object-ranks": ("exhaustive", "pass", 3, None),
        "identity-preservation": (
            "exhaustive", "fail", 2, "identity at rank 1 moved: F1->F1[[Fraction(1, 1)]]"),
        "zero-preservation": ("exhaustive", "pass", 9, None),
        "addition-preservation": ("sampled", "pass", 200, None),
        "composition-preservation": (
            "sampled", "fail", 92,
            "composition broken at F1->F1[[Fraction(-7, 4)]] ; F1->F1[[Fraction(2, 1)]]"),
        "biproduct-images": (
            "exhaustive", "fail", 1, "image injection/projection pairing broken at rank 1"),
    }


def test_certificate_work_is_linear_in_the_morphism_count():
    rng = random.Random(21)
    functor = A.semi_inner_functor(A.random_semi_inner_data(F4, 2, rng, F4_GROUPS))
    records = _law_records(A.verify_functor(functor))
    assert all(r.regime == "exhaustive" and r.passed for r in records)
    morphisms = sum(M.count_morphisms(F4, n, m) for n in (1, 2) for m in (1, 2))
    assert sum(r.checked for r in records) <= 2 * (morphisms + 2 * F4.size ** 2)


def test_verify_functor_rejects_rank_change():
    shifted = M.BlackBoxFunctor(
        F4,
        lambda f: M.zero_morphism(F4, f.dom.rank + 1, f.cod.rank + 1),
        object_action=lambda obj: M.FreeObject(obj.rank + 1),
        cap=2, name="rank-shift")
    report = A.verify_functor(shifted)
    assert report.record("object-ranks").status == "fail"
    assert _record_values(report) == [
        ("object-ranks", "exhaustive", "fail", "rank 0 sent to rank 1", 1, None),
        ("identity-preservation", "exhaustive", "fail",
         "identity at rank 0 moved: F1->F1[[0]]", 1, None),
        ("zero-preservation", "exhaustive", "pass", None, 9, None),
        ("addition-preservation", "exhaustive", "pass", None, 66064, None),
        ("composition-preservation", "exhaustive", "pass", None, 74979, None),
        ("biproduct-images", "exhaustive", "fail",
         "image injection/projection pairing broken at rank 1", 1, None)]


def test_sweeps_evaluate_each_factor_once_and_not_once_per_pair():
    calls = []

    def shift(f):
        calls.append(f)
        return M.zero_morphism(F4, f.dom.rank + 1, f.cod.rank + 1)

    functor = M.BlackBoxFunctor(
        F4, shift, object_action=lambda obj: M.FreeObject(obj.rank + 1),
        cap=2, name="rank-shift")
    records = _law_records(A.verify_functor(functor))
    pairs = sum(r.checked for r in records)
    morphisms = sum(M.count_morphisms(F4, n, m) for n in range(3) for m in range(3))
    # one image per pair (of f + g or f ; g), plus each shape's factors once
    assert pairs <= len(calls) <= pairs + 10 * morphisms


def _record_values(report):
    return [(r.name, r.regime, r.status, r.witness, r.checked, r.seed)
            for r in report.records]


def test_failing_records_keep_their_witnesses_and_counts():
    # ``checked`` counts the cases up to and including the failing one; a
    # functor that raises gives an "error:" record with no count (the
    # rank-shift functor is pinned in test_verify_functor_rejects_rank_change)
    one = M.identity(F4, 1)
    one_to_zero = M.BlackBoxFunctor(
        F4, lambda f: M.zero_morphism(F4, 1, 1) if f == one else f,
        cap=2, name="one-to-zero")

    def raising(f):
        if f.dom.rank == 2 and f.cod.rank == 2:
            raise SearchCapExceeded("no 2x2 images")
        return f

    poison = M.from_entries(F4, [[2, 0], [0, 1]])

    def corrupt(f):
        if f == poison:
            return M.zero_morphism(F4, f.dom, f.cod)
        return f.map_entries(FROB.apply)

    corrupted = M.BlackBoxFunctor(F4, corrupt, cap=2, name="corrupt")
    passes = [("object-ranks", "exhaustive", "pass", None, 3),
              ("identity-preservation", "exhaustive", "pass", None, 3),
              ("zero-preservation", "exhaustive", "pass", None, 9)]
    expected = {
        one_to_zero: [
            ("object-ranks", "exhaustive", "pass", None, 3, None),
            ("identity-preservation", "exhaustive", "fail",
             "identity at rank 1 moved: F1->F1[[0]]", 2, None),
            ("zero-preservation", "exhaustive", "pass", None, 9, None),
            ("addition-preservation", "exhaustive", "fail",
             "addition broken at F1->F1[[1]] + F1->F1[[2]]", 7, None),
            ("composition-preservation", "exhaustive", "fail",
             "composition broken at F1->F1[[1]] ; F1->F1[[2]]", 311, None),
            ("biproduct-images", "exhaustive", "fail",
             "image injection/projection pairing broken at rank 1", 1, None)],
        M.BlackBoxFunctor(F4, raising, cap=2, name="raising"): [
            ("object-ranks", "exhaustive", "pass", None, 3, None),
            *[(name, "exhaustive", "fail", "error: no 2x2 images", 0, None)
              for name in ("identity-preservation", "zero-preservation",
                           "addition-preservation", "composition-preservation")],
            ("biproduct-images", "exhaustive", "pass", None, 3, None)],
        corrupted: [
            *[(*p, None) for p in passes],
            ("addition-preservation", "exhaustive", "fail",
             "addition broken at F2->F2[[0, 0], [0, 1]] + F2->F2[[2, 0], [0, 0]]", 913, None),
            ("composition-preservation", "exhaustive", "fail",
             "composition broken at F1->F2[[0, 1]] ; F2->F2[[2, 0], [0, 1]]", 1042, None),
            ("biproduct-images", "exhaustive", "pass", None, 3, None)],
    }
    for functor, records in expected.items():
        assert _record_values(A.verify_functor(functor)) == records, functor.name
    assert _record_values(A.verify_functor(corrupted, budget=300, seed=5)) == [
        *[(*p, None) for p in passes],
        ("addition-preservation", "sampled", "fail",
         "addition broken at F2->F2[[2, 0], [0, 1]] + F2->F2[[2, 0], [3, 3]]", 193, 5),
        ("composition-preservation", "sampled", "fail",
         "composition broken at F1->F2[[3, 0]] ; F2->F2[[2, 0], [0, 1]]", 120, 5),
        ("biproduct-images", "exhaustive", "pass", None, 3, None)]


def test_morphism_sweep_regime_rule():
    # exhaustive iff the sum over shapes of the product of the factor counts
    # fits the budget; else max(1, samples // len(shapes)) draws per shape
    one = ((1, 1),)
    pair = ((1, 1), (1, 2))
    regime, cases = A._morphism_sweep(B, [one, pair], budget=10, seed=0)
    cases = list(cases)
    assert regime == "exhaustive"
    assert [len(c) for c in cases] == [1] * 2 + [2] * 8
    assert cases[2:4] == [(M.from_entries(B, [[0]]), M.from_entries(B, [[0, 0]])),
                          (M.from_entries(B, [[0]]), M.from_entries(B, [[0, 1]]))]
    regime, cases = A._morphism_sweep(B, [one, pair], budget=9, seed=0, samples=7)
    assert regime == "sampled"
    assert [len(c) for c in cases] == [1] * 3 + [2] * 3
    first = list(A._morphism_sweep(B, [pair], budget=0, seed=4, tag="t")[1])
    again = list(A._morphism_sweep(B, [pair], budget=0, seed=4, tag="t")[1])
    rng = random.Random("4:t")
    drawn = []
    for _ in range(len(first)):
        drawn.append((M.random_morphism(B, 1, 1, rng), M.random_morphism(B, 1, 2, rng)))
    assert first == again == drawn
    assert A._morphism_sweep(S.TropicalSemiring(), [one], budget=10**9, seed=0)[0] == "sampled"


def test_extract_sigma_round_trips():
    z2z2 = S.product_semiring(S.zmod_semiring(2), S.zmod_semiring(2))
    for semiring in (B, S.trivial_semiring(), Z4, F4, z2z2):
        for sigma in S.automorphism_groups(semiring).aut:
            recovered = A.extract_sigma(skew(sigma))
            assert recovered.perm == sigma.perm


def test_extract_sigma_rejects_non_bijective_scalar_action():
    from semicat.errors import NotAnAutomorphism

    def squaring(f):
        return f.map_entries(lambda r: Z4.mul(r, r))

    functor = M.BlackBoxFunctor(Z4, squaring, cap=2, name="squaring-mod-4")
    # injections carry only 0/1 entries, so they stay fixed; the scalar
    # action 0,1,0,1 is not a bijection
    with pytest.raises(NotAnAutomorphism):
        A.extract_sigma(functor)


def test_extract_sigma_checks_an_identity_twist_against_the_morphism_itself():
    from semicat.errors import NotAnAutomorphism

    # not an injection, and every entry is fixed by the identity twist
    full = M.from_entries(F4, [[1, 1], [1, 1]])

    def almost_identity(f):
        return M.zero_morphism(F4, f.dom, f.cod) if f == full else f

    functor = M.BlackBoxFunctor(F4, almost_identity, cap=2, name="almost-identity")
    with pytest.raises(NotAnAutomorphism, match="does not reproduce"):
        A.extract_sigma(functor)
    assert A.extract_sigma(identity_functor(F4, cap=2)).is_identity


def test_identity_map_automorphism_is_not_applied():
    tropical = S.TropicalSemiring()
    sigma = S.identity_automorphism(tropical)
    assert sigma.is_identity
    assert not sigma.then(sigma).is_identity
    assert not S.MapAutomorphism(tropical, lambda x: x).is_identity
    calls = []
    sigma.func = lambda x: calls.append(x) or x
    functor = skew(sigma)
    rng = random.Random(4)
    for n, m in itertools.product((1, 2), repeat=2):
        for _ in range(10):
            f = M.random_morphism(tropical, n, m, rng)
            assert functor.on_morphism(f) == f
    assert calls == []


def test_normalize_rejects_non_additive_box():
    from semicat.errors import NonInvertibleStack

    dead_row = M.BiproductSystem(F4, 2).injections[0]

    def collapse(f):
        if f == dead_row:
            return M.zero_morphism(F4, f.dom, f.cod)
        return f

    functor = M.BlackBoxFunctor(F4, collapse, cap=2, name="row-collapser")
    with pytest.raises(NonInvertibleStack):
        A.normalize_injections(functor)


def test_extract_sigma_requires_fixed_injections():
    swap = M.from_entries(F4, [[0, 1], [1, 0]])
    data = A.SemiInnerData(
        semiring=F4, sigma=S.identity_automorphism(F4),
        family={2: swap}, cap=2)
    with pytest.raises(InjectionsNotFixed):
        A.extract_sigma(A.semi_inner_functor(data))


def test_normalize_fixed_point_and_round_trip():
    functor = skew(FROB)
    normalized, witness = A.normalize_injections(functor)
    for f in all_shape_morphisms(F4, 2):
        assert normalized.on_morphism(f) == functor.on_morphism(f)
    assert all(witness.component(n).is_identity() for n in (1, 2))


def test_normalize_semi_inner_recovers_skew():
    rng = random.Random(33)
    for _ in range(5):
        data = A.random_semi_inner_data(F4, 2, rng, F4_GROUPS)
        functor = A.semi_inner_functor(data)
        normalized, witness = A.normalize_injections(functor)
        sigma = A.extract_sigma(normalized)
        assert sigma.perm == data.sigma.perm
        reference = skew(sigma)
        for f in all_shape_morphisms(F4, 2):
            assert normalized.on_morphism(f) == reference.on_morphism(f)
            # witness equation: original = conjugated normalized image
            assert functor.on_morphism(f) == witness.conjugate(
                normalized.on_morphism(f))
            assert witness.square_commutes(
                normalized.on_morphism(f), functor.on_morphism(f))


def test_normalize_inner_over_z2_gives_identity():
    z2 = S.zmod_semiring(2)
    rng = random.Random(5)
    family = {n: M.random_invertible(z2, n, rng)[0] for n in (1, 2)}
    data = A.SemiInnerData(
        semiring=z2, sigma=S.identity_automorphism(z2), family=family, cap=2)
    normalized, _ = A.normalize_injections(A.semi_inner_functor(data))
    for f in all_shape_morphisms(z2, 2):
        assert normalized.on_morphism(f) == f


def test_normalize_idempotent():
    rng = random.Random(11)
    data = A.random_semi_inner_data(Z4, 2, rng)
    first, _ = A.normalize_injections(A.semi_inner_functor(data))
    second, witness = A.normalize_injections(first)
    for f in all_shape_morphisms(Z4, 2):
        assert second.on_morphism(f) == first.on_morphism(f)
    assert all(witness.component(n).is_identity() for n in (1, 2))


def test_decompose_identity_isos():
    functor = skew(FROB)
    isos = M.IsoFamily.identities(F4, [M.FreeObject(1), M.FreeObject(2)])
    stable, inner = decompose_stable_inner(functor, isos)
    for f in all_shape_morphisms(F4, 2):
        assert stable.on_morphism(f) == functor.on_morphism(f)
        assert inner.on_morphism(f) == f


def test_decompose_conjugation_collapses():
    rng = random.Random(17)
    family = {n: M.random_invertible(F4, n, rng)[0] for n in (1, 2)}
    data = A.SemiInnerData(
        semiring=F4, sigma=S.identity_automorphism(F4), family=family, cap=2)
    functor = A.semi_inner_functor(data)
    # the conjugating family itself splits the functor exactly
    isos = M.IsoFamily({M.FreeObject(n): family[n] for n in (1, 2)})
    stable, _ = decompose_stable_inner(functor, isos)
    for f in all_shape_morphisms(F4, 2):
        assert stable.on_morphism(f) == f


def test_decompose_recomposition():
    rng = random.Random(29)
    functor = skew(FROB)
    isos = M.IsoFamily({
        M.FreeObject(n): M.random_invertible(F4, n, rng)[0] for n in (1, 2)
    })
    stable, inner = decompose_stable_inner(functor, isos)
    recomposed = compose_functors(stable, inner)
    for f in list(M.enumerate_morphisms(F4, 1, 1)) + [
            M.random_morphism(F4, 2, 2, rng) for _ in range(40)]:
        assert recomposed.on_morphism(f) == functor.on_morphism(f)


def test_compose_semi_inner_neutral_and_skew():
    ident = A.skew_inner_functor(S.identity_automorphism(F4), 2)
    frob_data = A.skew_inner_functor(FROB, 2)
    composite = compose_semi_inner(ident, frob_data)
    assert composite.sigma.perm == FROB.perm and not composite.family
    both = compose_semi_inner(frob_data, frob_data)
    assert both.sigma.perm == S.identity_automorphism(F4).perm


def test_compose_semi_inner_matches_pointwise():
    rng = random.Random(41)
    a = A.random_semi_inner_data(F4, 2, rng, F4_GROUPS)
    b = A.random_semi_inner_data(F4, 2, rng, F4_GROUPS)
    composite = A.semi_inner_functor(compose_semi_inner(a, b))
    assert A.verify_functor(composite).passed
    pointwise = compose_functors(A.semi_inner_functor(a), A.semi_inner_functor(b))
    for f in all_shape_morphisms(F4, 2):
        assert composite.on_morphism(f) == pointwise.on_morphism(f)


def test_compose_semi_inner_cap_mismatch():
    with pytest.raises(CapMismatch):
        compose_semi_inner(
            A.skew_inner_functor(FROB, 2), A.skew_inner_functor(FROB, 3))


def test_inner_witness_reconstruction_and_fresh_samples():
    rng = random.Random(53)
    family = {n: M.random_invertible(Z4, n, rng)[0] for n in (1, 2)}
    data = A.SemiInnerData(
        semiring=Z4, sigma=S.identity_automorphism(Z4), family=family, cap=2)
    functor = A.semi_inner_functor(data)
    witness = A.inner_witness(functor)
    assert witness is not None
    for f in all_shape_morphisms(Z4, 2):  # includes morphisms never sampled
        assert functor.on_morphism(f) == witness.conjugate(f)


def test_inner_witness_identity():
    witness = A.inner_witness(identity_functor(F4, cap=2))
    assert witness is not None
    assert all(witness.component(n).is_identity() for n in (1, 2))


def test_inner_witness_refutes_frobenius():
    assert A.inner_witness(skew(FROB)) is None


def test_inner_witness_budget_is_distinct_from_refutation():
    with pytest.raises(SearchCapExceeded):
        A.inner_witness(skew(FROB), budget=3)


def test_inner_witness_matches_exhaustive_oracle():
    rng = random.Random(71)
    z2z2 = S.product_semiring(S.zmod_semiring(2), S.zmod_semiring(2))
    for semiring in catalog_finite() + [upper_triangular_boolean(), z2z2]:
        functors = []
        for sigma in S.automorphism_groups(semiring).aut:
            family = {n: M.random_invertible(semiring, n, rng)[0] for n in (1, 2)}
            functors += [skew(sigma), A.semi_inner_functor(
                A.SemiInnerData(semiring=semiring, sigma=sigma, family=family, cap=2))]
        if semiring.size > 1:
            # T_n^-1 ; f ; S_m with S_2 != T_2: not a functor
            left = {n: M.random_invertible(semiring, n, rng) for n in (1, 2)}
            right = {1: left[1][0], 2: next(
                t for t, _ in invertible_morphisms(semiring, 2) if t != left[2][0])}

            def mixed(f, left=left, right=right):
                return left[f.dom.rank][1].then(f).then(right[f.cod.rank])

            functors.append(M.BlackBoxFunctor(semiring, mixed, cap=2, name="mixed"))
        morphisms = all_shape_morphisms(semiring, 2, include_zero_rank=True)
        for functor in functors:
            found = A.inner_witness(functor)
            oracle = brute_force_inner_witness(functor)
            assert (found is None) == (oracle is None), (semiring.name, functor.name)
            if found is not None:
                for f in morphisms:
                    image = functor.on_morphism(f)
                    assert found.conjugate(f) == image == oracle.conjugate(f)


def test_inner_witness_finds_every_conjugation_of_m2_f2():
    ring = matrix_ring_f2()
    conjugations = []
    for u in ring.unit_elements():
        v = ring.try_unit_inverse(u)
        conjugations.append((u, S.PermutationAutomorphism(
            ring, [ring.mul(ring.mul(v, r), u) for r in ring.elements()])))
    assert len({sigma.perm for _, sigma in conjugations}) == 6
    for u, sigma in conjugations:
        witness = A.inner_witness(skew(sigma, cap=1))
        assert witness is not None and witness.component(1).entries == ((u,),)
    # 66,064 morphisms up to rank 2 fit the budget, so the sweep is exhaustive
    assert sum(M.count_morphisms(ring, n, m)
               for n in (1, 2) for m in (1, 2)) <= A.DEFAULT_BUDGET
    moved = [sigma for _, sigma in conjugations if not sigma.is_identity]
    for sigma in moved[:2]:
        functor = skew(sigma)
        witness = A.inner_witness(functor)
        assert witness is not None
        for f in all_shape_morphisms(ring, 1):
            assert functor.on_morphism(f) == witness.conjugate(f)


def test_inner_witness_over_tropical():
    tropical = S.TropicalSemiring()
    doubling = S.MapAutomorphism(
        tropical, lambda x: None if x is None else 2 * x, name="double")
    assert A.inner_witness(skew(doubling)) is None
    half, two = Fraction(1, 2), Fraction(2)
    family = {1: M.from_entries(tropical, [[two]]),
              2: M.from_entries(tropical, [[half, None], [None, -two]])}
    functor = A.semi_inner_functor(A.SemiInnerData(
        semiring=tropical, sigma=S.identity_automorphism(tropical),
        family=family, cap=2))
    witness = A.inner_witness(functor, seed=3)
    assert witness is not None
    rng = random.Random(5)
    for n, m in itertools.product((1, 2), repeat=2):
        for _ in range(10):
            f = M.random_morphism(tropical, n, m, rng)
            assert functor.on_morphism(f) == witness.conjugate(f)


def test_reduction_check_identity_and_skew():
    report = reduction_precondition_check(identity_functor(B, cap=2), 2)
    assert report.left_side and report.right_side and report.agree
    report = reduction_precondition_check(skew(FROB), 2)
    assert not report.left_side and not report.right_side and report.agree


def test_reduction_check_catches_non_functor():
    system = M.BiproductSystem(B, 2)
    moved = M.from_entries(B, [[1], [0]], dom=M.FreeObject(2), cod=M.FreeObject(1))

    def fake(f):
        if f == system.codiagonal:
            return moved
        return f

    with pytest.raises(EquivalenceViolation):
        reduction_precondition_check(
            M.BlackBoxFunctor(B, fake, cap=2, name="codiag-mover"), 2)


def test_certification_pipeline_for_composites():
    # a composite of a conjugation, an entrywise action, and another
    # conjugation is certified by normalize -> extract -> re-verify
    rng = random.Random(61)
    for semiring, groups in ((F4, F4_GROUPS), (Z4, S.automorphism_groups(Z4))):
        ident = S.identity_automorphism(semiring)
        for _ in range(5):
            inner_one = A.SemiInnerData(
                semiring=semiring, sigma=ident,
                family={n: M.random_invertible(semiring, n, rng)[0] for n in (1, 2)},
                cap=2)
            sigma = groups.aut[rng.randrange(len(groups.aut))]
            inner_two = A.SemiInnerData(
                semiring=semiring, sigma=ident,
                family={n: M.random_invertible(semiring, n, rng)[0] for n in (1, 2)},
                cap=2)
            composite = compose_functors(
                compose_functors(
                    A.semi_inner_functor(inner_one),
                    skew(sigma)),
                A.semi_inner_functor(inner_two))
            normalized, witness = A.normalize_injections(composite)
            recovered = A.extract_sigma(normalized)
            reference = skew(recovered)
            for f in all_shape_morphisms(semiring, 2):
                assert normalized.on_morphism(f) == reference.on_morphism(f)
                assert composite.on_morphism(f) == witness.conjugate(
                    normalized.on_morphism(f))
            assert A.verify_functor(normalized, budget=2000, seed=7).passed


def test_outer_group_counts():
    assert A.outer_group_experiment(B, 2).class_count == 1
    assert A.outer_group_experiment(Z4, 2).class_count == 1
    report = A.outer_group_experiment(F4, 2)
    assert report.class_count == 2 and report.consistent
    z2z2 = S.product_semiring(S.zmod_semiring(2), S.zmod_semiring(2))
    report = A.outer_group_experiment(z2z2, 2)
    assert report.class_count == 2 and report.consistent


def test_outer_group_reports_bounds_when_undecided():
    # starve the witness search so every pair stays undecided
    report = A.outer_group_experiment(F4, 2, budget=2)
    assert report.undecided and not report.consistent
    assert report.class_count == 2  # no confirmed merges: upper bound
    assert report.class_count_lower_bound == 1


def test_outer_group_larger_fields_and_a_noncommutative_carrier():
    from support import upper_triangular_boolean

    report = A.outer_group_experiment(S.galois_semiring(8), 2)
    assert report.class_count == report.out_order == 3 and report.consistent
    report = A.outer_group_experiment(S.galois_semiring(9), 2)
    assert report.class_count == report.out_order == 2 and report.consistent
    report = A.outer_group_experiment(upper_triangular_boolean(), 1)
    assert report.class_count == report.out_order == 1 and report.consistent


def test_outer_group_of_m2_f2_is_trivial():
    # Skolem-Noether: every automorphism of M_2(F_2) is inner, so the six
    # carrier actions fall into one class.  Cap 2 is left out for its cost.
    ring = matrix_ring_f2()
    groups = S.automorphism_groups(ring)
    assert {a.perm for a in groups.aut} == {a.perm for a in groups.inn}
    report = A.outer_group_experiment(ring, cap=1)
    assert (report.aut_order, report.inn_order, report.out_order) == (6, 6, 1)
    assert report.classes == ((0, 1, 2, 3, 4, 5),)
    assert report.undecided == () and report.consistent


_Z, _G, _P = S.zmod_semiring, S.galois_semiring, S.product_semiring
OUTER_GROUP_CARRIERS = [
    (B, 2), (Z4, 2), (F4, 2), (_G(8), 2), (_G(9), 2), (_G(16), 2), (_Z(6), 2),
    (_P(_Z(2), _Z(2)), 2), (_P(F4, _Z(2)), 2), (upper_triangular_boolean(), 2),
    (matrix_ring_f2(), 1), (_P(matrix_ring_f2(), F4), 1),
    (_P(matrix_ring_f2(), _Z(3)), 1)]


@pytest.mark.parametrize("budget", [A.DEFAULT_BUDGET, 5])
@pytest.mark.parametrize(
    "semiring,cap", OUTER_GROUP_CARRIERS,
    ids=[f"{R.name}-cap{cap}" for R, cap in OUTER_GROUP_CARRIERS])
def test_coset_classes_match_the_pairwise_union_find(semiring, cap, budget):
    report = A.outer_group_experiment(semiring, cap, budget=budget)
    oracle = pairwise_outer_group_experiment(semiring, cap, budget)
    assert report.to_json() == oracle.to_json()


def test_outer_group_asks_once_per_non_identity_automorphism(monkeypatch):
    calls = []
    witness = A.inner_witness

    def counted(functor, **kwargs):
        calls.append(functor)
        return witness(functor, **kwargs)

    monkeypatch.setattr(A, "inner_witness", counted)
    ring = matrix_ring_f2()
    report = A.outer_group_experiment(ring, cap=1)
    assert len(calls) == report.aut_order - 1 == 5
    calls.clear()
    pairwise_outer_group_experiment(ring, 1, A.DEFAULT_BUDGET)
    assert len(calls) == 6 * 5 // 2
