"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here runs at desk scale with exact arithmetic; tolerances are
exact equality throughout, and every sweep states its regime by construction
(exhaustive enumeration unless a seeded sample is noted).
"""

import random
import time

import pytest

from semicat import autfunctors as A
from semicat import ibn
from semicat import lie as L
from semicat import matcat as M
from semicat import semirings as S
from semicat.harness import ExperimentConfig, emit_report, run_experiment
from support import (
    UEnvelopeSemiring,
    all_shape_morphisms,
    catalog_all,
    catalog_finite,
    catalog_infinite,
    compose_functors,
    compose_semi_inner,
    decompose_stable_inner,
    hat_sigma_conjugate,
    identity_functor,
    monomials_up_to,
    reduction_precondition_check,
    rejected_perturbations,
)

GF4 = S.galois_semiring(4)
ZMOD4 = S.zmod_semiring(4)
GF4_GROUPS = S.automorphism_groups(GF4)
FROBENIUS = GF4_GROUPS.aut[1]


def _announce(number, name):
    print(f"[criterion {number:02d}] {name}: PASS")


def test_criterion_01_semiring_axioms():
    start = time.time()
    for semiring in catalog_finite():
        S.validate_semiring(
            [list(r) for r in semiring.add_table],
            [list(r) for r in semiring.mul_table],
            semiring.zero, semiring.one)
    rng = random.Random(101)
    for semiring in catalog_infinite():
        sample = [semiring.zero, semiring.one] + [
            semiring.sample_element(rng) for _ in range(5)]
        S.check_axioms_on_sample(semiring, sample)
    rejected = 0
    for semiring in (S.boolean_semiring(), ZMOD4, GF4):
        for _, add, mul, exc in rejected_perturbations(semiring, 7):
            assert not S.evaluate_axiom(
                add, mul, semiring.zero, semiring.one, exc.axiom, exc.witness)
            rejected += 1
            if rejected == 20:
                break
        if rejected == 20:
            break
    assert rejected == 20
    elapsed = time.time() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _announce(1, "semiring axioms and 20 perturbation rejections")


def test_criterion_02_ibn_refutation():
    start = time.time()
    boolean = S.boolean_semiring()
    for n in range(1, 4):
        for m in range(1, 4):
            if n != m:
                assert ibn.free_iso_witness(boolean, n, m, shortcut=False) is None
    trivial = S.trivial_semiring()
    a, b = ibn.free_iso_witness(trivial, 1, 2)
    assert a.then(b).is_identity() and b.then(a).is_identity()
    cls = ibn.classify_type(trivial, 3)
    assert cls.kind == "type" and (cls.n, cls.h) == (1, 1)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    _announce(2, "exhaustive IBN refutation and the one-element collapse")


def test_criterion_03_left_right_agreement():
    start = time.time()
    for semiring in catalog_all():
        report = ibn.left_right_ibn_agree(semiring, 3)
        assert report.agree, semiring.name
    elapsed = time.time() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    _announce(3, "left/right classification agreement across the catalog")


def test_criterion_04_skew_round_trip():
    for semiring in catalog_finite():
        assert semiring.size <= 4
        for sigma in S.automorphism_groups(semiring).aut:
            functor = A.semi_inner_functor(A.skew_inner_functor(sigma, 2))
            recovered = A.extract_sigma(functor)
            assert recovered.perm == sigma.perm
            report = A.verify_functor(functor)
            assert report.passed
            assert all(r.regime == "exhaustive" for r in report.records)
    _announce(4, "entrywise-action round trips and exhaustive functor laws")


@pytest.mark.parametrize("semiring", [GF4, ZMOD4], ids=["gf4", "zmod4"])
def test_criterion_05_normalization(semiring):
    start = time.time()
    groups = S.automorphism_groups(semiring)
    rng = random.Random(f"criterion5:{semiring.name}")
    squares = [
        f for shape in ((1, 1), (2, 2))
        for f in M.enumerate_morphisms(semiring, *shape)]
    everything = all_shape_morphisms(semiring, 2)
    for _ in range(100):
        data = A.random_semi_inner_data(semiring, 2, rng, groups)
        functor = A.semi_inner_functor(data)
        normalized, witness = A.normalize_injections(functor)
        for n in (1, 2):
            for mu in M.BiproductSystem(semiring, n).injections:
                assert normalized.on_morphism(mu) == mu
        sigma = A.extract_sigma(normalized)
        reference = A.semi_inner_functor(A.skew_inner_functor(sigma, 2))
        for f in squares:
            assert normalized.on_morphism(f) == reference.on_morphism(f)
        for f in everything:
            assert witness.square_commutes(
                normalized.on_morphism(f), functor.on_morphism(f))
    elapsed = time.time() - start
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.2f}s"
    _announce(5, f"normalization over {semiring.name} (100 seeded cases)")


def test_criterion_06_decompose_and_compose():
    rng = random.Random("criterion6")
    everything = all_shape_morphisms(GF4, 2)
    for _ in range(50):
        data = A.random_semi_inner_data(GF4, 2, rng, GF4_GROUPS)
        functor = A.semi_inner_functor(data)
        isos = M.IsoFamily({
            M.FreeObject(n): M.random_invertible(GF4, n, rng)[0] for n in (1, 2)})
        stable, inner = decompose_stable_inner(functor, isos)
        recomposed = compose_functors(stable, inner)
        for f in everything:
            assert recomposed.on_morphism(f) == functor.on_morphism(f)
    for _ in range(50):
        a = A.random_semi_inner_data(GF4, 2, rng, GF4_GROUPS)
        b = A.random_semi_inner_data(GF4, 2, rng, GF4_GROUPS)
        composite = A.semi_inner_functor(compose_semi_inner(a, b))
        pointwise = compose_functors(
            A.semi_inner_functor(a), A.semi_inner_functor(b))
        for f in everything:
            assert composite.on_morphism(f) == pointwise.on_morphism(f)
    _announce(6, "decomposition and composition identities (50 seeded cases each)")


def test_criterion_07_outer_group_correspondence():
    start = time.time()
    for semiring, expected in ((S.boolean_semiring(), 1), (ZMOD4, 1), (GF4, 2)):
        groups = S.automorphism_groups(semiring)
        report = A.outer_group_experiment(semiring, 2)
        assert report.class_count == expected
        assert report.class_count == groups.out_order
        assert not report.undecided and report.consistent
    elapsed = time.time() - start
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.2f}s"
    _announce(7, "outer class counts match the carrier outer groups")


@pytest.mark.parametrize("semiring", [ZMOD4, GF4], ids=["zmod4", "gf4"])
def test_criterion_08_reduction_machinery(semiring):
    rng = random.Random(f"criterion8:{semiring.name}")
    everything = all_shape_morphisms(semiring, 2)
    identity_sigma = S.identity_automorphism(semiring)
    for _ in range(100):
        family = {n: M.random_invertible(semiring, n, rng)[0] for n in (1, 2)}
        data = A.SemiInnerData(
            semiring=semiring, sigma=identity_sigma, family=family, cap=2)
        functor = A.semi_inner_functor(data)
        witness = A.inner_witness(functor)
        assert witness is not None
        for f in everything:
            assert functor.on_morphism(f) == witness.conjugate(f)
        assert reduction_precondition_check(functor, 2).agree
    ident_report = reduction_precondition_check(
        identity_functor(semiring, cap=2), 2)
    assert ident_report.agree and ident_report.left_side
    if semiring is GF4:
        skewed = A.semi_inner_functor(A.skew_inner_functor(FROBENIUS, 2))
        assert A.inner_witness(skewed) is None
        frob_report = reduction_precondition_check(skewed, 2)
        assert frob_report.agree and not frob_report.left_side
    _announce(8, f"inner witnesses over {semiring.name} and the refutations")


def test_criterion_09_pbw_oracle():
    start = time.time()
    algebras = (
        L.sl2(L.RationalField()),
        L.heisenberg(L.IntegerRing()),
        L.abelian(L.PrimeField(2), 2),
    )
    for lie in algebras:
        envelope = L.UniversalEnvelope(lie)
        deg3 = monomials_up_to(envelope, 3)
        for u in deg3:
            for v in deg3:
                assert u * v == L.multiply_by_word_rewriting(u, v)
        deg2 = monomials_up_to(envelope, 2)
        for u in deg2:
            for v in deg2:
                uv = u * v
                for w in deg2:
                    assert uv * w == u * (v * w)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"criterion 9 took {elapsed:.2f}s"
    _announce(9, "straightening agrees with the word-rewriting route")


def test_criterion_10_domain_and_units():
    envelope = L.UniversalEnvelope(L.sl2(L.IntegerRing()))
    deg3 = monomials_up_to(envelope, 3)
    for u in deg3:
        for v in deg3:
            product = u * v
            assert product.degree() == u.degree() + v.degree()
            assert product.leading() == L.commutative_multiply(
                u.leading(), v.leading())
    rng = random.Random("criterion10")
    checked = 0
    for _ in range(1000):
        u = envelope.sample_element(rng, max_degree=3, terms=2)
        expected = u.degree() == 0 and u.constant_coefficient() in (1, -1)
        assert L.is_unit(u) == expected
        checked += 1
    assert checked == 1000
    env_q = L.UniversalEnvelope(L.sl2(L.RationalField()))
    assert L.is_unit(env_q.scalar(L.RationalField().from_int(3)))
    assert not L.is_unit(envelope.scalar(2))
    assert not L.is_unit(env_q.one() + env_q.generator(0))
    _announce(10, "graded-domain laws and the unit classifier")


def test_criterion_11_basis_counts():
    ring = L.RationalField()
    for dim in (1, 2, 3):
        lie = L.abelian(ring, dim)
        for gens in (1, 2):
            generators = tuple(f"x{i}" for i in range(gens))
            for cap in range(0, 5):
                expected = gens * sum(
                    L.multiset_count(dim, k) for k in range(cap + 1))
                assert len(L.free_module_basis(lie, generators, cap)) == expected
    for p in (2, 3):
        field = L.PrimeField(p)
        for dim in (1, 2):
            lie = L.abelian(field, dim)
            for gens in (1, 2):
                generators = tuple(f"x{i}" for i in range(gens))
                full_cap = dim * (p - 1)
                count = len(L.restricted_module_basis(
                    lie, p, generators, full_cap))
                assert count == gens * p ** dim
    _announce(11, "module basis counts match the closed forms")


def test_criterion_12_restricted_axioms():
    f2 = L.PrimeField(2)
    assert L.verify_restricted(
        L.abelian(f2, 2), L.RestrictedStructure(2, ({}, {}))).passed
    f5 = L.PrimeField(5)
    assert L.verify_restricted(
        L.sl2(f5), L.RestrictedStructure(5, ({}, {1: 1}, {}))).passed
    heis = L.heisenberg(f2)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            g1, g2 = {i: f2.one}, {j: f2.one}
            terms = L.s_polynomials(heis, 2, g1, g2)
            assert terms[0] == heis.bracket(g2, g1)
    _announce(12, "restricted laws on the two reference algebras")


def test_criterion_13_lift_and_hat():
    lie = L.sl2(L.RationalField())
    envelope = L.UniversalEnvelope(lie)
    lifted = L.lift_semi_automorphism(
        L.chevalley_involution(lie), envelope=envelope)
    deg3 = monomials_up_to(envelope, 3)
    for u in deg3:
        for v in deg3:
            assert lifted.apply(u * v) == lifted.apply(u) * lifted.apply(v)
    f5 = L.PrimeField(5)
    lie5 = L.sl2(f5)
    env5 = L.UniversalEnvelope(lie5)
    carrier = UEnvelopeSemiring(env5, 3)
    lifted5 = L.lift_semi_automorphism(L.chevalley_involution(lie5), envelope=env5)
    rng = random.Random("criterion13")
    nu = M.from_entries(carrier, [
        [env5.sample_element(rng, max_degree=1) for _ in range(2)]
        for _ in range(2)])
    hat_sigma_conjugate(lifted5, nu, rng=rng, linearity_samples=200)
    _announce(13, "lift multiplicativity and conjugated-map linearity")


def test_criterion_14_cyclic_units():
    report = L.cyclic_aut_check(
        L.UniversalEnvelope(L.sl2(L.IntegerRing())), 2)
    assert report.passed and sorted(report.units) == [-1, 1]
    report = L.cyclic_aut_check(
        L.UniversalEnvelope(L.abelian(L.GaloisFieldRing(4), 2)), 2)
    assert report.passed and report.unit_count == 3
    report = L.cyclic_aut_check(
        L.UniversalEnvelope(L.sl2(L.PrimeField(5))), 2)
    assert report.passed and report.unit_count == 4
    _announce(14, "cyclic-module units are exactly the scalar units")


def test_criterion_15_harness_determinism():
    configs = [
        ExperimentConfig(kind="validate", semiring="gf:4", seed=17),
        ExperimentConfig(kind="validate", semiring="tropical", seed=17),
        ExperimentConfig(kind="ibn", semiring="boolean", cap=3, seed=17),
        ExperimentConfig(kind="aut-groups", semiring="gf:4", seed=17),
        ExperimentConfig(kind="functor-verify", semiring="gf:4", seed=17,
                         budget=4000),
        ExperimentConfig(kind="out-group", semiring="gf:4", seed=17),
        ExperimentConfig(kind="lie-suite", lie="sl2:zmod:5", seed=17),
    ]
    for config in configs:
        first = emit_report(run_experiment(config))
        second = emit_report(run_experiment(config))
        assert first == second
        assert '"verdict": "pass"' in first
    _announce(15, "byte-identical reports for identical (config, seed)")
