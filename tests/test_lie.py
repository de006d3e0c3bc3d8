import json
import os
import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicat import lie as L
from semicat import matcat as M
from semicat import semirings as S
from semicat.errors import (
    AntisymmetryViolation,
    AxiomViolation,
    DegreeCapExceeded,
    JacobiViolation,
    NotBracketPreserving,
    ParseError,
    SizeLimitExceeded,
    UnsupportedCarrier,
)
from semicat._galois import factor_prime_power
from support import monomials_up_to

Q = L.RationalField()
Z = L.IntegerRing()
F2 = L.PrimeField(2)
F5 = L.PrimeField(5)
GF4 = L.coefficient_ring("gf:4")


def sl2_env(ring=Q):
    return L.UniversalEnvelope(L.sl2(ring))


# ---------------------------------------------------------------------------
# coefficient rings


def test_coefficient_ring_resolution():
    assert L.coefficient_ring("Z").name == "Z"
    assert L.coefficient_ring("Q").name == "Q"
    assert L.coefficient_ring("zmod:5").characteristic == 5
    assert L.coefficient_ring("gf:5").characteristic == 5
    assert L.coefficient_ring("gf:4").characteristic == 2
    with pytest.raises(ParseError):
        L.coefficient_ring("octonions")
    with pytest.raises(UnsupportedCarrier):
        L.PrimeField(6)


def test_galois_ring_frobenius():
    g4 = L.GaloisFieldRing(4)
    autos = g4.automorphisms()
    assert len(autos) == 2
    frob = autos[1]
    assert all(frob.apply(x) == g4.mul(x, x) for x in range(4))
    assert all(frob.inverse_apply(frob.apply(x)) == x for x in range(4))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_frobenius_powers_are_the_whole_automorphism_group(q):
    frobenius = sorted(a.perm for a in L.GaloisFieldRing(q).automorphisms())
    groups = S.automorphism_groups(S.galois_semiring(q))
    assert frobenius == [a.perm for a in groups.aut]  # aut is sorted by perm


def test_identity_automorphism_on_every_coefficient_ring():
    rng = random.Random(11)
    for K in (Z, Q, F2, F5, GF4, L.PrimeField(1_000_003)):
        ident = S.identity_automorphism(K)
        for x in [K.zero, K.one] + [K.sample_element(rng) for _ in range(20)]:
            assert ident.apply(x) == x and ident.inverse_apply(x) == x


@given(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
       st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)))
@settings(max_examples=200, deadline=None)
def test_rationals_are_exact_with_integral_values_as_int(a, b):
    for got, want in ((Q.add(a, b), a + b), (Q.mul(a, b), a * b)):
        assert got == want and hash(got) == hash(want) and str(got) == str(want)
        assert (type(got) is int) == (want.denominator == 1)
        back = Q.value_from_json(Q.value_to_json(got))
        assert back == got and type(back) is type(got)
    inverse = Q.try_unit_inverse(a)
    assert inverse is None if a == 0 else Q.mul(a, inverse) == 1
    assert inverse is None or (type(inverse) is int) == ((1 / a).denominator == 1)


def test_rational_constants_and_samples_are_int_when_integral():
    assert all(type(x) is int for x in (Q.zero, Q.one, Q.from_int(-3),
                                        Q.value_from_json("4/2"),
                                        Q.try_unit_inverse(Fraction(1, 3))))
    rng = random.Random(0)
    for x in (Q.sample_element(rng) for _ in range(50)):
        assert (type(x) is int) == (Fraction(x).denominator == 1)


def test_prime_field_decides_primality_exactly():
    small = [n for n in range(-2, 2000) if n >= 2 and all(
        n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(-2, 2000) if L._is_prime(n)] == small
    # strong pseudoprimes to every prime base up to 7 and up to 23
    assert not L._is_prime(3_215_031_751)
    with pytest.raises(UnsupportedCarrier):
        L.PrimeField(3_825_123_056_546_413_051)
    assert L.PrimeField(2**61 - 1).mul(2**60, 2) == 1
    with pytest.raises(SizeLimitExceeded):
        L.PrimeField(L._MILLER_RABIN_EXACT_BELOW + 2)
    assert factor_prime_power(2**31 - 1) == (2**31 - 1, 1)
    assert factor_prime_power(243) == (3, 5)


# ---------------------------------------------------------------------------
# validation


def test_sl2_is_valid():
    lie = L.sl2(Q)
    assert lie.labels == ("f", "h", "e")
    # [e, f] = h
    assert lie.bracket_basis(2, 0) == {1: Q.one}


def test_abelian_valid_and_broken_jacobi():
    L.abelian(Q, 3)
    with pytest.raises(JacobiViolation) as exc:
        # sl2 with the wrong eigenvalue on e
        L.validate_lie(Q, 3, {
            (0, 1): {0: Q.from_int(2)},
            (0, 2): {1: Q.from_int(-1)},
            (1, 2): {2: Q.from_int(3)},
        })
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.residual


def test_antisymmetry_violations():
    with pytest.raises(AntisymmetryViolation):
        L.validate_lie(Q, 2, {(0, 0): {1: Q.one}})
    with pytest.raises(AntisymmetryViolation):
        L.validate_lie(Q, 2, {(0, 1): {0: Q.one}, (1, 0): {0: Q.one}})


def test_lie_json_round_trip(tmp_path):
    data = {
        "name": "heis", "ring": "Z", "dim": 3,
        "labels": ["x", "y", "z"],
        "brackets": [[0, 1, [[2, 1]]]],
    }
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(data))
    lie, restricted = L.lie_from_file(str(path))
    assert restricted is None
    assert lie == L.heisenberg(Z)


def test_lie_json_pmap_needs_prime_characteristic():
    data = {
        "ring": "Z", "dim": 1, "brackets": [],
        "pmap": [[0, []]],
    }
    with pytest.raises(ParseError):
        L.lie_from_dict(data)
    good = {
        "ring": "zmod:3", "dim": 1, "brackets": [],
        "pmap": [[0, [[0, 1]]]],
    }
    lie, restricted = L.lie_from_dict(good)
    assert restricted.p == 3 and restricted.image(0) == {0: 1}


def test_lie_json_tables_are_canonical():
    def load(ring, brackets):
        return L.lie_from_dict({"ring": ring, "dim": 3, "brackets": brackets})[0]

    for ring, brackets in (("zmod:5", [[0, 1, [[2, 5]]]]),
                           ("zmod:5", [[0, 1, [[2, 0]]]]),
                           ("Q", [[0, 1, []]]),
                           ("Q", [[0, 1, [[2, 0]]]])):
        lie = load(ring, brackets)
        abelian = L.abelian(lie.ring, 3)
        assert lie == abelian
        assert L.UniversalEnvelope(lie) == L.UniversalEnvelope(abelian)
    assert load("zmod:5", [[0, 1, [[2, 6]]]]) == load("zmod:5", [[0, 1, [[2, 1]]]])
    assert load("zmod:5", [[0, 1, [[2, -1]]]]) == load("zmod:5", [[0, 1, [[2, 4]]]])


# ---------------------------------------------------------------------------
# sparse combinations

SPARSE_RINGS = (Z, Q, F5, GF4)


def ring_values(K):
    if K is Q:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if K.is_finite:
        return st.sampled_from(list(K.elements()))
    return st.integers(-3, 3)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_accumulate_matches_dense_reference(data):
    K = data.draw(st.sampled_from(SPARSE_RINGS))
    values = ring_values(K)
    start = L.clean_vector(K, data.draw(st.dictionaries(st.integers(0, 3), values)))
    terms = data.draw(st.lists(st.tuples(st.integers(0, 3), values), max_size=8))
    c = data.draw(st.none() | values)
    dense = [start.get(k, K.zero) for k in range(4)]
    for k, x in terms:
        dense[k] = K.add(dense[k], x if c is None else K.mul(c, x))
    out = dict(start)
    assert L._accumulate(K, out, terms, c) is out
    assert out == {k: x for k, x in enumerate(dense) if not K.eq(x, K.zero)}


def test_accumulate_cancels_exactly():
    rng = random.Random(5)
    for K in SPARSE_RINGS:
        one, two = K.one, K.from_int(2)
        assert L._accumulate(K, {}, [(0, one), (1, one), (0, K.neg(one))]) == {1: one}
        assert L._accumulate(K, {0: one}, [(0, K.neg(one))]) == {}
        assert L._accumulate(K, {}, [(0, one), (1, two)], K.zero) == {}
        assert L.vec_scale(K, K.zero, {0: one}) == {}
        env = L.UniversalEnvelope(L.heisenberg(K))
        for _ in range(10):
            u = env.sample_element(rng, max_degree=3, terms=4)
            v = env.sample_element(rng, max_degree=3, terms=4)
            assert (u + v) + (-v) == u
            assert (v + (-v)).coeffs == {}


# ---------------------------------------------------------------------------
# PBW multiplication


def test_straightening_examples():
    env = sl2_env()
    f, h, e = env.generator(0), env.generator(1), env.generator(2)
    fe = env.monomial((1, 0, 1))
    he = env.monomial((0, 1, 1))
    assert e * f == fe + h
    assert e * h == he + e.scale(Q.from_int(-2))
    abel = L.UniversalEnvelope(L.abelian(F2, 2))
    x, y = abel.generator(0), abel.generator(1)
    assert x * y == y * x


def test_bilinearity():
    env = sl2_env()
    rng = random.Random(2)
    for _ in range(25):
        u = env.sample_element(rng, max_degree=2)
        v = env.sample_element(rng, max_degree=2)
        w = env.sample_element(rng, max_degree=2)
        assert (u + v) * w == u * w + v * w
        assert u * (v + w) == u * v + u * w


def test_word_oracle_agreement_degree3():
    for envelope in (sl2_env(Q), L.UniversalEnvelope(L.heisenberg(Z)),
                     L.UniversalEnvelope(L.abelian(F2, 2))):
        monomials = monomials_up_to(envelope, 3)
        for u in monomials:
            for v in monomials:
                assert u * v == L.multiply_by_word_rewriting(u, v)


def _sl2_with_a_half():
    """sl2 over Q in the basis (-f/2, h, e), read from a JSON file, so that
    [f', e] = h/2 puts a non-integral structure constant into the products."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sl2-half.json")
        with open(path, "w") as fh:
            json.dump({"ring": "Q", "dim": 3, "labels": ["f", "h", "e"],
                       "brackets": [[0, 1, [[0, 2]]], [0, 2, [[1, "1/2"]]],
                                    [1, 2, [[2, 2]]]]}, fh)
        lie, _ = L.lie_from_file(path)
    assert lie.bracket_basis(0, 2) == {1: Fraction(1, 2)}
    return lie


F7 = L.PrimeField(7)
ORACLE_ENVELOPES = (
    sl2_env(Q), sl2_env(Z), sl2_env(F7),
    L.UniversalEnvelope(L.heisenberg(Z)),
    L.UniversalEnvelope(L.sl2(F5), restricted=L.RestrictedStructure(
        p=5, images=({}, {1: 1}, {}))),  # h^[5] = h
    L.UniversalEnvelope(_sl2_with_a_half()),
)


def _word_by_oracle(env, word):
    out = env.one()
    for letter in word:
        out = L.multiply_by_word_rewriting(out, env.generator(letter))
    return out


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_products_agree_with_word_oracle(data):
    env = data.draw(st.sampled_from(ORACLE_ENVELOPES))
    letters = st.integers(0, env.lie.dim - 1)
    left = data.draw(st.lists(letters, max_size=8))
    right = data.draw(st.lists(letters, max_size=8 - len(left)))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    u = _word_by_oracle(env, left).scale(env.ring.sample_element(rng))
    v = _word_by_oracle(env, right) + env.scalar(env.ring.sample_element(rng))
    assert u * v == L.multiply_by_word_rewriting(u, v)
    whole = env.element(env.normal_form_word(tuple(left + right)))
    assert whole == _word_by_oracle(env, left + right)


def test_product_folds_only_the_left_letters():
    env = sl2_env(Z)
    calls = []
    times = env._times

    def counted(i, exp):
        calls.append((i, exp))
        return times(i, exp)

    env._times = counted
    f, h, e = env.generator(0), env.generator(1), env.generator(2)
    v = h * h + e * f + e  # fe + h^2 + h + e: four terms of degree <= 2
    assert len(v.coeffs) == 4
    calls.clear()
    product = e * v
    assert len(calls) == 4
    assert product == L.multiply_by_word_rewriting(e, v)


def test_deep_products_need_no_recursion():
    env = sl2_env(F7)
    e12, f12 = env.monomial((0, 0, 12)), env.monomial((12, 0, 0))  # 144 inversions
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        product = e12 * f12
        oracle = L.multiply_by_word_rewriting(e12, f12)
    finally:
        sys.setrecursionlimit(limit)
    assert product == oracle and product.degree() == 24


def test_associativity_exhaustive_degree2():
    env = sl2_env()
    monomials = monomials_up_to(env, 2)
    for u in monomials:
        for v in monomials:
            uv = u * v
            for w in monomials:
                assert uv * w == u * (v * w)


def test_associativity_sampled_degree3():
    for envelope in (sl2_env(Q), L.UniversalEnvelope(L.heisenberg(Z)),
                     L.UniversalEnvelope(L.abelian(F2, 2))):
        rng = random.Random(f"assoc3:{envelope.lie.labels}")
        for _ in range(500):
            u = envelope.sample_element(rng, max_degree=3)
            v = envelope.sample_element(rng, max_degree=3)
            w = envelope.sample_element(rng, max_degree=3)
            assert (u * v) * w == u * (v * w)


def test_commutator_matches_bracket():
    env = sl2_env()
    lie = env.lie
    rng = random.Random(7)
    for _ in range(30):
        uv = {i: Q.sample_element(rng) for i in range(3)}
        vv = {i: Q.sample_element(rng) for i in range(3)}
        u, v = env.from_vector(uv), env.from_vector(vv)
        assert u * v - v * u == env.from_vector(lie.bracket(uv, vv))


def test_casimir_element_is_central():
    from fractions import Fraction

    env = sl2_env()
    f, h, e = env.generator(0), env.generator(1), env.generator(2)
    casimir = e * f + f * e + (h * h).scale(Fraction(1, 2))
    monomials = monomials_up_to(env, 2)
    for u in monomials:
        assert casimir * u == u * casimir


def test_lowering_power_commutation_formula():
    # e f^n = f^n e + n f^(n-1) h - n(n-1) f^(n-1), a classical identity
    from fractions import Fraction

    env = sl2_env()
    f, h, e = env.generator(0), env.generator(1), env.generator(2)
    for n in range(1, 7):
        fn = env.monomial((n, 0, 0))
        fn1 = env.monomial((n - 1, 0, 0))
        expected = fn * e + (fn1 * h).scale(Fraction(n)) - fn1.scale(
            Fraction(n * (n - 1)))
        assert e * fn == expected


@given(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_commutator_property_over_z(us, vs):
    env = sl2_env(Z)
    lie = env.lie
    uv = {i: c for i, c in enumerate(us) if c}
    vv = {i: c for i, c in enumerate(vs) if c}
    u, v = env.from_vector(uv), env.from_vector(vv)
    assert u * v - v * u == env.from_vector(lie.bracket(uv, vv))


# ---------------------------------------------------------------------------
# filtration, graded structure, units


def test_filtration_examples():
    env = sl2_env()
    f, h, e = env.generator(0), env.generator(1), env.generator(2)
    u = e * f  # = fe + h
    assert u.degree() == 2 and u.leading() == env.monomial((1, 0, 1))
    five = env.scalar(Q.from_int(5))
    assert five.degree() == 0 and five.leading() == five
    assert env.zero().degree() is None and env.zero().leading() == env.zero()


def test_graded_domain_structure_exhaustive():
    env = sl2_env(Z)
    monomials = monomials_up_to(env, 3)
    for u in monomials:
        for v in monomials:
            product = u * v
            assert product.degree() == u.degree() + v.degree()
            assert product.leading() == L.commutative_multiply(
                u.leading(), v.leading())


def test_is_unit():
    env_q = sl2_env(Q)
    env_z = sl2_env(Z)
    assert L.is_unit(env_q.scalar(Q.from_int(3)))
    assert not L.is_unit(env_z.scalar(2))
    assert not L.is_unit(env_q.one() + env_q.generator(0))
    assert not L.is_unit(env_q.zero())
    assert L.is_unit(env_z.scalar(-1))


# ---------------------------------------------------------------------------
# module bases


def test_free_basis_example_labels():
    lie = L.abelian(Q, 2, labels=("e_1", "e_2"))
    basis = L.free_module_basis(lie, ("x_1",), 2)
    assert [b.label(lie) for b in basis] == [
        "x_1", "e_1x_1", "e_2x_1", "e_1e_1x_1", "e_2e_1x_1", "e_2e_2x_1"]


def test_free_basis_counts():
    lie3 = L.abelian(Q, 3)
    for gens in (1, 2):
        for cap in range(0, 5):
            basis = L.free_module_basis(lie3, tuple(f"x{i}" for i in range(gens)), cap)
            expected = gens * sum(L.multiset_count(3, k) for k in range(cap + 1))
            assert len(basis) == expected
    lie1 = L.abelian(Q, 1)
    assert len(L.free_module_basis(lie1, ("x_1", "x_2"), 3)) == 8
    assert [b.generator for b in L.free_module_basis(lie1, ("a", "b"), 0)] == ["a", "b"]


def test_restricted_basis_counts():
    for p in (2, 3):
        ring = L.PrimeField(p)
        for dim in (1, 2):
            lie = L.abelian(ring, dim)
            full_cap = dim * (p - 1)
            basis = L.restricted_module_basis(lie, p, ("x1",), full_cap)
            assert len(basis) == p ** dim
    lie = L.abelian(F2, 1, labels=("e_1",))
    basis = L.restricted_module_basis(lie, 2, ("x_1",), 1)
    assert [b.label(lie) for b in basis] == ["x_1", "e_1x_1"]


def test_module_element_action():
    env = sl2_env()
    gens = ("x1", "x2")
    basis = L.free_module_basis(env.lie, gens, 1)
    m = L.FreeLieModuleElement(
        env, gens, {(gens.index(basis[0].generator), basis[0].exponents): Q.one})
    e = env.generator(2)
    f = env.generator(0)
    acted = m.act(e * f)
    step = m.act(f).act(e)  # left action composes contravariantly in this order
    assert acted == step


# ---------------------------------------------------------------------------
# restricted structures


def test_verify_restricted_abelian_f2():
    lie = L.abelian(F2, 2)
    rst = L.RestrictedStructure(p=2, images=({}, {}))
    assert L.verify_restricted(lie, rst).passed


def test_verify_restricted_sl2_f5():
    lie = L.sl2(F5)
    rst = L.RestrictedStructure(p=5, images=({}, {1: 1}, {}))
    report = L.verify_restricted(lie, rst)
    assert report.passed
    names = [c.name for c in report.records]
    assert "bracket-power-basis" in names and "sum-power-basis-pairs" in names


def test_verify_restricted_rejects_wrong_pmap():
    lie = L.sl2(F5)
    rst = L.RestrictedStructure(p=5, images=({}, {}, {}))  # h^[p] should be h
    with pytest.raises(AxiomViolation) as exc:
        L.verify_restricted(lie, rst)
    assert exc.value.axiom == "bracket-power"


def test_verify_restricted_characteristic_mismatch():
    lie = L.sl2(F5)
    with pytest.raises(AxiomViolation):
        L.verify_restricted(lie, L.RestrictedStructure(p=3, images=({}, {}, {})))


def test_p2_mixed_term_is_reversed_bracket():
    lie = L.heisenberg(F2)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            g1, g2 = {i: F2.one}, {j: F2.one}
            terms = L.s_polynomials(lie, 2, g1, g2)
            assert len(terms) == 1
            assert terms[0] == lie.bracket(g2, g1)


def test_restricted_multiplication_examples():
    ab2 = L.abelian(F2, 1, labels=("x",))
    renv = L.UniversalEnvelope(ab2, restricted=L.RestrictedStructure(2, ({},)))
    x = renv.generator(0)
    assert x * x == renv.zero()
    f3 = L.PrimeField(3)
    ab3 = L.abelian(f3, 1, labels=("x",))
    renv3 = L.UniversalEnvelope(ab3, restricted=L.RestrictedStructure(3, ({0: 1},)))
    x = renv3.generator(0)
    x2 = x * x
    assert x2 * x2 == x2
    assert renv3.scalar(2) * renv3.scalar(2) == renv3.scalar(1)


def test_restricted_routes_agree():
    f3 = L.PrimeField(3)
    lie = L.heisenberg(f3)
    rst = L.RestrictedStructure(p=3, images=({}, {}, {2: 1}))
    assert L.verify_restricted(lie, rst).passed
    plain = L.UniversalEnvelope(lie)
    renv = L.UniversalEnvelope(lie, restricted=rst)
    rng = random.Random(13)
    for _ in range(30):
        u = renv.sample_element(rng, max_degree=2)
        v = renv.sample_element(rng, max_degree=2)
        direct = u * v
        assert direct == L.multiply_by_word_rewriting(u, v)
        unrestricted = plain.element(u.coeffs) * plain.element(v.coeffs)
        words = (renv.element(renv.normal_form_word(renv.word_of(exp))).scale(c)
                 for exp, c in unrestricted.coeffs.items())
        assert direct == sum(words, renv.zero())


def test_restricted_exponent_invariant():
    ab = L.abelian(F2, 1)
    renv = L.UniversalEnvelope(ab, restricted=L.RestrictedStructure(2, ({},)))
    with pytest.raises(DegreeCapExceeded):
        L.PbwElement(renv, {(2,): F2.one})


# ---------------------------------------------------------------------------
# lifting and the hat construction


def test_lift_identity():
    lie = L.sl2(Q)
    env = L.UniversalEnvelope(lie)
    theta = L.LieSemiMorphism(
        lie, S.identity_automorphism(Q),
        images=({0: Q.one}, {1: Q.one}, {2: Q.one}))
    lifted = L.lift_semi_automorphism(theta, envelope=env)
    rng = random.Random(3)
    for _ in range(10):
        u = env.sample_element(rng, max_degree=3)
        assert lifted.apply(u) == u


def test_chevalley_lift():
    lie = L.sl2(Q)
    env = L.UniversalEnvelope(lie)
    theta = L.chevalley_involution(lie)
    lifted = L.lift_semi_automorphism(theta, envelope=env)
    f, h, e = env.generator(0), env.generator(1), env.generator(2)
    assert lifted.apply(e) == f and lifted.apply(f) == e
    assert lifted.apply(h) == -h
    rng = random.Random(31)
    for _ in range(20):
        vec = {i: Q.sample_element(rng) for i in range(3)}
        assert lifted.apply(env.from_vector(vec)) == env.from_vector(
            theta.apply_vector(vec))
    # restriction to degree one is the original map
    assert lifted.apply(e * f) == lifted.apply(e) * lifted.apply(f)
    monomials = monomials_up_to(env, 2)
    for u in monomials:
        for v in monomials:
            assert lifted.apply(u * v) == lifted.apply(u) * lifted.apply(v)


def test_lift_rejects_non_bracket_map():
    lie = L.sl2(Q)
    theta = L.LieSemiMorphism(
        lie, S.identity_automorphism(Q),
        images=({0: Q.one}, {1: Q.from_int(-1)}, {2: Q.one}))  # h -> -h alone
    with pytest.raises(NotBracketPreserving):
        L.lift_semi_automorphism(theta)


def test_coefficientwise_frobenius_lift():
    g4 = L.GaloisFieldRing(4)
    lie = L.abelian(g4, 2)
    env = L.UniversalEnvelope(lie)
    frob = g4.automorphisms()[1]
    theta = L.LieSemiMorphism(lie, frob, images=({0: g4.one}, {1: g4.one}))
    lifted = L.lift_semi_automorphism(theta, envelope=env)
    u = env.element({(2, 1): 2, (0, 0): 3})
    expected = env.element({(2, 1): frob.apply(2), (0, 0): frob.apply(3)})
    assert lifted.apply(u) == expected


def test_hat_conjugation():
    lie = L.sl2(F5)
    env = L.UniversalEnvelope(lie)
    carrier = L.UEnvelopeSemiring(env, 2)
    lifted = L.lift_semi_automorphism(L.chevalley_involution(lie), envelope=env)
    nu = M.from_entries(carrier, [[env.generator(2)]])
    assert L.hat_sigma_conjugate(lifted, nu).entries[0][0] == env.generator(0)
    ident = L.lift_semi_automorphism(
        L.LieSemiMorphism(lie, S.identity_automorphism(F5),
                          images=({0: 1}, {1: 1}, {2: 1})),
        envelope=env)
    rng = random.Random(19)
    sample = M.random_morphism(carrier, 2, 2, rng)
    assert L.hat_sigma_conjugate(ident, sample) == sample
    # composing entrywise maps matches the composed map
    both = lifted.then(lifted)
    lhs = L.hat_sigma_conjugate(lifted, L.hat_sigma_conjugate(lifted, sample))
    assert lhs == L.hat_sigma_conjugate(both, sample)
    # conjugated matrices keep scalar linearity
    L.hat_sigma_conjugate(lifted, sample, rng=random.Random(5), linearity_samples=20)


def test_degree_cap_enforced():
    env = sl2_env()
    carrier = L.UEnvelopeSemiring(env, 2)
    deep = env.monomial((2, 0, 0))
    with pytest.raises(DegreeCapExceeded):
        carrier.mul(deep, env.generator(0))
    assert carrier.mul(deep, env.scalar(Q.from_int(2))) == deep.scale(Q.from_int(2))


def test_truncated_envelope_functor_extraction():
    import semicat.autfunctors as A

    lie = L.sl2(F5)
    env = L.UniversalEnvelope(lie)
    carrier = L.UEnvelopeSemiring(env, 2)
    lifted = L.lift_semi_automorphism(L.chevalley_involution(lie), envelope=env)
    functor = M.BlackBoxFunctor(
        carrier, lambda m: L.hat_sigma_conjugate(lifted, m), cap=2, name="hat")
    assert A.verify_functor(functor, seed=1).passed
    sigma = A.extract_sigma(functor, seed=1)
    rng = random.Random(23)
    for _ in range(40):
        u = env.sample_element(rng, max_degree=2)
        assert sigma.apply(u) == lifted.apply(u)


def test_truncated_envelope_extraction_semilinear_case():
    # with a non-identity scalar automorphism the extracted map visibly
    # moves embedded scalars
    import semicat.autfunctors as A

    g4 = L.GaloisFieldRing(4)
    lie = L.abelian(g4, 2)
    env = L.UniversalEnvelope(lie)
    carrier = L.UEnvelopeSemiring(env, 2)
    frob = g4.automorphisms()[1]
    theta = L.LieSemiMorphism(lie, frob, images=({0: g4.one}, {1: g4.one}))
    lifted = L.lift_semi_automorphism(theta, envelope=env)
    functor = M.BlackBoxFunctor(
        carrier, lambda m: L.hat_sigma_conjugate(lifted, m), cap=2,
        name="hat-frobenius")
    assert A.verify_functor(functor, seed=2).passed
    sigma = A.extract_sigma(functor, seed=2)
    assert sigma.apply(env.scalar(2)) == env.scalar(g4.mul(2, 2))
    rng = random.Random(29)
    for _ in range(30):
        u = env.sample_element(rng, max_degree=2)
        assert sigma.apply(u) == lifted.apply(u)


def test_cyclic_unit_reports():
    report = L.cyclic_aut_check(sl2_env(Z), 2)
    assert report.passed and sorted(report.units) == [-1, 1]
    report = L.cyclic_aut_check(sl2_env(F5), 2)
    assert report.passed and report.unit_count == 4
    g4 = L.GaloisFieldRing(4)
    report = L.cyclic_aut_check(L.UniversalEnvelope(L.abelian(g4, 2)), 2)
    assert report.passed and report.unit_count == 3
