import itertools
import json
import os
import random
import sys
import tempfile
import tracemalloc
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
from support import (
    UEnvelopeSemiring,
    hat_sigma_conjugate,
    monomials_up_to,
    reference_sample_element,
    repeated_product_power,
    whole_word_rewriting,
    word_exponents_up_to,
)

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
    autos = S.automorphism_groups(g4).aut
    assert len(autos) == 2
    frob = autos[1]
    assert all(frob.apply(x) == g4.mul(x, x) for x in range(4))
    assert all(frob.inverse_apply(frob.apply(x)) == x for x in range(4))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_frobenius_powers_are_the_whole_automorphism_group(q):
    # the lie coefficient ring is the table semiring gf:<q> itself, so the
    # one closure search runs on either and finds the k Frobenius powers
    K = L.GaloisFieldRing(q)
    assert K == S.galois_semiring(q)
    frobenius = sorted(
        tuple(K.power(a, K.p ** i) for a in K.elements()) for i in range(K.k))
    for carrier in (K, S.galois_semiring(q)):
        groups = S.automorphism_groups(carrier)
        assert frobenius == [a.perm for a in groups.aut]  # aut is sorted by perm


def test_identity_automorphism_on_every_coefficient_ring():
    rng = random.Random(11)
    for K in (Z, Q, F2, F5, GF4, L.PrimeField(1_000_003)):
        ident = S.identity_automorphism(K)
        assert isinstance(ident, S.PermutationAutomorphism) == (K is GF4)
        for x in [K.zero, K.one] + [K.sample_element(rng) for _ in range(20)]:
            assert ident.apply(x) == x and ident.inverse_apply(x) == x


@pytest.mark.parametrize("K", [Z, Q, L.PrimeField(7), GF4], ids=lambda K: K.name)
def test_powers_by_squaring_match_repeated_products(K):
    rng = random.Random(37)
    lie = L.sl2(K)
    identity = M.identity(K, 3).entries
    mat_mul = lambda x, y: M._mat_mul(K, x, y, 3)
    for _ in range(4):
        a = K.sample_element(rng)
        ad = lie.ad_matrix(L.clean_vector(K, {i: K.sample_element(rng) for i in range(3)}))
        for n in list(range(13)) + [300]:
            assert K.power(a, n) == repeated_product_power(K.mul, K.one, a, n)
            assert L._mat_pow_k(K, ad, n) == repeated_product_power(
                mat_mul, identity, ad, n), (ad, n)
    # one squaring per bit below the top one and one product per further set
    # bit: no product by one and no squaring past the top bit
    for n in list(range(1, 13)) + [300]:
        products = []
        L._power(lambda x, y: products.append(1) or K.mul(x, y), K.one, K.one, n)
        assert len(products) == n.bit_length() + bin(n).count("1") - 2 <= n - 1


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
    if K is Q:  # canonical ints and, for integral values, non-canonical Fractions
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)) | st.integers(-3, 3)
    if K.is_finite:
        return st.sampled_from(list(K.elements()))
    return st.integers(-3, 3)


def _check_accumulate(K, start, terms, c):
    """_accumulate against a dense K.add/K.mul fold, values and their types."""
    dense = [start.get(k, K.zero) for k in range(4)]
    for k, x in terms:
        dense[k] = K.add(dense[k], x if c is None else K.mul(c, x))
    want = {k: x for k, x in enumerate(dense) if x != K.zero}
    out = dict(start)
    assert L._accumulate(K, out, terms, c) is out
    assert out == want
    assert {k: type(x) for k, x in out.items()} == {k: type(x) for k, x in want.items()}


HALF = Fraction(1, 2)


@pytest.mark.parametrize("K, start, terms, c", [
    (Q, {}, [(0, HALF), (0, HALF)], None),  # cancels to the int 1
    (Q, {0: HALF}, [(0, 1)], HALF),
    (Q, {}, [(0, Fraction(2, 1)), (1, Fraction(-3, 1))], None),  # non-canonical in
    (Q, {}, [(0, Fraction(4, 3))], Fraction(3, 2)),
    (Q, {1: HALF}, [(1, -1)], HALF),  # cancels to zero
    (Z, {0: 2}, [(0, -1), (1, 3)], 2),
    (F5, {0: 4}, [(0, 3), (1, 4)], None),  # sums past p
    (F5, {}, [(0, 3), (1, 2)], 4),
    (GF4, {0: 1}, [(0, 2), (1, 3)], 3),
])
def test_accumulate_stores_canonical_values(K, start, terms, c):
    _check_accumulate(K, start, terms, c)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_accumulate_matches_dense_reference(data):
    K = data.draw(st.sampled_from(SPARSE_RINGS))
    values = ring_values(K)
    start = L.clean_vector(K, data.draw(st.dictionaries(st.integers(0, 3), values)))
    terms = data.draw(st.lists(st.tuples(st.integers(0, 3), values), max_size=8))
    c = data.draw(st.none() | values)
    _check_accumulate(K, start, terms, c)


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


def _word_by_oracle(env, word, multiply=L.multiply_by_word_rewriting):
    out = env.one()
    for letter in word:
        out = multiply(out, env.generator(letter))
    return out


@pytest.mark.parametrize("env", (sl2_env(Z), sl2_env(Q), sl2_env(F5), ORACLE_ENVELOPES[4]),
                         ids=("Z", "Q", "zmod5", "restricted-zmod5"))
def test_sample_element_draws_as_the_reference_construction(env):
    new, old = random.Random(9), random.Random(9)
    for t in range(200):
        max_degree, terms = t % 9, 1 + t % 4  # degrees up to 8 reach p = 5
        u = env.sample_element(new, max_degree, terms)
        want = reference_sample_element(env, old, max_degree, terms)
        assert u == want
        assert [(e, type(c)) for e, c in u.coeffs.items()] == [
            (e, type(c)) for e, c in want.coeffs.items()]
        assert new.getstate() == old.getstate()


def test_oracle_memo_is_shared_per_envelope_and_agrees_with_fresh_ones():
    env = sl2_env(Q)
    rng = random.Random(4)
    for _ in range(50):
        u, v = (env.sample_element(rng, max_degree=4, terms=3) for _ in range(2))
        fresh = sl2_env(Q)
        want = L.multiply_by_word_rewriting(fresh.element(u.coeffs), fresh.element(v.coeffs))
        assert L.multiply_by_word_rewriting(u, v).coeffs == want.coeffs
    assert len(env._segments) > len(fresh._segments) > 0  # kept across calls
    # one L, with and without the p-map h^[5] = h: x_h^5 is h^5 in U(L), h in u(L)
    lie = L.sl2(F5)
    free = L.UniversalEnvelope(lie)
    restricted = L.UniversalEnvelope(lie, restricted=L.RestrictedStructure(
        p=5, images=({}, {1: 1}, {})))
    for _ in range(2):  # each envelope after the other has filled its memo
        assert _word_by_oracle(free, [1] * 5) == free.monomial((0, 5, 0))
        assert _word_by_oracle(restricted, [1] * 5) == restricted.generator(1)
    assert free._segments is not restricted._segments


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


Q_ENVELOPES = (
    sl2_env(Q), L.UniversalEnvelope(L.heisenberg(Q)),
    L.UniversalEnvelope(L.abelian(Q, 4)), ORACLE_ENVELOPES[-1])


@pytest.mark.parametrize("env", Q_ENVELOPES, ids=(
    "sl2-Q", "heisenberg-Q", "abelian4-Q", "half-sl2-Q"))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_integer_folds_over_q_agree_with_word_oracle(env, data):
    """Over Q, products fold on operands scaled to integer coefficients and
    divide once at the end; the word oracle folds the fractions directly."""
    words = st.lists(st.integers(0, env.lie.dim - 1), max_size=4)
    exps = words.map(lambda word: L._exponents(env.lie.dim, word))
    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    u, v = (env.element(data.draw(st.dictionaries(exps, fractions, max_size=4)))
            for _ in range(2))
    product = u * v
    assert product == L.multiply_by_word_rewriting(u, v)
    for c in product.coeffs.values():
        assert (type(c) is int) == (Fraction(c).denominator == 1)


def _sl2_hef(ring):
    """sl2 in the basis order (h, e, f), where [e, f] = h is a letter before e."""
    two = ring.from_int(2)
    return L.validate_lie(
        ring, 3, {(0, 1): {1: two}, (0, 2): {2: ring.neg(two)}, (1, 2): {0: ring.one}},
        labels=("h", "e", "f"))


RESTRICTED_HEF = L.UniversalEnvelope(_sl2_hef(F5), restricted=L.RestrictedStructure(
    p=5, images=({0: 1}, {}, {})))  # h^[5] = h
RUN_ENVELOPES = ORACLE_ENVELOPES[:5] + (
    L.UniversalEnvelope(_sl2_hef(Q)), RESTRICTED_HEF, sl2_env(GF4))


@pytest.mark.parametrize("env", RUN_ENVELOPES, ids=(
    "sl2-Q", "sl2-Z", "sl2-F7", "heisenberg-Z", "restricted-sl2-F5", "hef-sl2-Q",
    "restricted-hef-sl2-F5", "sl2-GF4"))
@given(st.data())
@settings(max_examples=20, deadline=None)
def test_run_steps_agree_with_word_oracle(env, data):
    """Words of up to three runs x_j^a, a <= 12, so runs pass p = 2, 5 and 7: the
    engine moves a letter past a whole run at once, the oracle a letter at a
    time.  In the (h, e, f) basis, f past e^a brings in h, before e, so x_e
    is folded in a letter at a time."""
    runs = st.lists(st.tuples(st.integers(0, env.lie.dim - 1), st.integers(1, 12)),
                    max_size=3)
    left, right = ([x for x, a in data.draw(runs) for _ in range(a)] for _ in range(2))
    u, v = (env.element(env.normal_form_word(tuple(word))) for word in (left, right))
    assert u == _word_by_oracle(env, left) and v == _word_by_oracle(env, right)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    v += env.scalar(env.ring.sample_element(rng))
    assert u * v == L.multiply_by_word_rewriting(u, v)


@pytest.mark.parametrize("env", (ORACLE_ENVELOPES[4], RESTRICTED_HEF),
                         ids=("sl2-F5", "hef-sl2-F5"))
def test_restricted_letter_times_every_monomial(env):
    """x_i * m for every letter and every monomial m of u(L), against the
    oracle.  In the (h, e, f) basis f * h^4 e brings in a fifth h, so that
    bump would reach p and x_h^4 is folded in a letter at a time."""
    dim, p = env.lie.dim, env.restricted.p
    for exp in itertools.product(range(p), repeat=dim):
        m = env.monomial(exp)
        for i in range(dim):
            x = env.generator(i)
            assert x * m == L.multiply_by_word_rewriting(x, m)


@pytest.mark.parametrize("ring, left, right, keys", (
    (Z, (2,) * 12, (0,) * 12, 608),
    (Q, (2,) * 10, (0,) * 10, 393),
    (F7, (2, 1) * 5, (0, 1) * 5, 342)))
def test_product_memo_keys_are_pinned(ring, left, right, keys):
    """The memo keys of `lie mul` on the word products below, with x_i moved
    past a whole run x_j^a in one straightening step: memo hits skip the
    stack, but every key is still computed, and no other."""
    env = sl2_env(ring)
    u = env.element(env.normal_form_word(left))
    v = env.element(env.normal_form_word(right))
    product = u * v
    assert len(env._products) == keys
    assert product == L.multiply_by_word_rewriting(u, v)


def test_bracket_basis_returns_a_fresh_dict():
    lie = L.sl2(Q)
    env = L.UniversalEnvelope(lie)
    f, e = env.generator(0), env.generator(2)
    expected = e * f
    lie.bracket_basis(2, 0)[1] = 7
    lie.bracket_basis(0, 2).clear()
    assert lie.bracket_basis(2, 0) == {1: 1} and lie.bracket_basis(0, 2) == {1: -1}
    fresh = L.UniversalEnvelope(lie)
    assert fresh.generator(2) * fresh.generator(0) == expected == e * f


@pytest.mark.parametrize("env", ORACLE_ENVELOPES, ids=(
    "sl2-Q", "sl2-Z", "sl2-F7", "heisenberg-Z", "restricted-sl2-F5", "half-sl2-Q"))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_segment_memo_agrees_with_whole_word_rewriting(env, data):
    letters = st.integers(0, env.lie.dim - 1)
    left = data.draw(st.lists(letters, max_size=8))
    right = data.draw(st.lists(letters, max_size=8 - len(left)))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    u = _word_by_oracle(env, left, whole_word_rewriting).scale(env.ring.sample_element(rng))
    v = _word_by_oracle(env, right, whole_word_rewriting) + env.scalar(
        env.ring.sample_element(rng))
    assert L.multiply_by_word_rewriting(u, v) == whole_word_rewriting(u, v)
    a, b = env.sample_element(rng, max_degree=4, terms=3), env.sample_element(rng, 4, 3)
    assert L.multiply_by_word_rewriting(a, b) == whole_word_rewriting(a, b)


def test_word_oracle_calls_no_engine_method(monkeypatch):
    restricted = next(env for env in ORACLE_ENVELOPES if env.restricted)
    cases = []
    for env in (sl2_env(Q), restricted):
        f, h, e = env.generator(0), env.generator(1), env.generator(2)
        for u, v in ((e * e * h, f * f * f + h), (e * e * e * e, f * f * f * f * h),
                     (h * h * h, h * h * e)):  # h^5 = h in the restricted envelope
            cases.append((u, v, u * v))

    def engine(*args):
        raise AssertionError("the word oracle called the engine")

    for name in ("_times", "_straighten", "_left_multiply", "normal_form_word", "multiply"):
        monkeypatch.setattr(L.UniversalEnvelope, name, engine)
    for u, v, product in cases:
        assert L.multiply_by_word_rewriting(u, v) == product


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


def test_exponents_match_the_word_enumeration():
    for dim in range(1, 5):
        for cap in range(7):
            assert L.exponents_up_to(dim, cap) == word_exponents_up_to(dim, cap), (dim, cap)


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


# ---------------------------------------------------------------------------
# restricted structures


def test_restricted_structures_and_basis_vectors_are_read_only():
    rst = L.RestrictedStructure(p=2, images=({}, {}))
    vec = L.ModuleBasisVector(generator="x1", exponents=(1, 0))
    for record, field in ((rst, "p"), (rst, "images"), (vec, "generator"),
                          (vec, "exponents"), (vec, "other")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert (rst.p, rst.images) == (2, ({}, {}))
    assert (vec.generator, vec.exponents) == ("x1", (1, 0))


def test_equal_module_basis_vectors_hash_equal():
    a = L.ModuleBasisVector("x1", (1, 0, 1))
    b = L.ModuleBasisVector(generator="x1", exponents=(1, 0, 1))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != L.ModuleBasisVector("x2", (1, 0, 1))
    assert a != L.ModuleBasisVector("x1", (0, 1, 1))
    basis = L.free_module_basis(L.sl2(Q), ("x1", "x2"), 2)
    assert len(set(basis)) == len(basis) == 20
    assert {v: v.degree for v in basis}[b] == 2


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
    # the same p-map in the basis (h, e, f)
    assert L.verify_restricted(RESTRICTED_HEF.lie, RESTRICTED_HEF.restricted).passed


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


def test_word_oracle_p_run_check_builds_no_p_letter_word():
    """The word oracle tells a leading p-run by its p-th letter; comparing
    with a p-letter tuple took 94 MB peak RSS per product at p = 10000019."""
    p = 10000019
    f = L.PrimeField(p)
    renv = L.UniversalEnvelope(
        L.abelian(f, 1, labels=("x",)), restricted=L.RestrictedStructure(p, ({0: 1},)))
    x = renv.generator(0)
    x2 = x * x
    tracemalloc.start()
    try:
        product = L.multiply_by_word_rewriting(x2, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product == x2 * x == renv.monomial((3,))
    assert peak < 1_000_000


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
    frob = S.automorphism_groups(g4).aut[1]
    theta = L.LieSemiMorphism(lie, frob, images=({0: g4.one}, {1: g4.one}))
    lifted = L.lift_semi_automorphism(theta, envelope=env)
    u = env.element({(2, 1): 2, (0, 0): 3})
    expected = env.element({(2, 1): frob.apply(2), (0, 0): frob.apply(3)})
    assert lifted.apply(u) == expected


def test_hat_conjugation():
    lie = L.sl2(F5)
    env = L.UniversalEnvelope(lie)
    carrier = UEnvelopeSemiring(env, 2)
    lifted = L.lift_semi_automorphism(L.chevalley_involution(lie), envelope=env)
    nu = M.from_entries(carrier, [[env.generator(2)]])
    assert hat_sigma_conjugate(lifted, nu).entries[0][0] == env.generator(0)
    ident = L.lift_semi_automorphism(
        L.LieSemiMorphism(lie, S.identity_automorphism(F5),
                          images=({0: 1}, {1: 1}, {2: 1})),
        envelope=env)
    rng = random.Random(19)
    sample = M.random_morphism(carrier, 2, 2, rng)
    assert hat_sigma_conjugate(ident, sample) == sample
    # composing entrywise maps matches the composed map
    both = lifted.then(lifted)
    lhs = hat_sigma_conjugate(lifted, hat_sigma_conjugate(lifted, sample))
    assert lhs == hat_sigma_conjugate(both, sample)
    # conjugated matrices keep scalar linearity
    hat_sigma_conjugate(lifted, sample, rng=random.Random(5), linearity_samples=20)


def test_degree_cap_enforced():
    env = sl2_env()
    carrier = UEnvelopeSemiring(env, 2)
    deep = env.monomial((2, 0, 0))
    with pytest.raises(DegreeCapExceeded):
        carrier.mul(deep, env.generator(0))
    assert carrier.mul(deep, env.scalar(Q.from_int(2))) == deep.scale(Q.from_int(2))


def test_truncated_envelope_functor_extraction():
    import semicat.autfunctors as A

    lie = L.sl2(F5)
    env = L.UniversalEnvelope(lie)
    carrier = UEnvelopeSemiring(env, 2)
    lifted = L.lift_semi_automorphism(L.chevalley_involution(lie), envelope=env)
    functor = M.BlackBoxFunctor(
        carrier, lambda m: hat_sigma_conjugate(lifted, m), cap=2, name="hat")
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
    carrier = UEnvelopeSemiring(env, 2)
    frob = S.automorphism_groups(g4).aut[1]
    theta = L.LieSemiMorphism(lie, frob, images=({0: g4.one}, {1: g4.one}))
    lifted = L.lift_semi_automorphism(theta, envelope=env)
    functor = M.BlackBoxFunctor(
        carrier, lambda m: hat_sigma_conjugate(lifted, m), cap=2,
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


def test_cyclic_units_over_q_are_all_sampled():
    # over a field of characteristic 0 no scalar unit is listed: K* is only
    # sampled, as are the positive-degree checks
    report = L.cyclic_aut_check(sl2_env(Q), 2, seed=3)
    assert [(r.name, r.regime, r.passed, r.seed) for r in report.records] == [
        ("unit-scalars(K*)", "sampled", True, 3),
        ("positive-degree-non-units", "sampled", True, 3),
        ("one-plus-generator-refuted", "sampled", True, 3)]
    assert report.passed and report.unit_count == 0 and report.units == []
