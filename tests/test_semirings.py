import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicat import semirings as S
from semicat._galois import gf_tables
from semicat.errors import (
    AxiomViolation,
    IndexOutOfRange,
    ParseError,
    SizeLimitExceeded,
    UnsupportedCarrier,
)
from support import (
    catalog_finite,
    catalog_infinite,
    matrix_ring_f2,
    pairwise_gf_tables,
    permutation_automorphisms,
    rejected_perturbations,
    unrolled_axiom_witness,
    upper_triangular_boolean,
)


def test_boolean_is_valid():
    b = S.boolean_semiring()
    assert b.size == 2 and b.add(1, 1) == 1 and b.mul(1, 1) == 1


def test_boolean_broken_one_identity():
    with pytest.raises(AxiomViolation) as exc:
        S.validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 0]], 0, 1)
    assert exc.value.axiom == "one-identity"
    assert exc.value.witness == (1,)


def test_zmod4_valid_and_trivial_valid():
    S.zmod_semiring(4)
    t = S.trivial_semiring()
    assert t.zero == t.one == 0


def test_malformed_tables_rejected():
    with pytest.raises(IndexOutOfRange):
        S.validate_semiring([[0, 1]], [[0, 0], [0, 1]], 0, 1)
    with pytest.raises(IndexOutOfRange):
        S.validate_semiring([[0, 5], [1, 1]], [[0, 0], [0, 1]], 0, 1)
    with pytest.raises(IndexOutOfRange):
        S.validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 3)


def test_perturbations_rejected_with_correct_witnesses():
    total = 0
    for semiring in (S.boolean_semiring(), S.zmod_semiring(4), S.galois_semiring(4)):
        for _, add, mul, exc in rejected_perturbations(semiring, 5):
            assert not S.evaluate_axiom(
                add, mul, semiring.zero, semiring.one, exc.axiom, exc.witness)
            total += 1
    assert total == 15


def test_every_axiom_detector_fires_on_some_perturbation():
    # each axiom's witness finder triggers on some single-entry edit of a
    # catalog table (even when an earlier axiom would be reported first)
    from support import single_entry_perturbations

    remaining = set(S.AXIOM_ORDER)
    for semiring in (S.boolean_semiring(), S.zmod_semiring(4), S.galois_semiring(4)):
        for _, add, mul in single_entry_perturbations(semiring):
            for axiom in list(remaining):
                witness = S.find_axiom_witness(
                    add, mul, semiring.zero, semiring.one, axiom)
                if witness is not None:
                    assert not S.evaluate_axiom(
                        add, mul, semiring.zero, semiring.one, axiom, witness)
                    remaining.discard(axiom)
            if not remaining:
                break
        if not remaining:
            break
    assert not remaining


_WITNESS_CARRIERS = catalog_finite() + [
    S.zmod_semiring(6), upper_triangular_boolean(), matrix_ring_f2()]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_row_sweep_finds_the_unrolled_witness(data):
    # every axiom's first witness, on raw list tables with a few entries
    # rewritten; M2(gf:2) is not commutative, so the two distributivities differ
    semiring = data.draw(st.sampled_from(_WITNESS_CARRIERS))
    size = semiring.size
    add = [list(row) for row in semiring.add_table]
    mul = [list(row) for row in semiring.mul_table]
    cell = st.integers(0, size - 1)
    for table, i, j, value in data.draw(st.lists(
            st.tuples(st.sampled_from((add, mul)), cell, cell, cell), max_size=4)):
        table[i][j] = value
    for axiom in S.AXIOM_ORDER:
        assert S.find_axiom_witness(add, mul, semiring.zero, semiring.one, axiom) \
            == unrolled_axiom_witness(add, mul, semiring.zero, semiring.one, axiom), axiom


@st.composite
def _random_tables(draw):
    size = draw(st.integers(1, 4))
    cell = st.integers(0, size - 1)
    table = st.lists(st.lists(cell, min_size=size, max_size=size),
                     min_size=size, max_size=size)
    return draw(table), draw(table), draw(cell), draw(cell)


@given(_random_tables())
@settings(max_examples=500, deadline=None)
def test_each_axiom_on_random_tables_finds_the_unrolled_witness(tables):
    # fully random tables, each axiom asked on its own: + is seldom
    # associative, and a one-element table is drawn too
    add, mul, zero, one = tables
    for axiom in S.AXIOM_ORDER:
        assert S.find_axiom_witness(add, mul, zero, one, axiom) \
            == unrolled_axiom_witness(add, mul, zero, one, axiom), axiom


def test_distributivity_on_generators_needs_additive_associativity():
    # 0 generates + (0 + 0 = 1, 1 + 0 = 2) and a(0 + c) = a0 + ac everywhere,
    # but + is not associative and the axiom fails at (0, 1, 1)
    add = [[1, 0, 0], [2, 0, 2], [2, 0, 0]]
    mul = [[2, 0, 0], [0, 1, 1], [0, 1, 1]]
    assert S._generators(add) == [0]
    assert S.find_axiom_witness(add, mul, 0, 0, "left-distributivity") == (0, 1, 1)


def test_passing_ternary_axioms_compare_rows_on_generators_only(monkeypatch):
    carriers = (S.zmod_semiring(60), S.galois_semiring(256), matrix_ring_f2())
    rows = Counter()
    row_sides = S._row_sides

    def counted(axiom, add, mul):
        sides = row_sides(axiom, add, mul)

        def count(*prefix):
            rows[axiom] += 1
            return sides(*prefix)
        return count

    monkeypatch.setattr(S, "_row_sides", counted)
    for semiring in carriers:
        add, mul, n = semiring.add_table, semiring.mul_table, semiring.size
        add_rows = n * len(S._generators(add))
        for axiom, bound in (("add-associativity", add_rows),
                             ("mul-associativity", n * len(S._generators(mul))),
                             ("left-distributivity", add_rows),
                             ("right-distributivity", add_rows)):
            rows.clear()
            assert S.find_axiom_witness(add, mul, semiring.zero, semiring.one, axiom) is None
            assert rows.pop(axiom) <= bound < n * n, (semiring.name, axiom)
            if axiom.endswith("distributivity"):
                assert rows.pop("add-associativity") <= add_rows
            assert not rows


def test_infinite_builtins_pass_sampled_axioms():
    rng = random.Random(0)
    for semiring in catalog_infinite():
        sample = [semiring.zero, semiring.one] + [
            semiring.sample_element(rng) for _ in range(6)
        ]
        S.check_axioms_on_sample(semiring, sample)


def test_sampled_axioms_reject_a_broken_infinite_carrier():
    class Subtraction(S.IntegersSemiring):
        def add(self, a, b):
            return a - b

    broken = Subtraction()
    with pytest.raises(AxiomViolation) as exc:
        S.check_axioms_on_sample(broken, [0, 1, 2, -3])
    arity, holds = S.AXIOMS[exc.value.axiom]
    assert len(exc.value.witness) == arity
    assert not holds(broken.add, broken.mul, broken.zero, broken.one,
                     *exc.value.witness)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_tropical_distributivity_property(a, b, c):
    from fractions import Fraction

    t = S.TropicalSemiring()
    fa, fb, fc = Fraction(a, 3), Fraction(b, 2), Fraction(c, 5)
    assert t.mul(fa, t.add(fb, fc)) == t.add(t.mul(fa, fb), t.mul(fa, fc))
    assert t.mul(t.add(fb, fc), fa) == t.add(t.mul(fb, fa), t.mul(fc, fa))


def test_units():
    assert S.boolean_semiring().unit_elements() == [1]
    assert S.zmod_semiring(4).unit_elements() == [1, 3]
    assert S.NaturalsSemiring().unit_elements() == [1]
    assert sorted(S.IntegersSemiring().unit_elements()) == [-1, 1]
    assert S.trivial_semiring().unit_elements() == [0]
    with pytest.raises(UnsupportedCarrier):
        S.TropicalSemiring().unit_elements()


def test_units_form_group_on_finite_catalog():
    for semiring in catalog_finite() + [upper_triangular_boolean()]:
        units = set(semiring.unit_elements())
        for u in units:
            assert semiring.try_unit_inverse(u) in units
            for v in units:
                assert semiring.mul(u, v) in units


def test_automorphism_group_orders():
    assert S.automorphism_groups(S.boolean_semiring()).aut_order == 1
    assert S.automorphism_groups(S.zmod_semiring(4)).aut_order == 1
    groups = S.automorphism_groups(S.galois_semiring(4))
    assert groups.aut_order == 2
    f4 = S.galois_semiring(4)
    frob = groups.aut[1]
    assert all(frob.apply(x) == f4.mul(x, x) for x in range(4))
    assert S.automorphism_groups(S.galois_semiring(8)).aut_order == 3
    assert S.automorphism_groups(S.galois_semiring(9)).aut_order == 2


def test_closure_search_matches_permutation_oracle():
    # carriers with at most 9 elements besides 0 and 1, where the loop over
    # (size-2)! bijections finishes
    carriers = catalog_finite() + [
        upper_triangular_boolean(),
        S.product_semiring(S.zmod_semiring(2), S.zmod_semiring(2)),
    ] + [S.load_semiring(spec)
         for spec in ("gf:5", "gf:8", "gf:9", "zmod:6", "zmod:11")]
    for semiring in carriers:
        groups = S.automorphism_groups(semiring)
        assert [a.perm for a in groups.aut] == permutation_automorphisms(semiring)
        assert groups.steps > 0


def test_closure_search_cap_charges_its_steps():
    gf16 = S.galois_semiring(16)  # 14! bijections, past any permutation loop
    steps = S.automorphism_groups(gf16).steps
    assert S.automorphism_groups(gf16, max_candidates=steps).aut_order == 4
    with pytest.raises(SizeLimitExceeded):
        S.automorphism_groups(gf16, max_candidates=steps - 1)


def test_galois_tables_are_fields():
    # a validated semiring in which every nonzero element is a two-sided unit
    # and p-fold sums of one vanish is the field of that order
    for q, p in ((4, 2), (8, 2), (9, 3)):
        gf = S.galois_semiring(q)
        units = gf.unit_elements()
        assert sorted(units) == list(range(1, q))
        for x in range(q):
            acc = 0
            for _ in range(p):
                acc = gf.add(acc, x)
            assert acc == 0


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27, 64, 81, 125, 128, 243, 256])
def test_galois_tables_match_the_pairwise_polynomial_product(q):
    add, mul, _, _ = gf_tables(q)
    assert (add, mul) == pairwise_gf_tables(q)


def test_product_semiring_swap_automorphism():
    z2 = S.zmod_semiring(2)
    prod = S.product_semiring(z2, z2)
    groups = S.automorphism_groups(prod)
    assert groups.aut_order == 2
    swap = groups.aut[1]
    assert swap.perm == (0, 2, 1, 3)


def test_inner_automorphisms_trivial_when_commutative():
    for semiring in catalog_finite():
        groups = S.automorphism_groups(semiring)
        assert groups.inn_order == 1 and groups.inn[0].is_identity
        assert groups.out_order == groups.aut_order


def test_automorphism_group_closure_and_normality():
    for semiring in catalog_finite() + [upper_triangular_boolean()]:
        groups = S.automorphism_groups(semiring)
        perms = {a.perm for a in groups.aut}
        inner = {a.perm for a in groups.inn}
        for a in groups.aut:
            assert a.inverted().perm in perms
            for b in groups.aut:
                assert a.then(b).perm in perms
            for i in groups.inn:
                assert a.inverted().then(i).then(a).perm in inner
        assert groups.aut_order == groups.inn_order * groups.out_order


def test_map_automorphism_then_composes_and_inverts():
    # carrier bijections that do not commute, so the order of both
    # composites shows; `then` does not check the homomorphism laws
    tropical = S.TropicalSemiring()
    double = S.MapAutomorphism(
        tropical, lambda x: None if x is None else 2 * x,
        lambda x: None if x is None else x / 2, name="double")
    shift = S.MapAutomorphism(
        tropical, lambda x: None if x is None else x + 1,
        lambda x: None if x is None else x - 1, name="shift")
    both = shift.then(double)
    rng = random.Random(13)
    for x in [None, tropical.one] + [tropical.sample_element(rng) for _ in range(20)]:
        y = both.apply(x)
        assert y == (None if x is None else 2 * (x + 1))
        assert both.inverse_apply(y) == x
    assert repr(both) == "aut<shift;double>"


def test_size_limit_on_enumeration():
    with pytest.raises(SizeLimitExceeded):
        S.automorphism_groups(S.zmod_semiring(12), max_candidates=10)
    for build in (lambda: S.zmod_semiring(S.MAX_TABLE_SIZE + 1),
                  lambda: S.galois_semiring(512),
                  lambda: S.product_semiring(S.zmod_semiring(17), S.zmod_semiring(16))):
        with pytest.raises(SizeLimitExceeded):
            build()


def test_built_in_tables_satisfy_every_axiom():
    # the built-in constructors skip validate_semiring, so check their tables
    # against the exhaustive axiom oracle
    fields = [q for q in range(2, 65) if _is_prime_power(q)]
    carriers = ([S.zmod_semiring(n) for n in range(1, 41)]
                + [S.galois_semiring(q) for q in fields]
                + [S.boolean_semiring(), S.trivial_semiring()])
    assert len(fields) == 27
    for semiring in carriers:
        for axiom in S.AXIOM_ORDER:
            assert S.find_axiom_witness(
                semiring.add_table, semiring.mul_table, semiring.zero,
                semiring.one, axiom) is None, (semiring.name, axiom)


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def test_opposite_semiring():
    for semiring in catalog_finite():
        opp = S.opposite_semiring(semiring)
        assert opp.mul_table == semiring.mul_table  # commutative catalog
    ut = upper_triangular_boolean()
    opp = S.opposite_semiring(ut)
    assert any(
        opp.mul(a, b) != ut.mul(a, b) for a in range(8) for b in range(8))
    assert all(
        opp.mul(a, b) == ut.mul(b, a) for a in range(8) for b in range(8))
    back = S.opposite_semiring(opp)
    assert back.mul_table == ut.mul_table
    assert S.opposite_semiring(S.NaturalsSemiring()).name == "naturals"


def test_opposite_tables_are_a_semiring():
    for semiring in catalog_finite() + [upper_triangular_boolean(), matrix_ring_f2()]:
        opp = S.opposite_semiring(semiring)
        S.validate_semiring(opp.add_table, opp.mul_table, opp.zero, opp.one)
        back = S.opposite_semiring(opp)
        assert (back.add_table, back.mul_table) == (semiring.add_table,
                                                    semiring.mul_table)


def test_json_round_trip(tmp_path):
    f4 = S.galois_semiring(4)
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(f4.to_json()))
    loaded = S.load_semiring(str(path))
    assert loaded == f4


def test_load_builtins_and_errors():
    assert S.load_semiring("gf:4").size == 4
    assert S.load_semiring("zmod:6").size == 6
    assert not S.load_semiring("naturals").is_finite
    with pytest.raises(ParseError):
        S.load_semiring("zmod:x")
    with pytest.raises(ParseError):
        S.load_semiring("no-such-semiring")


def test_load_semiring_gates_a_file_on_the_axioms(tmp_path):
    broken = S.boolean_semiring().to_json()
    broken["add"][0][0] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(broken))
    with pytest.raises(AxiomViolation) as exc:
        S.load_semiring(str(path))
    assert (exc.value.axiom, exc.value.witness) == ("zero-identity", (0,))


def test_parse_error_names_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, 1]]}))
    with pytest.raises(ParseError) as exc:
        S.load_semiring(str(path))
    assert "mul" in str(exc.value)


def test_tropical_value_rendering():
    t = S.TropicalSemiring()
    from fractions import Fraction

    assert t.value_to_json(None) == "bottom"
    assert t.value_to_json(Fraction(3, 2)) == "3/2"


def test_tropical_draws_keep_the_seeded_stream():
    from fractions import Fraction

    tropical = S.TropicalSemiring()
    for seed in range(5):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            got = tropical.sample_element(rng)
            want = None if oracle.random() < 0.15 else Fraction(
                oracle.randrange(-8, 9), oracle.choice((1, 2, 3, 4)))
            assert got == want and type(got) is type(want)
        assert rng.getstate() == oracle.getstate()
