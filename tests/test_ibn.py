import pytest

from semicat import ibn
from semicat import semirings as S
from semicat.errors import SearchCapExceeded, UnsupportedCarrier
from support import (
    catalog_all,
    extend_witness,
    pair_scan_iso_witness,
    upper_triangular_boolean,
)

B = S.boolean_semiring()
TRIVIAL = S.trivial_semiring()


def test_boolean_has_no_small_witness():
    assert ibn.free_iso_witness(B, 1, 2, shortcut=False) is None
    assert ibn.free_iso_witness(B, 2, 1, shortcut=False) is None
    assert ibn.free_iso_witness(B, 1, 2, shortcut=True) is None


def test_equal_ranks_identity_witness():
    for semiring in catalog_all():
        a, b = ibn.free_iso_witness(semiring, 2, 2)
        assert a.is_identity() and b.is_identity()


def test_trivial_semiring_collapses():
    pair = ibn.free_iso_witness(TRIVIAL, 1, 2)
    assert pair is not None
    a, b = pair
    assert a.then(b).is_identity() and b.then(a).is_identity()


def test_classify_trivial_type():
    cls = ibn.classify_type(TRIVIAL, 3)
    assert cls.kind == "type" and (cls.n, cls.h) == (1, 1)
    assert cls.refuted == ()  # (1, 1) is the first pair scanned


def test_classify_boolean_exhaustive():
    cls = ibn.classify_type(B, 3, shortcut=False)
    assert cls.kind == "ibn" and cls.regime == "exhaustive"
    # the scan covered every pair in lexicographic order before concluding
    assert cls.refuted == ((1, 1), (1, 2), (2, 1))


def test_classify_cardinality_shortcut():
    cls = ibn.classify_type(S.zmod_semiring(2), 4)
    assert cls.kind == "ibn" and cls.regime == "cardinality"


def test_shortcut_and_search_agree():
    for semiring in (B, S.zmod_semiring(2)):
        for n in (1, 2):
            for m in (1, 2):
                if n == m:
                    continue
                fast = ibn.free_iso_witness(semiring, n, m, shortcut=True)
                slow = ibn.free_iso_witness(semiring, n, m, shortcut=False)
                assert fast is None and slow is None


def test_column_search_matches_pair_scan():
    # every (n, m) at which the pair scan finishes in about a second or less
    small = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3))
    cases = [(TRIVIAL, small + ((3, 2),)), (B, small + ((3, 2),)),
             (S.zmod_semiring(3), small),
             (upper_triangular_boolean(), ((1, 2), (2, 1)))]
    for semiring, shapes in cases:
        for n, m in shapes:
            found = ibn.free_iso_witness(semiring, n, m, shortcut=False)
            if found is not None:
                found = tuple(x.entries for x in found)
            assert found == pair_scan_iso_witness(semiring, n, m), (semiring.name, n, m)


def test_declared_classification_for_builtins():
    for semiring in (S.NaturalsSemiring(), S.IntegersSemiring(), S.TropicalSemiring()):
        cls = ibn.classify_type(semiring, 3)
        assert cls.kind == "ibn" and cls.regime == "declared"


def test_left_right_agreement():
    for semiring in (B, TRIVIAL, upper_triangular_boolean()):
        report = ibn.left_right_ibn_agree(semiring, 3)
        assert report.agree
    trivial_report = ibn.left_right_ibn_agree(TRIVIAL, 3)
    assert trivial_report.left.kind == trivial_report.right.kind == "type"


def test_search_cap():
    with pytest.raises(SearchCapExceeded):
        ibn.free_iso_witness(S.galois_semiring(4), 2, 3, search_cap=10, shortcut=False)
    # the 27 column vectors tried for each of the 729 A, plus the B;A
    # checks, are over this cap
    zmod3 = S.zmod_semiring(3)
    with pytest.raises(SearchCapExceeded):
        ibn.free_iso_witness(zmod3, 2, 3, search_cap=729 * 27, shortcut=False)
    assert ibn.free_iso_witness(zmod3, 2, 3, search_cap=100_000, shortcut=False) is None
    with pytest.raises(UnsupportedCarrier):
        ibn.classify_type(B, 1)


def test_monogenic_congruence_on_trivial():
    base = ibn.free_iso_witness(TRIVIAL, 1, 2)
    # with index 1 and period 1 every pair of positive ranks is isomorphic
    for pad in range(0, 3):
        for steps in range(0, 3):
            a, b = extend_witness(base, steps_up=steps, pad=pad)
            assert a.dom.rank == 1 + pad
            assert a.cod.rank == 2 + pad + steps
            assert a.then(b).is_identity() and b.then(a).is_identity()


def test_opposites_and_products_skip_the_axiom_sweep(monkeypatch):
    ut = upper_triangular_boolean()

    def sweep(*args):
        raise AssertionError("axiom sweep ran")

    monkeypatch.setattr(S, "find_axiom_witness", sweep)
    assert ibn.left_right_ibn_agree(S.galois_semiring(16), 2).agree
    assert ibn.left_right_ibn_agree(ut, 2).agree
    assert S.product_semiring(ut, B).size == 16


def test_classification_json():
    cls = ibn.classify_type(TRIVIAL, 3)
    data = cls.to_json()
    assert data["kind"] == "type" and data["n"] == 1 and data["h"] == 1
    rep = ibn.left_right_ibn_agree(B, 3)
    assert rep.to_json()["agree"] is True
