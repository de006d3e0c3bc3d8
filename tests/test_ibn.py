import itertools
import math
import signal
import time

import pytest

from semicat import ibn
from semicat import semirings as S
from semicat.errors import SearchCapExceeded, UnsupportedCarrier
from semicat.matcat import from_entries, identity
from support import (
    catalog_all,
    extend_witness,
    matrix_ring_f2,
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


def test_classify_cardinality_answers_without_walking_the_pairs():
    # the cardinality argument refutes every pair at once, so a huge cap
    # costs nothing and no pair is recorded as searched; a walk over the
    # 5 * 10**11 pairs is cut short by the alarm instead of filling memory
    def cut_short(signum, frame):
        raise TimeoutError("classify_type walks the pairs")

    previous = signal.signal(signal.SIGALRM, cut_short)
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    try:
        start = time.perf_counter()
        cls = ibn.classify_type(S.zmod_semiring(4), 10**6)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 0.1
    assert (cls.kind, cls.cap, cls.regime, cls.refuted) == (
        "ibn", 10**6, "cardinality", ())


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


def test_column_search_matches_pair_scan_on_matrices_over_f2():
    m2 = matrix_ring_f2()
    for n, m in ((1, 2), (2, 1)):
        found = ibn.free_iso_witness(m2, n, m, shortcut=False)
        if found is not None:
            found = tuple(x.entries for x in found)
        assert found == pair_scan_iso_witness(m2, n, m), (n, m)


def test_masks_solve_both_halves_of_a_witness():
    # on finite carriers no B passes a mis-oriented B;A check that fails the
    # right one (either would make F_n a retract of F_m and F_m one of F_n),
    # so search results cannot show the orientation of the row masks; they
    # are checked against Morphism products on noncommutative carriers
    for R in (upper_triangular_boolean(), matrix_ring_f2()):
        for n, m in ((1, 2), (2, 1)):
            columns, rows = ibn._DotMasks(R, m), ibn._DotMasks(R, n, vector_left=True)
            units_n = identity(R, n).entries
            units_m = identity(R, m).entries
            every_a = itertools.product(R.elements(), repeat=n * m)
            for flat in itertools.islice(every_a, 0, None, 5):
                a = tuple(flat[i * m:(i + 1) * m] for i in range(n))
                to_a = from_entries(R, a, dom=n, cod=m)
                for t in range(n):
                    expected = [v for v in columns.vectors
                                if to_a.then(from_entries(R, [[x] for x in v])).entries
                                == tuple((e,) for e in units_n[t])]
                    assert columns.vectors_of(columns.solve(a, t)) == expected
                a_t = tuple(zip(*a))
                for j in range(m):
                    expected = [u for u in rows.vectors
                                if from_entries(R, [u]).then(to_a).entries == (units_m[j],)]
                    assert rows.vectors_of(rows.solve(a_t, j)) == expected


def _unmasked_search_steps(R, n, m):
    """The steps of a search over n x m matrices A that finds no witness,
    counted without the masks: every A is scanned, and for each A whose rows
    all admit a solution of u A = e_j, every B with A;B = I is walked."""
    elements = list(R.elements())

    def dot(u, v):
        out = R.zero
        for x, y in zip(u, v):
            out = R.add(out, R.mul(x, y))
        return out

    def unit(k, i):
        return tuple(R.one if j == i else R.zero for j in range(k))

    lefts = list(itertools.product(elements, repeat=n))
    rights = list(itertools.product(elements, repeat=m))
    steps = 0
    for flat in itertools.product(elements, repeat=n * m):
        a = [flat[i * m:(i + 1) * m] for i in range(n)]
        steps += 1
        columns = list(zip(*a))
        if not all(any(tuple(dot(u, c) for c in columns) == unit(m, j) for u in lefts)
                   for j in range(m)):
            continue
        # the B with A;B = I, column t of B solving A b = e_t
        steps += math.prod(
            sum(tuple(dot(row, b) for row in a) == unit(n, t) for b in rights)
            for t in range(n))
    return steps


@pytest.mark.parametrize("semiring, n, m, cap", [
    (S.zmod_semiring(3), 2, 3, 729),
    (B, 2, 3, 64),
    (S.zmod_semiring(3), 3, 2, 729),
    (S.galois_semiring(4), 1, 2, 16),
])
def test_search_charges_every_check_of_the_scan(semiring, n, m, cap):
    # the smallest caps that let these searches finish: one step per A
    # scanned and one per B walked; over these carriers no A has both a
    # column solution for every t and a row solution for every j, so no B
    # is walked
    assert _unmasked_search_steps(semiring, n, m) == cap
    with pytest.raises(SearchCapExceeded):
        ibn.free_iso_witness(semiring, n, m, search_cap=cap - 1, shortcut=False)
    assert ibn.free_iso_witness(semiring, n, m, search_cap=cap, shortcut=False) is None


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
    # one step for each of the 3^6 A of zmod:3 at 2 -> 3
    zmod3 = S.zmod_semiring(3)
    with pytest.raises(SearchCapExceeded):
        ibn.free_iso_witness(zmod3, 2, 3, search_cap=3**6 - 1, shortcut=False)
    assert ibn.free_iso_witness(zmod3, 2, 3, search_cap=3**6, shortcut=False) is None
    # on the one-element carrier the one A and the one B walked, which is
    # the witness, are two steps
    with pytest.raises(SearchCapExceeded):
        ibn.free_iso_witness(TRIVIAL, 2, 3, search_cap=1, shortcut=False)
    assert ibn.free_iso_witness(TRIVIAL, 2, 3, search_cap=2, shortcut=False) is not None
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
