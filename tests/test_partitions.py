from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qgrass import partitions as partitions_module
from qgrass.partitions import (
    Partition,
    bounded_from_core,
    candidate_partitions,
    core_from_bounded,
    k_bounded_partitions,
    k_conjugate,
    partitions_in_box,
    partitions_in_box_of_size,
    shifted_compose,
    shifted_decompose,
    strict_partitions_in_triangle,
    strict_partitions_of_size,
    vacancy,
    vacant_compose,
    vacant_decompose,
    vacant_partitions,
)


from oracles import box_tuples, dominance_leq, is_core, strict_tuples


def P(*parts):
    return Partition(parts)


@st.composite
def partitions(draw, max_part=6, max_len=6):
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_len))
    return Partition(sorted(parts, reverse=True))


@st.composite
def bounded_partitions(draw, max_k=6, max_len=6, min_len=0):
    k = draw(st.integers(1, max_k))
    parts = draw(st.lists(st.integers(1, k), min_size=min_len, max_size=max_len))
    return Partition(sorted(parts, reverse=True)), k


# --- construction and text format ---------------------------------------


def test_construction_normalizes_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == P(3, 1)
    assert Partition((0, 0)) == Partition()


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, -1))
    with pytest.raises(ValueError):
        Partition((3, 0, 2))


@pytest.mark.parametrize("part", [2.7, 2.0, "3", True, Fraction(2)], ids=repr)
def test_construction_refuses_non_int_parts(part):
    # truncating 2.7 to 2 or reading "3" as 3 would hide a caller's fault
    with pytest.raises(TypeError):
        Partition((part,))
    with pytest.raises(TypeError):
        Partition((3, part))


def _built_partitions(ell, k):
    # what the enumerators, conjugations, core maps and decompositions build,
    # most of it through Partition._wrap
    for lam in partitions_in_box(ell, k):
        core = core_from_bounded(lam, k)
        yield from (lam, lam.conjugate(), k_conjugate(lam, k), core, bounded_from_core(core, k))
        if lam:
            i, j, dag, ddag = vacant_decompose(lam, k)
            yield from (dag, ddag, vacant_compose(i, j, dag, ddag, k))
    for lam in strict_partitions_in_triangle(ell + k):
        yield lam
        if lam:
            i, j, mu = shifted_decompose(lam, ell + k)
            yield from (mu, shifted_compose(i, j, mu, ell + k))


def test_built_partitions_equal_their_validated_copies():
    seen = 0
    for ell in range(5):
        for k in range(1, 5):
            for lam in _built_partitions(ell, k):
                copy = Partition(lam.parts)
                assert copy == lam and hash(copy) == hash(lam), (ell, k, lam.parts)
                seen += 1
    assert seen == 4658


def test_parse_and_str_round_trip():
    assert Partition.parse("4,3,1,1") == P(4, 3, 1, 1)
    assert Partition.parse("") == Partition()
    assert str(P(4, 3, 1, 1)) == "4,3,1,1"
    assert str(Partition()) == ""
    with pytest.raises(ValueError):
        Partition.parse("1,2")
    with pytest.raises(ValueError):
        Partition.parse("a,b")


# --- conjugation ----------------------------------------------------------


def test_conjugate_examples():
    assert Partition().conjugate() == Partition()
    assert P(4, 3, 1, 1).conjugate() == P(4, 2, 2, 1)
    for k, ell in [(3, 2), (5, 1), (2, 4)]:
        assert Partition([k] * ell).conjugate() == Partition([ell] * k)


@given(partitions())
def test_conjugate_is_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size


# --- hooks and cores -------------------------------------------------------


def test_hook_lengths_examples():
    assert P(4, 3, 1, 1).hook_lengths() == [[7, 4, 3, 1], [5, 2, 1], [2], [1]]
    assert P(1).hook_lengths() == [[1]]
    assert P(2, 1).hook_lengths() == [[3, 1], [1]]


def test_is_core_examples():
    lam = P(4, 3, 1, 1)
    assert is_core(lam, 6)
    assert is_core(lam, 8)
    assert not is_core(lam, 4)
    assert not is_core(lam, 5)
    assert not is_core(lam, 7)
    assert is_core(Partition(), 2)


def test_core_from_bounded_examples():
    assert core_from_bounded(P(4, 3, 1, 1), 4) == P(8, 4, 1, 1)
    assert core_from_bounded(P(1, 1, 1), 2) == P(2, 1, 1)
    # no slides needed when every hook is small
    assert core_from_bounded(P(2, 1), 3) == P(2, 1)
    with pytest.raises(ValueError):
        core_from_bounded(P(4, 3, 1, 1), 3)
    with pytest.raises(ValueError):
        core_from_bounded(P(1), 0)


def test_bounded_from_core_examples():
    assert bounded_from_core(P(8, 4, 1, 1), 4) == P(4, 3, 1, 1)
    assert bounded_from_core(P(2, 1, 1), 2) == P(1, 1, 1)
    assert bounded_from_core(P(2, 1), 3) == P(2, 1)
    with pytest.raises(ValueError):
        bounded_from_core(P(2, 1), 2)  # (2,1) has a hook of length 3


def test_core_round_trip_small_exhaustive():
    for k in range(1, 5):
        for d in range(0, 9):
            for lam in k_bounded_partitions(k, d):
                core = core_from_bounded(lam, k)
                assert is_core(core, k + 1)
                assert bounded_from_core(core, k) == lam


@given(bounded_partitions())
def test_core_round_trip_random(data):
    lam, k = data
    assert bounded_from_core(core_from_bounded(lam, k), k) == lam


def test_core_round_trip_from_core_side():
    # every small (k+1)-core arises from its bounded image
    for k in range(1, 4):
        for d in range(0, 10):
            for lam in partitions_in_box_of_size(d, d, d):
                if is_core(lam, k + 1):
                    assert core_from_bounded(bounded_from_core(lam, k), k) == lam


# --- k-conjugation ----------------------------------------------------------


def test_k_conjugate_examples():
    assert k_conjugate(P(4, 3, 1, 1), 4) == P(2, 1, 1, 1, 1, 1, 1, 1)
    assert k_conjugate(P(1), 3) == P(1)
    assert k_conjugate(P(2, 1), 2) == P(1, 1, 1)
    with pytest.raises(ValueError):
        k_conjugate(P(4), 3)


@given(bounded_partitions(max_k=5, max_len=5))
def test_k_conjugate_involution(data):
    lam, k = data
    w = k_conjugate(lam, k)
    assert w.first <= k
    assert w.size == lam.size
    assert k_conjugate(w, k) == lam


def test_k_conjugate_reduces_to_conjugate_for_small_hooks():
    for k in range(1, 5):
        for d in range(0, 9):
            for lam in k_bounded_partitions(k, d):
                if all(h <= k for row in lam.hook_lengths() for h in row):
                    assert k_conjugate(lam, k) == lam.conjugate()


def _slide(lam, k):
    """Reference (k+1)-core: row sliding as first written.  Each row, bottom to
    top, moves right one column at a time until every box has hook length at
    most k, with each leg recounted against every lower row."""

    def row_hooks_ok(offset, length, below):
        for col in range(offset + 1, offset + length + 1):
            arm = offset + length - col
            leg = sum(1 for off2, len2 in below if off2 < col <= off2 + len2)
            if arm + leg + 1 > k:
                return False
        return True

    parts = lam.parts
    offsets = [0] * len(parts)
    for r in range(len(parts) - 1, -1, -1):
        below = [(offsets[s], parts[s]) for s in range(r + 1, len(parts))]
        while not row_hooks_ok(offsets[r], parts[r], below):
            offsets[r] += 1
    return Partition([off + p for off, p in zip(offsets, parts)])


def _slide_k_conjugate(lam, k):
    """Reference k-conjugate: slide, transpose, keep the hooks <= k + 1."""
    core = _slide(lam, k).conjugate()
    assert is_core(core, k + 1)
    return Partition([sum(1 for h in row if h <= k + 1) for row in core.hook_lengths()])


def _assert_matches_slide(lam, k):
    assert core_from_bounded(lam, k) == _slide(lam, k), (lam, k)
    assert k_conjugate(lam, k) == _slide_k_conjugate(lam, k), (lam, k)


def test_column_height_scan_matches_row_sliding_in_7_row_boxes():
    # the 7 x k box holds every k-bounded partition of every box up to 7 x k
    for k in range(1, 8):
        for lam in partitions_in_box(7, k):
            _assert_matches_slide(lam, k)


@given(bounded_partitions(max_k=8, min_len=40, max_len=60))
def test_column_height_scan_matches_row_sliding_on_long_partitions(data):
    _assert_matches_slide(*data)


# --- vacancy ----------------------------------------------------------------


def test_vacancy_examples():
    assert vacancy(P(4, 4, 3, 3, 1), 5) == 3
    assert vacancy(P(1), 4) == 1
    assert vacancy(P(3, 3, 3), 3) == 1
    assert vacancy(Partition(), 3) == 0
    with pytest.raises(ValueError):
        vacancy(P(4), 3)


def test_vacancy_equals_first_part_of_k_conjugate():
    for ell in range(1, 5):
        for k in range(1, 5):
            for lam in partitions_in_box(ell, k):
                if lam:
                    assert vacancy(lam, k) == k_conjugate(lam, k).first


def test_vacant_families_match_known_tables():
    one_vacant = {(1,), (2,), (3,), (3, 1), (3, 2), (3, 3), (3, 3, 1), (3, 3, 2), (3, 3, 3)}
    two_vacant = {(1, 1), (2, 1), (2, 2), (2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)}
    assert {lam.parts for lam in vacant_partitions(3, 3, 1)} == one_vacant
    assert {lam.parts for lam in vacant_partitions(3, 3, 2)} == two_vacant
    assert {lam.parts for lam in vacant_partitions(3, 3, 3)} == {(1, 1, 1)}


# --- vacant decomposition ----------------------------------------------------


def test_vacant_decompose_examples():
    assert vacant_decompose(P(4, 4, 3, 3, 1), 5) == (3, 2, P(2, 2), P(1, 1))
    assert vacant_decompose(P(1), 4) == (1, 0, Partition(), Partition())
    with pytest.raises(ValueError):
        vacant_decompose(Partition(), 4)


def test_vacant_compose_examples():
    for k in range(1, 6):
        assert vacant_compose(1, 0, Partition([k - 1]), Partition(), k) == Partition([k])
    with pytest.raises(ValueError):
        vacant_compose(0, 0, Partition(), Partition(), 3)
    with pytest.raises(ValueError):
        vacant_compose(2, 1, P(3), Partition(), 4)  # dagger too wide for (k-i)^i
    with pytest.raises(ValueError):
        vacant_compose(2, 1, Partition(), P(2), 4)  # ddagger too wide for (i-1)^j


def test_vacant_round_trip_exhaustive():
    for ell in range(1, 6):
        for k in range(1, 6):
            for lam in partitions_in_box(ell, k):
                if not lam:
                    continue
                i, j, dag, ddag = vacant_decompose(lam, k)
                assert i == vacancy(lam, k) and j == len(lam) - i
                assert dag.fits(i, k - i) and ddag.fits(j, i - 1)
                assert vacant_compose(i, j, dag, ddag, k) == lam
            for i in range(1, min(ell, k) + 1):
                for j in range(ell - i + 1):
                    for dag in partitions_in_box(i, k - i):
                        for ddag in partitions_in_box(j, i - 1):
                            lam = vacant_compose(i, j, dag, ddag, k)
                            assert len(lam) == i + j
                            assert vacancy(lam, k) == i
                            assert vacant_decompose(lam, k) == (i, j, dag, ddag)


# --- shifted decomposition ----------------------------------------------------


def test_shifted_decompose_examples():
    assert shifted_decompose(P(7, 5, 4, 3, 1), 7) == (3, 4, P(2, 2, 2, 1))
    assert shifted_decompose(P(6, 5, 4, 3, 1), 6) == (1, 5, P(1, 1, 1))
    assert shifted_decompose(P(1), 1) == (1, 0, Partition())
    with pytest.raises(ValueError):
        shifted_decompose(Partition(), 3)
    with pytest.raises(ValueError):
        shifted_decompose(P(2, 2), 3)
    with pytest.raises(ValueError):
        shifted_decompose(P(4), 3)


def test_shifted_compose_validation():
    with pytest.raises(ValueError):
        shifted_compose(2, 1, Partition(), 5)  # even i
    with pytest.raises(ValueError):
        shifted_compose(3, 3, Partition(), 5)  # i + j > n
    with pytest.raises(ValueError):
        shifted_compose(1, 1, P(2), 5)  # mu too wide


def test_shifted_round_trip_exhaustive():
    for n in range(1, 8):
        for lam in strict_partitions_in_triangle(n):
            if not lam:
                continue
            i, j, mu = shifted_decompose(lam, n)
            assert i % 2 == 1 and 1 <= i <= n
            assert mu.fits(j, i)
            assert shifted_compose(i, j, mu, n) == lam
        for i in range(1, n + 1, 2):
            for j in range(n - i + 1):
                for mu in partitions_in_box(j, i):
                    lam = shifted_compose(i, j, mu, n)
                    assert lam.is_strict and lam.first <= n
                    assert shifted_decompose(lam, n) == (i, j, mu)


# --- dominance -----------------------------------------------------------------


def test_dominance_examples():
    assert dominance_leq(P(2, 1), P(3))
    assert not dominance_leq(P(3, 1, 1, 1), P(2, 2, 2))
    assert not dominance_leq(P(2, 2, 2), P(3, 1, 1, 1))
    with pytest.raises(ValueError):
        dominance_leq(P(2), P(3))


@given(partitions())
def test_dominance_reflexive(lam):
    assert dominance_leq(lam, lam)


# --- enumeration ------------------------------------------------------------------


def test_in_box_count():
    assert sum(1 for _ in partitions_in_box(3, 3)) == 20


def test_enumeration_order_is_size_then_lex_decreasing():
    fams = [
        list(partitions_in_box(3, 4)),
        list(strict_partitions_in_triangle(4)),
        list(candidate_partitions(3, 3, 2)),
    ]
    for fam in fams:
        sizes = [lam.size for lam in fam]
        assert sizes == sorted(sizes)
        for a, b in zip(fam, fam[1:]):
            if a.size == b.size:
                assert a.parts > b.parts
        assert len(set(fam)) == len(fam)


def test_one_enumerator_lists_both_rings():
    # gap 0 against the old iterative box walk, gap 1 against the recursive
    # strict search, at every total and one past the largest
    for maxpart in range(10):
        for rows in range(10):
            for total in range(maxpart * rows + 2):
                got = list(partitions_module._decreasing_tuples(maxpart, rows, total, 0))
                assert got == list(box_tuples(maxpart, rows, total)), (maxpart, rows, total)
    for n in range(15):
        for total in range(n * (n + 1) // 2 + 2):
            got = list(partitions_module._decreasing_tuples(n, n, total, 1))
            assert got == list(strict_tuples(n, total)), (n, total)


def test_enumerators_refuse_a_negative_side():
    # every public enumerator; a side of one name is the smaller of the pair
    for ell, k in [(-1, 3), (3, -1), (-2, -3)]:
        side = min(ell, k)
        for family in (
            lambda: partitions_in_box_of_size(ell, k, 1),
            lambda: partitions_in_box(ell, k),
            lambda: k_bounded_partitions(side, 1),
            lambda: strict_partitions_of_size(side, 0),
            lambda: strict_partitions_in_triangle(side),
            lambda: vacant_partitions(ell, k, 1),
            lambda: candidate_partitions(ell, k, 0),
        ):
            with pytest.raises(ValueError):
                list(family())


def test_a_negative_size_has_no_partitions():
    for size in (-1, -5):
        assert list(partitions_in_box_of_size(3, 3, size)) == []
        assert list(k_bounded_partitions(3, size)) == []
        assert list(strict_partitions_of_size(3, size)) == []


def test_empty_bounds_hold_only_the_empty_partition():
    for family in (
        partitions_in_box_of_size(0, 3, 0),
        partitions_in_box_of_size(3, 0, 0),
        partitions_in_box(0, 0),
        k_bounded_partitions(0, 0),
        strict_partitions_of_size(0, 0),
        strict_partitions_in_triangle(0),
    ):
        assert list(family) == [P()]
    assert list(partitions_in_box_of_size(0, 3, 1)) == list(k_bounded_partitions(0, 2)) == []
    assert list(strict_partitions_of_size(0, 1)) == list(strict_partitions_of_size(2, 4)) == []


def test_strict_in_triangle_example():
    assert {lam.parts for lam in strict_partitions_in_triangle(2)} == {(), (1,), (2,), (2, 1)}


def test_candidate_set_column_case():
    expected = [tuple([1] * d) for d in range(10)]
    assert [lam.parts for lam in candidate_partitions(3, 3, 1)] == expected


def test_candidate_set_degree_seven_discrepancy():
    degree7 = {lam.parts for lam in candidate_partitions(3, 3, 3) if lam.size == 7}
    assert degree7 == {(2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1)}
    assert (2, 1, 1, 1, 1, 1) not in degree7


def test_candidate_sets_k_conjugate_each_box_once(monkeypatch):
    calls = []

    def counted(lam, k):
        calls.append((lam, k))
        return k_conjugate(lam, k)

    boxes = [(3, 3), (2, 4), (4, 3), (5, 5)]
    partitions_module._box_k_conjugates.cache_clear()
    monkeypatch.setattr(partitions_module, "k_conjugate", counted)
    for ell, k in boxes:
        for m in range(k + 1):
            # the direct definition: every box partition conjugated again for this m
            expected = []
            for d in range(ell * k + 1):
                images = [k_conjugate(lam, k) for lam in partitions_in_box_of_size(ell, k, d)]
                expected += sorted((p for p in images if p.first <= m), reverse=True)
            assert list(candidate_partitions(ell, k, m)) == expected, (ell, k, m)
    assert len(calls) == sum(sum(1 for _ in partitions_in_box(ell, k)) for ell, k in boxes)


def test_candidate_set_rejects_unbounded_m():
    with pytest.raises(ValueError):
        list(candidate_partitions(3, 3, 4))


def test_vacant_partitions_rejects_bad_index():
    with pytest.raises(ValueError):
        list(vacant_partitions(3, 3, 0))
