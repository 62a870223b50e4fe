from fractions import Fraction

import pytest

from qgrass.echelon import DegreeSlice


def test_rank_and_redundancy():
    sl = DegreeSlice(2, ("a", "b", "c"))
    assert sl.add_vector({"a": 1, "b": 2})
    assert not sl.add_vector({"a": 2, "b": 4})
    assert sl.add_vector({"b": 1, "c": 1})
    assert sl.rank == 2
    assert not sl.saturated
    assert sl.add_vector({"c": 7})
    assert sl.saturated


def test_contains_vector():
    sl = DegreeSlice(1, ("a", "b", "c"))
    sl.add_vector({"a": 1, "b": 1})
    sl.add_vector({"b": 1, "c": 1})
    assert sl.contains_vector({})
    assert sl.contains_vector({"a": 2, "b": 2})
    assert sl.contains_vector({"a": 1, "c": -1})
    assert not sl.contains_vector({"a": 1, "c": 1})


def test_unknown_coordinate_rejected():
    sl = DegreeSlice(1, ("a",))
    with pytest.raises(ValueError):
        sl.add_vector({"z": 1})


def test_rational_input_and_unit_pivots():
    sl = DegreeSlice(3, ("a", "b", "c"))
    sl.add_vector({"a": Fraction(1, 2), "b": Fraction(1, 3)})
    sl.add_vector({"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(5, 7)})
    rows = sl.basis_rows()
    assert len(rows) == 2
    pivots = sl.pivots
    assert list(pivots) == sorted(pivots)
    for row, p in zip(rows, pivots):
        assert row[sl.columns[p]] == 1
        # pivot columns are eliminated from every other row
        for other in rows:
            if other is not row:
                assert sl.columns[p] not in other


def _rank_oracle(rows):
    # plain fraction Gaussian elimination, no pivots shared with the class
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c] / mat[rank][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_rank_matches_dense_oracle_on_random_matrices():
    import random

    rng = random.Random(20240817)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        nrows = rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        sl = DegreeSlice(0, tuple(range(ncols)))
        for row in rows:
            sl.add_vector({i: v for i, v in enumerate(row) if v})
        assert sl.rank == _rank_oracle(rows)
        for row in rows:
            assert sl.contains_vector({i: v for i, v in enumerate(row) if v})


def test_contains_row_agrees_with_contains_vector():
    import random

    rng = random.Random(20261018)
    seen = set()
    for _ in range(40):
        ncols = rng.randint(1, 6)
        sl = DegreeSlice(0, tuple(range(ncols)))
        for _ in range(rng.randint(0, ncols)):
            sl.add_row([rng.randint(-3, 3) for _ in range(ncols)])
        for _ in range(10):
            row = [rng.randint(-3, 3) for _ in range(ncols)]
            inside = sl.contains_row(row)
            assert inside == sl.contains_vector({i: v for i, v in enumerate(row) if v})
            seen.add(inside)
        for row in sl._rows:
            assert sl.contains_row(row)
    assert seen == {True, False}


def test_contains_row_rejects_wrong_length():
    sl = DegreeSlice(1, ("a", "b"))
    sl.add_row([1, 0])
    assert sl.contains_row([2, 0])
    assert not sl.contains_row([0, 1])
    with pytest.raises(ValueError):
        sl.contains_row([1])
    with pytest.raises(ValueError):
        sl.contains_row([1, 0, 0])
