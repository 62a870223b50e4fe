"""Second algorithms that the tests check the engine against."""

from qgrass.echelon import DegreeSlice, _spanning_rows


def generated_slices(columns, pieri_map, degrees):
    """Exact echelon bases of the graded pieces that `echelon.generated`
    builds, in the same arguments and over the same walk (`_spanning_rows`),
    with no rank mod p: each piece is a `DegreeSlice` fed the spanning rows
    until it saturates, and degree d reads the reduced rows of degree
    d - i_1."""
    rows = _spanning_rows(columns, pieri_map, degrees)
    slices = []
    for d, cols in enumerate(columns):
        sl = DegreeSlice(d, cols)
        for row in rows(d, lambda e: slices[e].row_terms()):
            if sl.add_row(row) and sl.saturated:
                break
        slices.append(sl)
    return tuple(slices)


def dense_rows(sl):
    """The stored rows of a `DegreeSlice` as dense integer lists over all its columns."""
    rows = [[0] * len(sl.columns) for _ in sl.pivots]
    for row, terms in zip(rows, sl.row_terms()):
        for j, a in terms:
            row[j] = a
    return rows
