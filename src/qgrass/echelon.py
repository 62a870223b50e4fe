"""Exact reduced row-echelon bases over a fixed, ordered set of coordinates.

Rows are stored as integer vectors (gcd-normalised, leading entry positive)
and kept fully reduced against one another, so the stored basis depends only
on the span, never on the order or scaling of the inserted rows.  Integer
rows go in as they are (fraction-free row reduction); rational vectors are
cleared of denominators first, and unit-pivot rational rows are produced on
demand.  Pivoting is by first nonzero column - no numerical heuristics are
involved anywhere.

`generated_slices` builds, degree by degree, the graded pieces of the
subalgebra generated in degrees at most m of a graded ring that is given by a
basis of each degree and integer Pieri maps for its generators; the ordinary
and the Lagrangian Grassmannian rings are both built through it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Mapping, Sequence


def _normalized(row: list[int]) -> list[int]:
    g = gcd(*row)
    if g == 0:
        return row
    if next(filter(None, row)) < 0:
        g = -g
    return row if g == 1 else [a // g for a in row]


class DegreeSlice:
    """Reduced-echelon basis of one graded piece, over a fixed column order."""

    def __init__(self, degree: int, columns: Sequence[Hashable]):
        self.degree = degree
        self.columns = tuple(columns)
        self._index = {c: i for i, c in enumerate(self.columns)}
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def saturated(self) -> bool:
        return len(self._rows) == len(self.columns)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def _to_int_row(self, vec: Mapping[Hashable, Fraction | int]) -> list[int]:
        row = [0] * len(self.columns)
        denom = 1
        for key, val in vec.items():
            idx = self._index.get(key)
            if idx is None:
                raise ValueError(f"coordinate {key!r} is not a column of this degree slice")
            val = Fraction(val)
            denom = lcm(denom, val.denominator)
        for key, val in vec.items():
            val = Fraction(val)
            row[self._index[key]] = int(val * denom)
        return row

    def _reduced(self, row: list[int]) -> list[int]:
        # The stored rows vanish at one another's pivots, so the row minus its
        # component along every pivot is one combination of them; scaling by
        # the lcm of their leads keeps it integral.  Zero exactly when the row
        # lies in the span; otherwise a multiple of the reduced row.
        hits = [(row[p], prow, prow[p]) for prow, p in zip(self._rows, self._pivots) if row[p]]
        if not hits:
            return row
        scale = lcm(*(lead for _, _, lead in hits))
        row = [a * scale for a in row]
        for c, prow, lead in hits:
            f = c * (scale // lead)
            row = [a - f * b for a, b in zip(row, prow)]
        return row

    def add_vector(self, vec: Mapping[Hashable, Fraction | int]) -> bool:
        """Insert a vector, returning True when it enlarges the span."""
        return self.add_row(self._to_int_row(vec))

    def add_row(self, row: Sequence[int]) -> bool:
        """Insert a dense integer row over the columns, returning True when it
        enlarges the span."""
        if len(row) != len(self.columns):
            raise ValueError(f"row of length {len(row)} against {len(self.columns)} columns")
        row = self._reduced(list(row))
        if not any(row):
            return False
        row = _normalized(row)
        pivot = next(i for i, a in enumerate(row) if a)
        lead = row[pivot]
        for i, prow in enumerate(self._rows):
            c = prow[pivot]
            if c:
                self._rows[i] = _normalized([a * lead - b * c for a, b in zip(prow, row)])
        pos = bisect_left(self._pivots, pivot)
        self._rows.insert(pos, row)
        self._pivots.insert(pos, pivot)
        return True

    def contains_vector(self, vec: Mapping[Hashable, Fraction | int]) -> bool:
        """True when the vector reduces to zero against the basis."""
        return self.contains_row(self._to_int_row(vec))

    def contains_row(self, row: Sequence[int]) -> bool:
        """True when a dense integer row over the columns reduces to zero
        against the basis."""
        if len(row) != len(self.columns):
            raise ValueError(f"row of length {len(row)} against {len(self.columns)} columns")
        return not any(self._reduced(list(row)))

    def basis_rows(self) -> list[dict[Hashable, Fraction]]:
        """Basis in reduced echelon form with unit pivots, as sparse mappings."""
        out = []
        for row, p in zip(self._rows, self._pivots):
            lead = row[p]
            out.append({self.columns[i]: Fraction(a, lead) for i, a in enumerate(row) if a})
        return out


def apply_map(
    row: Sequence[int], pieri_map: Sequence[tuple[int, Sequence[Sequence[int]]]], width: int
) -> list[int]:
    """Image of a dense integer row under a Pieri map into width columns.

    The map multiplies by a generator of degree i, from degree d - i to degree
    d, as (coefficient, per-source target column indices) pairs, one pair per
    coefficient: each source column goes to the sum of its targets times the
    coefficient."""
    image = [0] * width
    for c, targets in pieri_map:
        for a, hits in zip(row, targets):
            if a:
                ac = a * c
                for t in hits:
                    image[t] += ac
    return image


def generated_slices(
    columns: Sequence[Sequence[Hashable]],
    pieri_map: Callable[[int, int], Sequence[tuple[int, Sequence[Sequence[int]]]]],
    m: int,
) -> tuple[DegreeSlice, ...]:
    """Echelon bases of every graded piece of the subalgebra generated by one
    generator in each degree 1..m.

    columns[d] is the basis of degree d (columns[0] is the unit alone), and
    pieri_map(d, i) multiplies by the degree-i generator from degree d - i to
    degree d, in the format of `apply_map`.  Every stored row of degree d - i
    is pushed through that map into a dense integer row of degree d, until the
    degree-d piece is saturated.
    """
    slices: list[DegreeSlice] = []
    for d, cols in enumerate(columns):
        sl = DegreeSlice(d, cols)
        if d == 0:
            sl.add_row([1])
        for i in range(1, min(m, d) + 1):
            if sl.saturated:
                break
            step = pieri_map(d, i)
            for src in slices[d - i]._rows:
                if sl.saturated:
                    break
                sl.add_row(apply_map(src, step, len(sl.columns)))
        slices.append(sl)
    return tuple(slices)
