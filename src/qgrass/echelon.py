"""Exact reduced row-echelon bases over a fixed, ordered set of coordinates.

Rows are primitive integer vectors with a positive lead, kept fully reduced
against one another, so the basis depends only on the span.  A fully reduced
row is zero at every other pivot, so it is stored as its pivot, its lead and
a tail over the free (not yet pivot) columns: reduction, back-substitution
and normalisation run over the n - r free entries, and a new pivot deletes
its column from every tail.  Rows and vectors go in as integers
(fraction-free); any other entry is rejected, never rounded; dense rows are
built on demand.  Pivots are first nonzero columns, with no numerical
heuristics.

`generated_slices` builds the graded pieces of the subalgebra generated in
degrees at most m of a graded ring given by a basis of each degree and
integer Pieri maps for its generators; both Grassmannian rings use it.  A
monomial in the generators factors out its smallest one, so the degree-d
piece is g_1 times the piece of degree d - 1 plus, for each i >= 2, g_i times
the span of the monomials in g_i..g_m of degree d - i.  Each higher
generator takes the smaller of two spanning sets of a space that holds that
product: those monomials, counted before any is built, or the stored rows of
degree d - i.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import chain
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence


def _primitive(lead: int, tail: list[int]) -> tuple[int, list[int]]:
    g = gcd(lead, *tail) if lead > 0 else -gcd(lead, *tail)
    return (lead, tail) if g == 1 else (lead // g, [a // g for a in tail])


class DegreeSlice:
    """Reduced-echelon basis of one graded piece, over a fixed column order."""

    def __init__(self, degree: int, columns: Sequence[Hashable]):
        self.degree = degree
        self.columns = tuple(columns)
        # row i is _leads[i] at column _pivots[i] (increasing), _tails[i] over
        # the columns _free and zero at every other pivot
        self._pivots: list[int] = []
        self._leads: list[int] = []
        self._tails: list[list[int]] = []
        self._free = list(range(len(self.columns)))

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def saturated(self) -> bool:
        return not self._free

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def row_terms(self) -> Iterator[Iterator[tuple[int, int]]]:
        """Each stored row, in pivot order, as (column, entry) pairs over its pivot and the free columns."""
        for p, lead, tail in zip(self._pivots, self._leads, self._tails):
            yield chain(((p, lead),), zip(self._free, tail))

    @property
    def _rows(self) -> list[list[int]]:
        """The stored rows as dense integer lists over all the columns."""
        rows = [[0] * len(self.columns) for _ in self._pivots]
        for row, terms in zip(rows, self.row_terms()):
            for j, a in terms:
                row[j] = a
        return rows

    def _to_int_row(self, vec: Mapping[Hashable, int]) -> list[int]:
        index = {c: i for i, c in enumerate(self.columns)}
        row = [0] * len(self.columns)
        for key, val in vec.items():
            if key not in index:
                raise ValueError(f"coordinate {key!r} is not a column of this degree slice")
            if type(val) is not int:
                raise TypeError(f"entries must be ints, got {val!r} at {key!r}")
            row[index[key]] = val
        return row

    def _reduced(self, row: Sequence[int]) -> list[int]:
        # The row minus its component along each pivot, times the lcm of the
        # leads it meets; zero at every pivot, so only its free entries return.
        if len(row) != len(self.columns):
            raise ValueError(f"row of length {len(row)} against {len(self.columns)} columns")
        free = [row[j] for j in self._free]
        hits = [(row[p], lead, tail) for p, lead, tail in zip(self._pivots, self._leads, self._tails) if row[p]]
        scale = lcm(*(lead for _, lead, _ in hits))
        if scale != 1:
            free = [a * scale for a in free]
        for c, lead, tail in hits:
            f = c * (scale // lead)
            free = [a - f * b for a, b in zip(free, tail)]
        return free

    def add_vector(self, vec: Mapping[Hashable, int]) -> bool:
        """Insert a vector, returning True when it enlarges the span."""
        return self.add_row(self._to_int_row(vec))

    def add_row(self, row: Sequence[int]) -> bool:
        """Insert a dense integer row over the columns; True when it enlarges the span."""
        tail = self._reduced(row)
        lead = next(filter(None, tail), 0)
        if not lead:
            return False
        j = tail.index(lead)
        del tail[j]
        lead, tail = _primitive(lead, tail)
        # back-substitution clears the new pivot column from every stored row
        for i, prow in enumerate(self._tails):
            c = prow.pop(j)
            if c:
                self._leads[i], self._tails[i] = _primitive(
                    self._leads[i] * lead, [a * lead - c * b for a, b in zip(prow, tail)]
                )
        pivot = self._free.pop(j)
        pos = bisect_left(self._pivots, pivot)
        self._pivots.insert(pos, pivot)
        self._leads.insert(pos, lead)
        self._tails.insert(pos, tail)
        return True

    def contains_vector(self, vec: Mapping[Hashable, int]) -> bool:
        """True when the vector reduces to zero against the basis."""
        return self.contains_row(self._to_int_row(vec))

    def contains_row(self, row: Sequence[int]) -> bool:
        """True when a dense integer row over the columns lies in the span."""
        return not any(self._reduced(row))

    def basis_rows(self) -> list[dict[Hashable, int]]:
        """The stored primitive integer rows, in pivot order, as sparse {column: entry} mappings."""
        return [{self.columns[j]: a for j, a in terms if a} for terms in self.row_terms()]


def apply_map(
    terms: Iterable[tuple[int, int]], pieri_map: Sequence[tuple[int, Sequence[Sequence[int]]]], width: int
) -> list[int]:
    """Dense image over width columns of an integer row, given as (column,
    entry) pairs (`enumerate` of a dense row, or one of `DegreeSlice.row_terms`),
    under a Pieri map: multiplication by a generator of degree i from degree
    d - i to d, as one (coefficient, per-source target columns) pair per coefficient."""
    image = [0] * width
    for j, a in terms:
        if a:
            for c, targets in pieri_map:
                ac = a * c
                for t in targets[j]:
                    image[t] += ac
    return image


def _monomial_counts(lo: int, hi: int, top: int) -> list[int]:
    """counts[e], for e <= top: the number of monomials of degree e in
    generators of degrees lo..hi, that is of partitions of e with parts in
    [lo, hi]."""
    counts = [1] + [0] * top
    for b in range(lo, min(hi, top) + 1):
        for e in range(b, top + 1):
            counts[e] += counts[e - b]
    return counts


def _monomials(e: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The monomials of degree e in generators of degrees lo..hi, as
    nondecreasing tuples of degrees, in lexicographic order.  Iterative; a
    part b is placed only when the rest of the degree is a sum of parts in
    [b, hi], so no branch dead-ends."""
    stack = [((), e, lo)]
    while stack:
        head, rest, low = stack.pop()
        if not rest:
            yield head
        for b in range(min(hi, rest), low - 1, -1):
            left = rest - b
            if not left or -(-left // hi) <= left // b:
                stack.append((head + (b,), left, b))


def generated_slices(
    columns: Sequence[Sequence[Hashable]], pieri_map: Callable[[int, int], Sequence], m: int
) -> tuple[DegreeSlice, ...]:
    """Echelon bases of the graded pieces of the subalgebra A generated by one
    generator g_i in each degree i = 1..m: columns[d] is the basis of degree d
    (columns[0] is the unit alone), and pieri_map(d, i) multiplies by g_i from
    degree d - i to d, in the format of `apply_map`.

    A monomial of degree d factors out its smallest generator, so A_d is g_1
    A_(d-1) plus g_i C_(d-i) over i >= 2, where C_(d-i) is spanned by the
    monomials in g_i..g_m and lies in A_(d-i).  g_1 takes the stored rows of
    A_(d-1) as sparse terms; each g_i with i >= 2 takes the monomial rows of
    C_(d-i) when there are fewer of them than A_(d-i) has rows, and those
    rows otherwise.  Monomial rows are built through the Pieri maps and kept
    for this build only.  Pushing stops once the degree-d piece is saturated."""
    top = len(columns) - 1
    counts = cache(lambda i: _monomial_counts(i, m, top))
    rows: dict[tuple[int, ...], list[int]] = {(): [1]}

    def monomial_row(parts: tuple[int, ...]) -> list[int]:
        # every suffix is a monomial too: build up from the longest one kept
        j = 0
        while parts[j:] not in rows:
            j += 1
        for j in range(j - 1, -1, -1):
            key = parts[j:]
            e = sum(key)
            rows[key] = apply_map(enumerate(rows[key[1:]]), pieri_map(e, key[0]), len(columns[e]))
        return rows[parts]

    slices: list[DegreeSlice] = []
    for d, cols in enumerate(columns):
        sl = DegreeSlice(d, cols)
        if d == 0:
            sl.add_row([1])
        for i in range(1, min(m, d) + 1):
            if sl.saturated:
                break
            below = slices[d - i]
            sources: Iterable[Iterable[tuple[int, int]]] = below.row_terms()
            if i > 1 and counts(i)[d - i] < below.rank:
                sources = (enumerate(monomial_row(b)) for b in _monomials(d - i, i, m))
            step = pieri_map(d, i)
            for src in sources:
                if sl.saturated:
                    break
                sl.add_row(apply_map(src, step, len(sl.columns)))
        slices.append(sl)
    return tuple(slices)
