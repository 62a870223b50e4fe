"""Exact reduced row-echelon bases over a fixed, ordered set of coordinates.

Rows are primitive integer vectors with a positive lead, kept fully reduced
against one another, so the basis depends only on the span.  A fully reduced
row is zero at every other pivot, so it is stored as its pivot, its lead and
a tail over the free (not yet pivot) columns: reduction, back-substitution
and normalisation run over the n - r free entries, and a new pivot deletes
its column from every tail.  Rows and vectors go in as integers
(fraction-free); any other entry is rejected, never rounded; dense rows are
built on demand.  Pivots are first nonzero columns, with no numerical
heuristics.  Membership is the packed check of the fallback below.

`generated` builds the graded pieces of the subalgebra of a `Ring`
generated by one generator in each of a list of degrees (1..m in the
Grassmannian, the odd degrees up to m in the Lagrangian ring).  A `Ring` is
one box or order: the columns of each degree and integer Pieri maps for the
generators.  A ring `schur` builds has `range(width)` as the columns of a
degree, so the columns of every `Span` and `DegreeSlice` built over it are
indices, in the order `partitions._decreasing_tuples` lists the partitions
(the tests name them); a caller may give any other labels.  A monomial
either contains the smallest generator g_(i_1) or lies in the others alone,
so the degree-d piece is g_(i_1) times a basis of degree d - i_1, plus the
span of the monomials of degree d in the other generators.  Only the
smallest generator reads the basis below.

A `Ring` holds what every build of it shares, so that each is done once:
its widths and maps (`schur` keeps the single-box tables the maps are read
from), and the two records below.
- Its monomial rows: `monomial_row` builds the row of a monomial through
  the Pieri maps, from the row of its longest suffix already kept, and
  keeps it, for the builds and for the reports that read the same rows.
- Its saturation record.  The generator sets of a ring's builds are
  prefixes of one increasing sequence (h_1, h_2, ... or e_1, e_3, ...), so
  for bounds m <= m', A^(m)_d lies in A^(m')_d, which lies in H_d: a degree
  proved saturated at bound m is saturated at every larger bound.  The
  record maps each degree to the smallest bound whose build proved it
  saturated (rank = width, by either rule below), and `generated` yields a
  recorded degree's saturated span without pulling a row.  The checks build
  the bounds in ascending order, so the record serves every bound after the
  first; built in any other order, the spans are the same and the record
  serves less.  The record is the ring's own, so no build reads a record
  written over other columns or maps.

Each piece is a `Span`, the result of `exact_rank`, the one rule for the
rank over Q of integer rows.  The rows are pulled lazily into a
`PackedRank` (`modp`): an echelon mod a prime, each row one int with a
64-bit slot per column, which reduces a row by one big-int multiply-add per
pivot.  Its prime P, the rank prime, is the largest of the residue primes
below.  Rows independent mod P are independent over Q.  Pulling stops once
rank_p = width: the span is saturated.  If rank_p = n, the n rows are a
basis.  Otherwise the span falls back to the reduced echelon over Q of the
rows pulled, `_reduced_echelon`, multimodular and checked exactly (W. Stein,
Modular Forms: A Computational Approach, GSM 79, 2007, ch. 7):
- residues: the reduced echelon mod p of the rows, first the rank pass's
  own, then one per further prime q < 2^30 with width * q^2 + q < 2^64,
  largest first, of the rows independent mod P.  A residue whose pivots are
  not the earliest of the largest rank is dropped;
- CRT over the residues kept, and rational reconstruction of each entry
  (P. S. Wang, M. J. T. Guy and J. H. Davenport, SIGSAM Bull. 16(2), 1982;
  here in its maximal-quotient form), one denominator running over the
  rows, each row then made primitive;
- the exact check.  The residues kept have rank r, so rank_Q >= r.  With
  row i of the result (L e_(p_i) + N_i) / L, every row a pulled must have
  L * a_free = sum_i a[p_i] * N_i.  Then the rows span r dimensions and the
  result is their reduced echelon, whose pivots, leads and tails are unique.
  The check is `DegreeSlice.contains_row`: one big-int multiply-add per
  (row, pivot), in signed slots wide enough for the bound.
Primes are added until a check passes.  A check failed on the rows
independent mod P (P was bad), or primes spent past the Hadamard bound,
which correct residues never reach, drop every residue, so a wrong one is
never accepted.  The oracle is `_slice_of` in the tests: a `DegreeSlice`
that inserts every row fraction-free.

A `Span` also has pivots, columns on which its basis is nonsingular: every
column when it is saturated, the mod-P pivots of independent rows, or the
pivots of the fallback.  Its `contains_row` is exact: a saturated span holds
every row of its width, and any other checks the row against the fallback
slice, or against the reduced echelon of its rows, built on the first call.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from math import gcd, lcm
from operator import methodcaller
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .modp import PackedRank, _packed_rank, _reconstructed, _residue_primes


def _unsigned(values: Iterable[int], size: int) -> int:
    # the values, each plus 2^(8 size - 1), in little-endian slots of size bytes
    half = 1 << 8 * size - 1
    return int.from_bytes(b"".join(map(methodcaller("to_bytes", size, "little"), map(half.__add__, values))), "little")


def _primitive(lead: int, tail: list[int]) -> tuple[int, list[int]]:
    g = gcd(lead, *tail) if lead > 0 else -gcd(lead, *tail)
    return (lead, tail) if g == 1 else (lead // g, [a // g for a in tail])


class DegreeSlice:
    """Reduced-echelon basis of one graded piece, over a fixed column order:
    the columns are the labels given (indices, for a ring `schur` builds),
    kept as given and not copied, so they must not change."""

    def __init__(self, degree: int, columns: Sequence[Hashable]):
        self.degree = degree
        self.columns = columns
        # row i is _leads[i] at column _pivots[i] (increasing), _tails[i] over
        # the columns _free and zero at every other pivot
        self._pivots: list[int] = []
        self._leads: list[int] = []
        self._tails: list[list[int]] = []
        self._free = list(range(len(self.columns)))
        # the packed scaled tails of `contains_row`, built on its first call
        self._packed: tuple | None = None

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
        self._packed = None
        pos = bisect_left(self._pivots, pivot)
        self._pivots.insert(pos, pivot)
        self._leads.insert(pos, lead)
        self._tails.insert(pos, tail)
        return True

    def contains_vector(self, vec: Mapping[Hashable, int]) -> bool:
        """True when the vector reduces to zero against the basis."""
        return self.contains_row(self._to_int_row(vec))

    def _packed_tails(self, height: int) -> tuple[int, int, int, int, list[int]]:
        # With L the lcm of the leads and N_i = tail_i * L / lead_i, a row x
        # lies in the span exactly when L * x_free = sum_i x[p_i] * N_i.  Each
        # N_i is packed once into signed slots wide enough for rows of entries
        # up to the capacity (at least height); the packed rows are kept until
        # the next `add_row`.  Returns the capacity, the slot bytes, L, L times
        # the slot offset, and the packed N_i.
        if self._packed is None or self._packed[0] < height:
            scale = lcm(*self._leads)
            factors = [scale // lead for lead in self._leads]
            top = max((max(map(abs, t), default=0) * f for t, f in zip(self._tails, factors)), default=0)
            per = scale + len(factors) * top  # a slot of the check is at most height * per
            size = (max(height, 1) * per).bit_length() // 64 * 8 + 8
            offset = _unsigned([0] * len(self._free), size)
            packed = [(_unsigned(t, size) - offset) * f for t, f in zip(self._tails, factors)]
            self._packed = (((1 << 8 * size - 1) - 1) // per, size, scale, scale * offset, packed)
        return self._packed

    def contains_row(self, row: Sequence[int]) -> bool:
        """True when a dense integer row over the columns lies in the span,
        by one big-int multiply-add per pivot the row meets."""
        if len(row) != len(self.columns):
            raise ValueError(f"row of length {len(row)} against {len(self.columns)} columns")
        if not self._free:
            return True
        _, size, scale, shift, packed = self._packed_tails(max(map(abs, row)))
        x = shift - scale * _unsigned([row[j] for j in self._free], size)
        for p, n in zip(self._pivots, packed):
            if row[p]:
                x += row[p] * n
        return not x

    def basis_rows(self) -> list[dict[Hashable, int]]:
        """The stored primitive integer rows, in pivot order, as sparse {column: entry} mappings."""
        return [{self.columns[j]: a for j, a in terms if a} for terms in self.row_terms()]


def apply_map(
    terms: Iterable[tuple[int, int]], pieri_map: Sequence[tuple[int, Sequence[Sequence[int]]]], width: int
) -> list[int]:
    """Dense image over width columns of an integer row, given as (column,
    entry) pairs (`enumerate` of a dense row, or one of `Span.row_terms`),
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


def _monomials(parts: Sequence[int]) -> Callable[[int], list[tuple[int, ...]]]:
    """monomials(e): the monomials of degree e in generators of the given
    increasing degrees, as nondecreasing tuples of degrees, in lexicographic
    order.  The list of degree e is built on its first read, with every
    list below it not built yet, lowest first and without recursion: a
    monomial is its first part b followed by a monomial of degree e - b that
    starts at b or later."""
    table: list[list[tuple[int, ...]]] = [[()]]

    def monomials(e: int) -> list[tuple[int, ...]]:
        for f in range(len(table), e + 1):
            table.append([(b,) + t for b in parts if b <= f for t in table[f - b] if not t or t[0] >= b])
        return table[e]

    return monomials


class Ring:
    """What every build of one ring shares: columns[d], the columns of
    degree d, whose length is its width (`range(width)` in a ring `schur`
    builds; columns[0] is the unit alone); pieri_map(d, i), multiplication
    by the generator g_i from degree d - i to d in the format of
    `apply_map`; the saturation record `saturated`; and the rows of its
    monomials.  Every `generated` of one ring must take a prefix of one
    increasing sequence of generator degrees, so that its pieces only grow
    with the bound."""

    def __init__(self, columns: Sequence[Sequence[Hashable]], pieri_map: Callable[[int, int], Sequence]):
        self.columns = columns
        self.pieri_map = pieri_map
        # each degree, to the smallest bound of a build that proved it saturated
        self.saturated: dict[int, int] = {}
        self._rows: dict[tuple[int, ...], list[int]] = {(): [1]}

    def monomial_row(self, parts: tuple[int, ...]) -> list[int]:
        """The dense row of the product of g_i over the nondecreasing parts:
        g_(parts[0]) times the row of parts[1:].  Every suffix is a monomial
        too, so the rows are built up from the longest suffix kept, and each
        is kept for the life of the ring.  The row returned is the kept one:
        treat it as immutable."""
        rows = self._rows
        j = 0
        while parts[j:] not in rows:
            j += 1
        for j in range(j - 1, -1, -1):
            key = parts[j:]
            e = sum(key)
            rows[key] = apply_map(enumerate(rows[key[1:]]), self.pieri_map(e, key[0]), len(self.columns[e]))
        return rows[parts]


def _spanning_rows(
    ring: Ring, degrees: Sequence[int]
) -> Callable[[int, Callable[[int], Iterable]], Iterator[list[int]]]:
    """The walk of `generated`: rows(d, stored) lazily yields the dense
    spanning rows of degree d: g_(i_1) times each row of stored(d - i_1) (a
    basis of that degree, as (column, entry) pairs), then the ring's row of
    each monomial of `_monomials` in the other generators (the unit alone
    at d = 0).  A row is built only when it is pulled, so once `exact_rank`
    stops pulling, no row past that point is built."""
    monomials = _monomials(degrees[1:])

    def walk(d: int, stored: Callable[[int], Iterable]) -> Iterator[list[int]]:
        if degrees and degrees[0] <= d:
            step, width = ring.pieri_map(d, degrees[0]), len(ring.columns[d])
            for src in stored(d - degrees[0]):
                yield apply_map(src, step, width)
        yield from map(ring.monomial_row, monomials(d))

    return walk


def _rank_prime(width: int) -> int:
    """The prime of the rank pass over width columns: the largest residue
    prime, so that its residue carries the most bits into the fallback."""
    return next(_residue_primes(width))


def _reduced_echelon(d: int, columns: Sequence[Hashable], rows: Sequence[Sequence[int]],
                     packed: PackedRank | None = None) -> DegreeSlice:
    """The reduced echelon over Q of the rows, as a `DegreeSlice`, by the
    multimodular rule of the module docstring, from the rank pass if given."""
    width = len(columns)
    height = max((max(map(abs, row), default=0) for row in rows), default=0)
    primes = filter((packed.p if packed else 0).__ne__, _residue_primes(width))
    # the residues read the rows independent mod the rank prime until a check fails
    sources = packed.basis if packed else rows
    best, modulus, values, spent = None, 1, [], 0
    while True:
        if packed is None:
            packed = _packed_rank(sources, width, next(primes))
        pivots, entries = packed.reduced()
        q, key, packed = packed.p, (-len(pivots), pivots), None
        spent += q.bit_length()
        if best is None or key < best:
            best, modulus, values = key, q, entries
        elif key == best:
            inverse = pow(modulus, -1, q)
            values = [[c + modulus * ((y - c) * inverse % q) for c, y in zip(cs, ys)] for cs, ys in zip(values, entries)]
            modulus *= q
        fractions = _reconstructed(values, modulus) if key == best else None
        if fractions is not None:
            exact = DegreeSlice(d, columns)
            exact._pivots, (exact._leads, exact._tails) = list(pivots), fractions
            exact._free = sorted(set(range(width)).difference(pivots))
            exact._packed_tails(height)
            if all(map(exact.contains_row, rows)):
                return exact
        # Each entry and the running denominator are ratios of minors of the
        # rows, below the Hadamard bound (sqrt(width) * height)^rank, and the
        # primes that drop a residue divide one such minor, so correct
        # residues pass long before this many bits of primes are spent.  Past
        # it some residue is wrong: all are dropped, as they are when a check
        # fails on the rows independent mod the rank prime.
        limit = 4 * len(best[1]) * (height.bit_length() + width.bit_length()) + 64
        if fractions is not None and sources is not rows or spent > limit:
            sources, best, spent = rows, None, 0


class Span:
    """The span over Q of integer rows over the columns of degree d, as
    `exact_rank` settles it: its rank, a basis (`row_terms`) and pivots,
    columns on which that basis is nonsingular.  Its columns are those given,
    not copied: the ring's `range(width)` in a build.  A saturated span keeps
    no rows; one of independent rows keeps them until its first
    `contains_row`; one that fell back keeps the fallback `DegreeSlice`."""

    def __init__(self, degree: int, columns: Sequence[Hashable], rank: int, pivots: Sequence[int],
                 rows: Sequence[Sequence[int]] = (), exact: DegreeSlice | None = None):
        self.degree = degree
        self.columns = columns
        self.rank = rank
        self.pivots = pivots
        self.saturated = rank == len(columns)
        self._rows = rows
        self._exact = exact

    def row_terms(self) -> Iterator[Iterable[tuple[int, int]]]:
        """Each basis row as (column, entry) pairs."""
        rows, exact = self._rows, self._exact
        if exact is not None:
            return exact.row_terms()
        if self.saturated:
            return (((j, 1),) for j in self.pivots)
        return (enumerate(row) for row in rows)

    def contains_row(self, row: Sequence[int]) -> bool:
        """True when a dense integer row over the columns lies in the span:
        at once if the span is saturated, else by the exact check of the
        fallback slice, or of one built from the basis rows on the first
        call, which then replaces them."""
        if len(row) != len(self.columns):
            raise ValueError(f"row of length {len(row)} against {len(self.columns)} columns")
        if self.saturated:
            return True
        # the rows are read before the slice and dropped only after it is set,
        # so a call racing the first one sees the rows or the whole slice
        rows, exact = self._rows, self._exact
        if exact is None:
            exact = _reduced_echelon(self.degree, self.columns, rows)
            self._exact, self._rows = exact, ()
        return exact.contains_row(row)


def exact_rank(d: int, columns: Sequence[Hashable], rows: Iterable[Sequence[int]]) -> Span:
    """The `Span` of dense integer rows over the columns of degree d, by the
    rule of the module docstring.  Rows are pulled into a `PackedRank` mod
    the rank prime until its rank reaches the width; the fallback reads every row pulled
    (`_reduced_echelon`), starting from that rank pass."""
    width = len(columns)
    packed = PackedRank(width, _rank_prime(width))
    drawn = []
    if width:
        for row in rows:
            drawn.append(row)
            if packed.add_row(row) and packed.rank == width:
                break
    if packed.rank == width:
        return Span(d, columns, width, range(width))
    if packed.rank == len(drawn):
        return Span(d, columns, len(drawn), tuple(sorted(packed._pivots)), rows=drawn)
    exact = _reduced_echelon(d, columns, drawn, packed)
    return Span(d, columns, exact.rank, exact.pivots, exact=exact)


def generated(ring: Ring, degrees: Sequence[int]) -> Iterator[Span]:
    """The `Span` of each graded piece of the subalgebra A of the ring
    generated by one generator g_i in each degree i of the increasing
    degrees, degree 0 first.

    A monomial of degree d either factors out the smallest generator g_(i_1),
    and so lies in g_(i_1) A_(d-i_1), or is a monomial in the other
    generators alone.  So A_d is `exact_rank` of g_(i_1) times a basis of
    A_(d-i_1), then of those monomials (`_spanning_rows`).  Only the span of
    degree d - i_1 is kept for degree d.

    The bound of the build is degrees[-1] (0 for no degree).  A degree the
    ring's record holds at a bound no larger is saturated here too (module
    docstring), so it is yielded as the saturated `Span` without pulling a
    row, and the span of d - i_1 it would have read is dropped.  A degree
    this build proves saturated is recorded at its bound."""
    bound = degrees[-1] if degrees else 0
    rows = _spanning_rows(ring, degrees)
    spans: dict[int, Span] = {}
    for d, cols in enumerate(ring.columns):
        if ring.saturated.get(d, bound + 1) <= bound:
            if degrees:
                spans.pop(d - degrees[0], None)
            spans[d] = Span(d, cols, len(cols), range(len(cols)))
        else:
            spans[d] = exact_rank(d, cols, rows(d, lambda e: spans.pop(e).row_terms()))
            if spans[d].saturated:
                ring.saturated[d] = bound
        yield spans[d]
