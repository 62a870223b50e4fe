"""The Grassmannian cohomology quotient in Schur coordinates.

The quotient of the symmetric function ring kills the Schur terms whose
index leaves the ell x k box.  So a ring element is a SymVector supported in
the box, and a product is a Pieri product followed by projection.

Subalgebra pieces are built degree by degree, on integers alone.  The
partitions of each degree that fit the box are listed once, in a fixed
order; they are the columns.  Multiplication by h_i from degree d - i to d
is an in-box Pieri map, memoised per (ell, k, d, i).  For each source column
it lists the target columns its horizontal i-strips reach inside the box,
all with coefficient 1.  The maps are walked inside the box, never filtered.
A table per degree lists the single boxes each column can take without
leaving the box; that table is the h_1 map.  An h_i map adds i such boxes in
strictly increasing columns, so no partition outside the box is formed.  The
columns and maps of a box are one `echelon.Ring`, `_ring(ell, k)`, which
every build and report of the box shares.  The shared builder
`echelon.generated` pushes integer rows through these maps: h_1 times a
basis of degree d - 1, then the monomials of degree d in h_2..h_m, each
degree settled by `echelon.exact_rank`.  `subalgebra_hilbert` keeps the
ranks alone; `subalgebra_slices` keeps the `Span` of every degree for the
reports.

The candidate-basis reports use the same dense integer rows over the box
columns.  The Schur terms outside the box span an ideal (h_r times s_mu
only grows mu), so projecting to the box commutes with multiplication by
h_r.  The in-box row of h_lambda is the ring's row of the monomial of the
parts of lambda (`Ring.monomial_row`), the one the builds read.  The in-box
row of a k-Schur function follows its weak Pieri recursion: the h_r image
of the row of nu minus the rows of the other targets, memoised per box.  No
candidate is expanded over the Schur terms outside the box.

A report settles each degree d against the `Span` of A_d.
- contained: the exact `Span.contains_row` of every candidate, true at once
  where A_d is all of H_d.
- rank: `echelon.exact_rank` of the candidate rows, which runs an exact
  echelon only where the rank mod P cannot settle it.  Once the candidates
  lie in A_d, their rows are cut to the pivots of A_d, columns on which its
  basis is nonsingular.  A vector of A_d is fixed by those entries, so the
  rank is unchanged, and where the candidates span A_d the rank mod P
  reaches the width of the cut.  Where they do not lie in A_d, every column
  is kept.
- dim is the rank of A_d.

The reference is `project` over `h_to_schur` and `k_schur`: a SymVector
expansion cut down to the box, whose membership in an exact `DegreeSlice`
of a graded piece `contains_vector` tests.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import Iterator, NamedTuple

from .echelon import Ring, Span, apply_map, exact_rank, generated
from .kschur import _weak_pieri_step
from .partitions import Partition, candidate_partitions, partitions_in_box_of_size
from .qseries import QPoly
from .schur import SymVector


def project(v: SymVector, ell: int, k: int) -> SymVector:
    """Drop every Schur term whose index does not fit the ell x k box."""
    return SymVector._wrap({p: c for p, c in v.items() if p.fits(ell, k)})


@cache
def _box_columns(ell: int, k: int, d: int) -> tuple[tuple[Partition, ...], dict[tuple[int, ...], int]]:
    """The partitions of d in the ell x k box, and the index of each by its parts."""
    cols = tuple(partitions_in_box_of_size(ell, k, d))
    return cols, {p.parts: j for j, p in enumerate(cols)}


@cache
def _box_additions(ell: int, k: int, d: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Single boxes added inside the box, from degree d - 1 to degree d: for
    each source column, the target columns, and in parallel the (1-based)
    column of each added box.  Row r grows when it is shorter than the row
    above it (row 0 when shorter than k), and a new row starts while there
    are fewer than ell."""
    index = _box_columns(ell, k, d)[1]
    targets, boxes = [], []
    for lam in _box_columns(ell, k, d - 1)[0]:
        parts = lam.parts
        base = parts + (0,)
        above = k
        to, at = [], []
        for r in range(min(len(parts) + 1, ell)):
            v = base[r]
            if v < above:
                to.append(index[parts[:r] + (v + 1,) + parts[r + 1:]])
                at.append(v + 1)
            above = v
        targets.append(tuple(to))
        boxes.append(tuple(at))
    return tuple(targets), tuple(boxes)


@cache
def _pieri_map(ell: int, k: int, d: int, i: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """In-box h_i Pieri map from degree d - i to degree d: for each source
    column, the indices of the target columns it reaches, all with
    coefficient 1.  h_1 shares the single-box table of degree d; h_i walks
    the tables of degrees d - i + 1..d."""
    if i == 1:
        return ((1, _box_additions(ell, k, d)[0]),)
    # a horizontal i-strip is i single boxes added in strictly increasing
    # columns, and every shape on the way is an in-box partition (a strip box
    # never sits below another); so each in-box strip is reached exactly once
    tables = [_box_additions(ell, k, e) for e in range(d - i + 1, d + 1)]
    out = []
    for j in range(len(_box_columns(ell, k, d - i)[0])):
        reach = [(j, 0)]
        for targets, boxes in tables:
            reach = [(u, c) for t, last in reach for u, c in zip(targets[t], boxes[t]) if c > last]
        out.append(tuple(u for u, _ in reach))
    return ((1, tuple(out)),)


@cache
def _ring(ell: int, k: int) -> Ring:
    """The box as an `echelon.Ring`: its columns and in-box Pieri maps, and
    the saturation record and monomial rows that every build and report of
    the box shares."""
    columns = [_box_columns(ell, k, d)[0] for d in range(ell * k + 1)]
    return Ring(columns, lambda d, i: _pieri_map(ell, k, d, i))


def _generated(ell: int, k: int, m: int) -> Iterator[Span]:
    """The spans of the subalgebra generated by h_1..h_m, through `echelon.generated`."""
    if ell < 0 or k < 0 or m < 0:
        raise ValueError(f"need ell, k, m >= 0, got ell={ell}, k={k}, m={m}")
    return generated(_ring(ell, k), range(1, m + 1))


@cache
def _slice_data(ell: int, k: int, m: int) -> tuple[Span, ...]:
    return tuple(_generated(ell, k, m))


@cache
def _rank_data(ell: int, k: int, m: int) -> tuple[int, ...]:
    # `map` keeps no span alive while the next degree is built, so a span's rows
    # go as soon as the walk has read them
    return tuple(map(attrgetter("rank"), _generated(ell, k, m)))


def subalgebra_slices(ell: int, k: int, m: int) -> tuple[Span, ...]:
    """The `Span` of every graded piece of the subalgebra generated in
    degrees at most m.  Treat the returned spans as immutable."""
    return _slice_data(ell, k, m)


def subalgebra_hilbert(ell: int, k: int, m: int) -> QPoly:
    """Hilbert series of the subalgebra generated in degrees at most m, from
    the ranks alone."""
    return QPoly(dict(enumerate(_rank_data(ell, k, m))))


class BasisDegree(NamedTuple):
    degree: int
    candidates: int
    rank: int
    dim: int
    independent: bool
    spans: bool
    contained: bool

    @property
    def ok(self) -> bool:
        return self.independent and self.spans and self.contained


class BasisReport(NamedTuple):
    """Per-degree rank data for a candidate basis of a filtered subalgebra.

    Raw ranks are always listed so that a failing degree documents itself.
    """

    ell: int
    k: int
    m: int
    degrees: tuple[BasisDegree, ...]

    @property
    def verdict(self) -> bool:
        return all(e.ok for e in self.degrees)


@cache
def _k_schur_row(ell: int, k: int, parts: tuple[int, ...], level: int) -> tuple[int, ...]:
    """In-box row of the k-Schur function of parts at the given level: the
    h_r image of the row of nu minus the rows of the other weak Pieri targets
    (`kschur._weak_pieri_step`).  The targets need not fit the box."""
    if not parts:
        return (1,)
    r, nu, others = _weak_pieri_step(parts, level)
    d = sum(parts)
    width = len(_box_columns(ell, k, d)[0])
    row = apply_map(enumerate(_k_schur_row(ell, k, nu, level)), _pieri_map(ell, k, d, r), width)
    for mu in others:
        row = [a - b for a, b in zip(row, _k_schur_row(ell, k, mu, level))]
    return tuple(row)


def _basis_report(ell: int, k: int, m: int, row_of) -> BasisReport:
    """Rank checks of the candidates against the subalgebra pieces; row_of
    gives a candidate's dense integer row over the box columns of its degree.
    The module docstring says how each degree is settled."""
    if not (1 <= m <= min(ell, k)):
        raise ValueError(f"need 1 <= m <= min(ell, k), got ell={ell}, k={k}, m={m}")
    by_degree: dict[int, list[Partition]] = {d: [] for d in range(ell * k + 1)}
    for lam in candidate_partitions(ell, k, m):
        by_degree[lam.size].append(lam)
    entries = []
    for d, span in enumerate(subalgebra_slices(ell, k, m)):
        rows = [row_of(lam) for lam in by_degree[d]]
        contained = all(span.contains_row(row) for row in rows)
        cut = span.pivots if contained else range(len(span.columns))
        rank = exact_rank(d, [span.columns[j] for j in cut], ([row[j] for j in cut] for row in rows)).rank
        entries.append(
            BasisDegree(
                degree=d,
                candidates=len(rows),
                rank=rank,
                dim=span.rank,
                independent=rank == len(rows),
                spans=rank == span.rank,
                contained=contained,
            )
        )
    return BasisReport(ell=ell, k=k, m=m, degrees=tuple(entries))


def h_basis_report(ell: int, k: int, m: int) -> BasisReport:
    """Rank checks for the candidate basis of complete homogeneous products
    indexed by partitions with first part at most m and in-box k-conjugate."""
    return _basis_report(ell, k, m, lambda lam: _ring(ell, k).monomial_row(lam.parts[::-1]))


def kschur_basis_report(ell: int, k: int, m: int) -> BasisReport:
    """Rank checks for the candidate basis of k-Schur functions, each taken at
    the level given by its own first part."""
    return _basis_report(ell, k, m, lambda lam: _k_schur_row(ell, k, lam.parts, lam.first))
