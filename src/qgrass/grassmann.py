"""The Grassmannian cohomology quotient in Schur coordinates.

The quotient of the symmetric function ring kills the Schur terms whose
index leaves the ell x k box.  So a ring element is a SymVector supported in
the box, and a product is a Pieri product followed by projection.

Subalgebra pieces are built degree by degree, on integers alone.  The box
is the bounds (k, ell, 0) of `schur`: at most ell parts, each at most k,
weakly decreasing.  It is one `echelon.Ring`, `schur._ring(k, ell, 0)`,
which every build and report of the box shares: the width of each degree
(the box partitions of that degree, enumerated once, in a fixed order, and
kept as indices: nothing reads a column's partition), the in-box Pieri
maps, read from one single-box table per degree, the saturation record and
the monomial rows.  The map of h_i from degree d - i to d,
`schur._pieri_map(k, ell, 0, d, i)`, lists for each source column the
target columns its horizontal i-strips reach inside the box, all with
coefficient 1: h_1 is the single-box table of degree d, and h_i keeps the
targets of the strips that `schur._strips` walks, never filtered.  The
shared builder `echelon.generated` pushes integer rows through these maps:
h_1 times a basis of degree d - 1, then the monomials of degree d in
h_2..h_m (none past h_k, whose maps are empty), each degree settled by
`echelon.exact_rank`.  `subalgebra_hilbert` keeps the ranks alone and
rebuilds them per call; `subalgebra_slices` keeps the `Span` of every degree
for the reports.

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
- rank: `echelon.exact_rank` of the candidate rows over the width of the
  cut below, which runs an exact echelon only where the rank mod P cannot
  settle it.  Once the candidates lie in A_d, their rows are cut to the
  pivots of A_d, columns on which its basis is nonsingular.  A vector of A_d
  is fixed by those entries, so the rank is unchanged, and where the
  candidates span A_d the rank mod P reaches the width of the cut.  Where
  they do not lie in A_d, every column is kept.
- dim is the rank of A_d.

The reference is `project` over `h_to_schur` and `k_schur`: a SymVector
expansion cut down to the box, whose membership in an exact `DegreeSlice`
of a graded piece `contains_vector` tests.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import Iterator, NamedTuple

from .echelon import Span, apply_map, exact_rank, generated
from .kschur import _weak_pieri_step
from .partitions import Partition, candidate_partitions
from .qseries import QPoly
from .schur import SymVector, _ring


def project(v: SymVector, ell: int, k: int) -> SymVector:
    """Drop every Schur term whose index does not fit the ell x k box."""
    return SymVector._wrap({p: c for p, c in v.items() if p.fits(ell, k)})


def _generated(ell: int, k: int, m: int) -> Iterator[Span]:
    """The spans of the subalgebra generated by h_1..h_m, through
    `echelon.generated`.  Past h_k the in-box Pieri maps are empty (a
    horizontal strip of more than k boxes leaves the box), so the build stops
    at h_min(m, k)."""
    if ell < 0 or k < 0 or m < 0:
        raise ValueError(f"need ell, k, m >= 0, got ell={ell}, k={k}, m={m}")
    return generated(_ring(k, ell, 0), range(1, min(m, k) + 1))


@cache
def _slice_data(ell: int, k: int, m: int) -> tuple[Span, ...]:
    return tuple(_generated(ell, k, m))


def subalgebra_slices(ell: int, k: int, m: int) -> tuple[Span, ...]:
    """The `Span` of every graded piece of the subalgebra generated in
    degrees at most m.  The columns of degree d index the box partitions of
    d in the order `partitions._decreasing_tuples` lists them.  Treat the
    returned spans as immutable."""
    return _slice_data(ell, k, m)


def subalgebra_hilbert(ell: int, k: int, m: int) -> QPoly:
    """Hilbert series of the subalgebra generated in degrees at most m, from
    the ranks alone, built per call: `map` keeps no span alive while the next
    degree is built, so a span's rows go as soon as the walk has read them."""
    return QPoly(dict(enumerate(map(attrgetter("rank"), _generated(ell, k, m)))))


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
    d, ring = sum(parts), _ring(k, ell, 0)
    row = apply_map(enumerate(_k_schur_row(ell, k, nu, level)), ring.pieri_map(d, r), len(ring.columns[d]))
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
        rank = exact_rank(d, range(len(cut)), ([row[j] for j in cut] for row in rows)).rank
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
    return _basis_report(ell, k, m, lambda lam: _ring(k, ell, 0).monomial_row(lam.parts[::-1]))


def kschur_basis_report(ell: int, k: int, m: int) -> BasisReport:
    """Rank checks for the candidate basis of k-Schur functions, each taken at
    the level given by its own first part."""
    return _basis_report(ell, k, m, lambda lam: _k_schur_row(ell, k, lam.parts, lam.first))
