"""The Grassmannian cohomology quotient in Schur coordinates.

The quotient of the symmetric function ring kills exactly the Schur terms
whose index leaves the ell x k box, so ring elements are SymVectors supported
in the box and multiplication is a Pieri product followed by projection.

Subalgebra graded pieces are built degree by degree on integers alone.  The
partitions of each degree that fit the box are listed once, in a fixed
order.  Multiplication by h_i from degree d - i to degree d is memoised per
(ell, k, d, i) as an in-box Pieri map: for each source column, the indices of
the target columns its horizontal i-strips reach inside the box (strips that
leave the box are never generated), all with coefficient 1.  The shared
builder `echelon.generated_slices` pushes each integer echelon row of degree
d - i through that map into a dense integer row of degree d and inserts it
into the degree-d echelon as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .echelon import DegreeSlice, generated_slices
from .kschur import k_schur
from .partitions import Partition, candidate_partitions, partitions_in_box_of_size
from .qseries import QPoly
from .schur import SymVector, _horizontal_strips, h_to_schur


def project(v: SymVector, ell: int, k: int) -> SymVector:
    """Drop every Schur term whose index does not fit the ell x k box."""
    out = SymVector.__new__(SymVector)
    out._terms = {p: c for p, c in v.items() if p.fits(ell, k)}
    return out


@cache
def _box_columns(ell: int, k: int, d: int) -> tuple[tuple[Partition, ...], dict[tuple[int, ...], int]]:
    """The partitions of d in the ell x k box, and the index of each by its parts."""
    cols = tuple(partitions_in_box_of_size(ell, k, d))
    return cols, {p.parts: j for j, p in enumerate(cols)}


@cache
def _pieri_map(ell: int, k: int, d: int, i: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """In-box h_i Pieri map from degree d - i to degree d: for each source
    column, the indices of the target columns it reaches, all with
    coefficient 1."""
    index = _box_columns(ell, k, d)[1]
    # the map is the memo; the box-bounded strips behind it are not kept
    return ((1, tuple(
        tuple(index[mu] for mu in _horizontal_strips.__wrapped__(lam.parts, i, ell, k))
        for lam in _box_columns(ell, k, d - i)[0]
    )),)


@cache
def _slice_data(ell: int, k: int, m: int) -> tuple[DegreeSlice, ...]:
    columns = [_box_columns(ell, k, d)[0] for d in range(ell * k + 1)]
    return generated_slices(columns, lambda d, i: _pieri_map(ell, k, d, i), m)


def subalgebra_slices(ell: int, k: int, m: int) -> tuple[DegreeSlice, ...]:
    """Echelon bases of every graded piece of the subalgebra generated in
    degrees at most m.  Treat the returned slices as immutable."""
    if ell < 0 or k < 0 or m < 0:
        raise ValueError(f"need ell, k, m >= 0, got ell={ell}, k={k}, m={m}")
    return _slice_data(ell, k, m)


def subalgebra_hilbert(ell: int, k: int, m: int) -> QPoly:
    """Hilbert series of the subalgebra generated in degrees at most m."""
    slices = subalgebra_slices(ell, k, m)
    return QPoly({sl.degree: sl.rank for sl in slices})


def contains(slice_: DegreeSlice, v: SymVector) -> bool:
    """Membership of a homogeneous, already-projected vector in a graded piece."""
    if v.is_zero:
        return True
    degrees = {p.size for p in v}
    if degrees != {slice_.degree}:
        raise ValueError(f"vector of degrees {sorted(degrees)} against slice of degree {slice_.degree}")
    return slice_.contains_vector(dict(v.items()))


@dataclass(frozen=True)
class BasisDegree:
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


@dataclass(frozen=True)
class BasisReport:
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

    def to_json_obj(self) -> dict:
        return {
            "ell": self.ell,
            "k": self.k,
            "m": self.m,
            "degrees": [
                {
                    "d": e.degree,
                    "candidates": e.candidates,
                    "rank": e.rank,
                    "dim": e.dim,
                    "independent": e.independent,
                    "spans": e.spans,
                    "contained": e.contained,
                }
                for e in self.degrees
            ],
            "verdict": self.verdict,
        }


def _basis_report(ell: int, k: int, m: int, vector_of) -> BasisReport:
    if not (1 <= m <= min(ell, k)):
        raise ValueError(f"need 1 <= m <= min(ell, k), got ell={ell}, k={k}, m={m}")
    slices = subalgebra_slices(ell, k, m)
    by_degree: dict[int, list[Partition]] = {d: [] for d in range(ell * k + 1)}
    for lam in candidate_partitions(ell, k, m):
        by_degree[lam.size].append(lam)
    entries = []
    for d in range(ell * k + 1):
        sl = slices[d]
        vectors = [vector_of(lam) for lam in by_degree[d]]
        probe = DegreeSlice(d, sl.columns)
        for vec in vectors:
            if not vec.is_zero:
                probe.add_vector(dict(vec.items()))
        rank = probe.rank
        contained = all(contains(sl, vec) for vec in vectors)
        entries.append(
            BasisDegree(
                degree=d,
                candidates=len(vectors),
                rank=rank,
                dim=sl.rank,
                independent=rank == len(vectors),
                spans=rank == sl.rank,
                contained=contained,
            )
        )
    return BasisReport(ell=ell, k=k, m=m, degrees=tuple(entries))


def h_basis_report(ell: int, k: int, m: int) -> BasisReport:
    """Rank checks for the candidate basis of complete homogeneous products
    indexed by partitions with first part at most m and in-box k-conjugate."""
    return _basis_report(ell, k, m, lambda lam: project(h_to_schur(lam), ell, k))


def kschur_basis_report(ell: int, k: int, m: int) -> BasisReport:
    """Rank checks for the candidate basis of k-Schur functions, each taken at
    the level given by its own first part."""
    return _basis_report(ell, k, m, lambda lam: project(k_schur(lam, lam.first), ell, k))
