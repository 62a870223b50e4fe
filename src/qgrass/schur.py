"""Symmetric functions in Schur coordinates: the h Pieri product.

The Schur basis is the only stored basis; complete homogeneous symmetric
functions enter only as a multiplication operator and expansions.

Both cohomology rings multiply by horizontal strips, on partitions bounded
by (cap, rows, gap): at most rows parts, each at most cap and at least gap
below the one above.  The Grassmannian box ell x k is (k, ell, 0), and the
Lagrangian order n, strict partitions with parts at most n, is (n, n, 1).
Their Pieri maps are walked here, never searched.  The columns of degree d
are listed once per (cap, rows, gap, d), by `partitions._decreasing_tuples`.
A table per degree lists the single boxes each column can take: row r takes
one while its new part stays at least gap below the part of the row above
(cap + gap above row 0), so every target stays in bounds.  A strip of i
boxes is i such boxes added to every source at once, rows top to bottom
and each row left to right, so every shape on the way is in bounds (in
increasing columns, the strict (2, 1) would reach (3, 2) only through
(2, 2)).  A partial strip carries the row of its last box, that row's old
part and that row's bound.  A box may continue that row while its new part
is at most the bound, or start a lower row, bound by the last row's old
part (cap + gap for the first box).  That is the strip's bound for the next
row down; a row further down sits under an untouched row, below which the
table already keeps it, and whose part is at most that bound, so the bound
never binds it.  Each strip is reached once, in this order.

Each strip also carries the exponent a(lambda, mu) + l(lambda) - l(mu) of
its Lagrangian Pieri coefficient (see `lagrangian`), where a counts the
columns c in which mu/lambda has a box and column c + 1 has none.  It gains
1 for each row started, loses 1 when a box lands on its bound (its run of
columns joins the one above) and loses 1 when a box starts a row that was
empty.  The box ring reads no exponent.

Both rings are built here, once per bounds: `_pieri_map` groups the walked
strips by coefficient (1 in the box, 2^exponent in the order), and `_ring`
is the `echelon.Ring` of the columns and maps of every degree, which every
build and report of the ring shares.  The box's h_1 map is its single-box
table itself.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from typing import TYPE_CHECKING, Iterator

from .partitions import Partition, _decreasing_tuples
from .qseries import IntCombination

if TYPE_CHECKING:
    from .echelon import Ring


def _order_key(p: Partition):
    # increasing size, then lexicographically decreasing parts
    return (p.size, tuple(-v for v in p.parts))


class SymVector(IntCombination):
    """Integer linear combination of basis elements indexed by partitions:
    Schur functions here, square-free e-monomials in `lagrangian`."""

    __slots__ = ()

    @staticmethod
    def _check_key(p) -> None:
        if not isinstance(p, Partition):
            raise TypeError(f"SymVector keys must be partitions, got {p!r}")

    @classmethod
    def unit(cls) -> "SymVector":
        return cls._wrap({Partition(): 1})

    @classmethod
    def schur(cls, lam: Partition) -> "SymVector":
        return cls._wrap({lam: 1})

    def support(self) -> list[Partition]:
        return sorted(self._c, key=_order_key)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __repr__(self) -> str:
        if not self._c:
            return "SymVector(0)"
        return "SymVector(" + " + ".join(f"{self._c[p]}*s({p})" for p in self.support()) + ")"

    def to_json_obj(self) -> list[dict[str, str]]:
        return [{"partition": str(p), "coeff": str(self._c[p])} for p in self.support()]


@cache
def _horizontal_strips(parts: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """All mu containing parts with mu/parts a horizontal r-strip (the
    interlacing condition mu[i+1] <= parts[i] <= mu[i]), in lexicographically
    decreasing order."""
    base = parts + (0,)
    # the rows that can grow, each by at most its room: row 0 freely, row j
    # up to the part above it, the new row included
    grow = [(0, r)] + [(j, min(r, base[j - 1] - base[j])) for j in range(1, len(base))]
    grow = [(j, cap) for j, cap in grow if cap > 0]
    room = [0] * (len(grow) + 1)  # room[t]: cells the rows grow[t:] can take
    for t in range(len(grow) - 1, -1, -1):
        room[t] = room[t + 1] + grow[t][1]
    if r > room[0]:
        return ()
    mu = list(base)
    out: list[tuple[int, ...]] = []

    def build(t: int, remaining: int):
        if remaining == 0:
            strip = tuple(mu)
            out.append(strip if strip[-1] else strip[:-1])
            return
        j, cap = grow[t]
        for x in range(min(cap, remaining), max(0, remaining - room[t + 1]) - 1, -1):
            mu[j] += x
            build(t + 1, remaining - x)
            mu[j] -= x

    build(0, r)
    return tuple(out)


def pieri_h(r: int, v: SymVector) -> SymVector:
    """Multiply by the complete homogeneous generator of degree r: each Schur
    term grows by every horizontal r-strip."""
    if r < 1:
        raise ValueError(f"pieri_h needs r >= 1, got {r}")
    data: dict[tuple[int, ...], int] = {}
    for lam, c in v.items():
        for mu in _horizontal_strips(lam.parts, r):
            data[mu] = data.get(mu, 0) + c
    return SymVector._wrap({Partition._wrap(mu): c for mu, c in data.items()})


@cache
def _h_to_schur(parts: tuple[int, ...]) -> SymVector:
    if not parts:
        return SymVector.unit()
    return pieri_h(parts[0], _h_to_schur(parts[1:]))


def h_to_schur(lam: Partition) -> SymVector:
    """Schur expansion of the product of complete homogeneous generators
    indexed by the parts of lam; all coefficients are Kostka numbers."""
    return _h_to_schur(lam.parts)


@cache
def _columns(cap: int, rows: int, gap: int, d: int) -> tuple[tuple[Partition, ...], dict[tuple[int, ...], int]]:
    """The partitions of d bounded by (cap, rows, gap), and the index of each by its parts."""
    cols = tuple(map(Partition._wrap, _decreasing_tuples(cap, rows, d, gap)))
    return cols, {p.parts: j for j, p in enumerate(cols)}


# one copy of each (row, new part) pair, for every single-box table
_BOXES: dict[tuple[int, int], tuple[int, int]] = {}


@cache
def _single_boxes(
    cap: int, rows: int, gap: int, d: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """Single boxes added within (cap, rows, gap), from degree d - 1 to
    degree d: for each source column, the target columns, and in parallel
    the (row, new part) of each box, rows increasing, one copy of each pair
    shared by every table."""
    index = _columns(cap, rows, gap, d)[1]
    targets, marks = [], []
    for lam in _columns(cap, rows, gap, d - 1)[0]:
        parts = lam.parts
        above = cap + gap
        to, at = [], []
        for r in range(min(len(parts) + 1, rows)):
            v = parts[r] if r < len(parts) else 0
            if v + gap < above:
                to.append(index[parts[:r] + (v + 1,) + parts[r + 1:]])
                box = (r, v + 1)
                at.append(_BOXES.setdefault(box, box))
            above = v
        targets.append(tuple(to))
        marks.append(tuple(at))
    return tuple(targets), tuple(marks)


def _strips(cap: int, rows: int, gap: int, d: int, i: int) -> list[tuple[int, int, int, int, int, int]]:
    """Every horizontal i-strip within (cap, rows, gap) from degree d - i to
    degree d, walked through the single-box tables of degrees d - i + 1..d
    (see the module docstring), as (source column, target column, row of
    its last box, that row's old part, that row's bound, exponent)."""
    top = cap + gap
    # a partial strip has the fields of a finished one, with its current
    # column as the target; it starts in a virtual row -1 of part cap + gap
    strips = [(j, j, -1, top, top, 0) for j in range(len(_columns(cap, rows, gap, d - i)[0]))]
    for e in range(d - i + 1, d + 1):
        targets, marks = _single_boxes(cap, rows, gap, e)
        grown = []
        push = grown.append
        for src, col, row, old, bound, exp in strips:
            for t, (r, p) in zip(targets[col], marks[col]):
                if r == row:
                    # the row goes on; landing on its bound joins the run above
                    if p <= bound:
                        push((src, t, r, old, bound, exp - (p == bound)))
                elif r > row and p <= old:
                    # a lower row starts, bound by the last row's old part: a
                    # run of its own unless it lands there, and a row that was
                    # empty takes a factor 2 off
                    push((src, t, r, p - 1, old, exp + 1 - (p == old) - (p == 1)))
        strips = grown
    return strips


@cache
def _pieri_map(cap: int, rows: int, gap: int, d: int, i: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Multiplication by the degree-i generator within (cap, rows, gap), from
    degree d - i to degree d, in the format of `echelon.apply_map`: for each
    coefficient, the target columns of each source column.  The strips that
    `_strips` walks are grouped by coefficient: 1 in the box (gap 0), and
    2^exponent in the order (gap 1).  In the box, h_1 is the single-box
    table of degree d itself."""
    if i == 1 and not gap:
        return ((1, _single_boxes(cap, rows, gap, d)[0]),)
    width = len(_columns(cap, rows, gap, d - i)[0])
    groups: defaultdict[int, list[list[int]]] = defaultdict(lambda: [[] for _ in range(width)])
    for src, t, _, _, _, exp in _strips(cap, rows, gap, d, i):
        # grouped by exponent; the box reads none, so its strips all take 1
        groups[exp * gap][src].append(t)
    return tuple((1 << e, tuple(map(tuple, groups[e]))) for e in sorted(groups))


@cache
def _ring(cap: int, rows: int, gap: int) -> Ring:
    """The partitions bounded by (cap, rows, gap) as an `echelon.Ring`: their
    columns and Pieri maps, and the saturation record and monomial rows that
    every build and report of the ring shares."""
    # imported here, so that loading `schur` (as `kschur` does) loads no echelon
    from .echelon import Ring

    top = sum(max(cap - gap * r, 0) for r in range(rows))
    columns = [_columns(cap, rows, gap, d)[0] for d in range(top + 1)]
    return Ring(columns, lambda d, i: _pieri_map(cap, rows, gap, d, i))
