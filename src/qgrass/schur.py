"""Symmetric functions in Schur coordinates: the h Pieri product and the involution omega.

The Schur basis is the only stored basis; complete homogeneous symmetric
functions enter only as a multiplication operator and expansions.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .partitions import Partition
from .qseries import IntCombination


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


def omega(v: SymVector) -> SymVector:
    """Fundamental involution: transpose every Schur index, coefficients unchanged."""
    return SymVector._wrap({p.conjugate(): c for p, c in v.items()})
