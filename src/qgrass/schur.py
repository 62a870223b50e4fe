"""Symmetric functions in Schur coordinates: the h Pieri product and the involution omega.

The Schur basis is the only stored basis; complete homogeneous symmetric
functions enter only as a multiplication operator and expansions.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, Mapping

from .partitions import Partition


def _order_key(p: Partition):
    # increasing size, then lexicographically decreasing parts
    return (p.size, tuple(-v for v in p.parts))


class SymVector:
    """Finite integer linear combination of basis elements indexed by
    partitions: Schur functions here, square-free e-monomials in `lagrangian`.
    Every coefficient is an int; any other coefficient raises TypeError."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Partition, int] | None = None):
        data: dict[Partition, int] = {}
        if terms:
            for p, c in terms.items():
                if type(c) is not int:
                    raise TypeError(f"SymVector coefficients must be ints, got {c!r}")
                if c:
                    if not isinstance(p, Partition):
                        raise TypeError(f"SymVector keys must be partitions, got {p!r}")
                    data[p] = c
        self._terms = data

    @classmethod
    def zero(cls) -> "SymVector":
        return cls()

    @classmethod
    def unit(cls) -> "SymVector":
        return cls._wrap({Partition(): 1})

    @classmethod
    def schur(cls, lam: Partition) -> "SymVector":
        return cls._wrap({lam: 1})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, lam: Partition) -> int:
        return self._terms.get(lam, 0)

    def items(self):
        return self._terms.items()

    def support(self) -> list[Partition]:
        return sorted(self._terms, key=_order_key)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @classmethod
    def _wrap(cls, terms: dict[Partition, int]) -> "SymVector":
        # a finished dict: partition keys, nonzero int coefficients
        out = cls.__new__(cls)
        out._terms = terms
        return out

    def __add__(self, other: "SymVector") -> "SymVector":
        data = dict(self._terms)
        for p, c in other._terms.items():
            new = data.get(p, 0) + c
            if new:
                data[p] = new
            else:
                data.pop(p, None)
        return SymVector._wrap(data)

    def __sub__(self, other: "SymVector") -> "SymVector":
        return self + other.scale(-1)

    def scale(self, c: int) -> "SymVector":
        if type(c) is not int:
            raise TypeError(f"SymVector coefficients must be ints, got {c!r}")
        if not c:
            return SymVector.zero()
        return SymVector._wrap({p: v * c for p, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, SymVector) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "SymVector(0)"
        bits = [f"{c}*s({p})" for p, c in sorted(self._terms.items(), key=lambda t: _order_key(t[0]))]
        return "SymVector(" + " + ".join(bits) + ")"

    def to_json_obj(self) -> list[dict[str, str]]:
        return [
            {"partition": str(p), "coeff": str(c)}
            for p, c in sorted(self._terms.items(), key=lambda t: _order_key(t[0]))
        ]


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
    data: dict[Partition, int] = {}
    for lam, c in v.items():
        for mu in _horizontal_strips(lam.parts, r):
            key = Partition(mu, check=False)
            new = data.get(key, 0) + c
            if new:
                data[key] = new
            else:
                data.pop(key, None)
    return SymVector._wrap(data)


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
