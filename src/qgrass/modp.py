"""Arithmetic mod primes below 2^30 for `echelon`: the packed echelon mod a
prime, the primes of its multimodular fallback, and rational
reconstruction.

A `PackedRank` holds an echelon mod a prime p over width columns, each row
one int with a 64-bit slot per column, and reduces a row by one big-int
multiply-add per pivot: width * p^2 + p < 2^64 keeps every slot from
carrying into the next.  The residue primes are the largest primes that
bound admits, found by Miller-Rabin on first use, not at import.  A module
of its own, so that no one module `echelon` loads is large to compile.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from math import gcd, isqrt
from struct import Struct
from typing import Iterable, Iterator, Sequence

_MASK = (1 << 64) - 1
_MARGIN = 8  # bits a reconstructed entry must leave spare in the modulus


def _is_prime(q: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, which decide every odd
    11 <= q < 3,215,031,751."""
    s = ((q - 1) & (1 - q)).bit_length() - 1
    for a in (2, 3, 5, 7):
        x = pow(a, (q - 1) >> s, q)
        if x != 1:
            for _ in range(s):
                if x == q - 1:
                    break
                x = x * x % q
            else:
                return False
    return True


_PRIMES: dict[int, list[int]] = {}  # the primes of `_residue_primes`, by bit length of the width


def _residue_primes(width: int) -> Iterator[int]:
    """The primes q < 2^30 with 2^b * q^2 + q < 2^64, b the bit length of
    the width (so a `PackedRank` over width columns holds them), largest
    first.  Each is found on its first use and kept for the process."""
    b = width.bit_length()
    found = _PRIMES.setdefault(b, [])
    for i in count():
        if i == len(found):
            q = (found[-1] if found else min(1 << 30, isqrt((1 << 64 - b) - 1)) | 1) - 2
            while not _is_prime(q):
                q -= 2
            found.append(q)
        yield found[i]


class PackedRank:
    """Row echelon mod a prime p over width columns.  A stored row is one int
    with a 64-bit slot per column, column j at bits 64j..64j+63: entries in
    [0, p), 0 at the pivots stored before it, kept with minus the inverse of
    its lead."""

    def __init__(self, width: int, p: int):
        # reducing a row adds at most width multiples (< p) of stored rows
        # (entries < p) to entries < p, so every slot stays below
        # width * p^2 + p and no slot carries into the next
        if width * p * p + p >= 1 << 64:
            raise OverflowError(f"{width} columns mod {p} can carry out of a 64-bit slot")
        self.width, self.p = width, p
        self._slots = Struct(f"<{width}Q")
        self._pivots: list[int] = []
        # per stored row: the bit offset of its pivot, -1 / lead mod p, the row
        self._stored: list[tuple[int, int, int]] = []
        self.basis: list[Sequence[int]] = []  # the rows inserted that enlarged the span

    def _pack(self, entries: Sequence[int]) -> int:
        return int.from_bytes(self._slots.pack(*entries), "little")

    def _entries(self, x: int) -> tuple[int, ...]:
        return self._slots.unpack(x.to_bytes(8 * self.width, "little"))

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row: Sequence[int]) -> bool:
        """Insert a dense integer row; True when it enlarges the span mod p."""
        p = self.p
        x = self._pack([a % p for a in row])
        for shift, factor, stored in self._stored:
            v = (x >> shift & _MASK) % p
            if v:
                x += v * factor % p * stored
        entries = [a % p for a in self._entries(x)]
        lead = next(filter(None, entries), 0)
        if not lead:
            return False
        j = entries.index(lead)
        self._pivots.append(j)
        self._stored.append((64 * j, p - pow(lead, -1, p), self._pack(entries)))
        self.basis.append(row)
        return True

    def reduced(self) -> tuple[tuple[int, ...], list[list[int]]]:
        """The reduced echelon mod p of the rows inserted: its pivots,
        increasing, and each row's entries over the other columns, in pivot
        order.  A stored row is zero at the pivots stored before it, so each,
        latest first, is cleared at the pivots stored after it, by rows zero
        at every other of those pivots (so its entries there are read at
        once), and scaled to 1 at its own."""
        p, done, rows = self.p, [], {}
        for j, (_, factor, x) in zip(self._pivots[::-1], self._stored[::-1]):
            entries = self._entries(x)
            for i, y in done:
                if entries[i]:
                    x += (p - entries[i]) * y
            inverse = p - factor
            rows[j] = entries = [a * inverse % p for a in self._entries(x)]
            done.append((j, self._pack(entries)))
        free = sorted(set(range(self.width)).difference(rows))
        return tuple(sorted(rows)), [[rows[j][c] for c in free] for j in sorted(rows)]


def _packed_rank(rows: Iterable[Sequence[int]], width: int, p: int) -> PackedRank:
    packed = PackedRank(width, p)
    for row in rows:
        packed.add_row(row)
    return packed


def _denominator(modulus: int, u: int) -> int:
    """The b of a fraction a / b congruent to u mod the modulus, taken where
    the Euclidean algorithm on (modulus, u) makes its largest quotient, at
    least 2^_MARGIN (so |a| * b is about modulus / 2^_MARGIN or less); 0 if
    no quotient is that large.  This is maximal-quotient rational
    reconstruction; a wrong b fails the exact check of `_reduced_echelon`."""
    r0, r1, t0, t1 = modulus, u % modulus, 0, 1
    top, best = 1 << _MARGIN, 0
    while r1:
        q = r0 // r1
        if q > top:
            top, best = q, abs(t1)
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return best


def _reconstructed(values: list[list[int]], modulus: int) -> tuple[list[int], list[list[int]]] | None:
    """The primitive integer rows (lead_i e_(p_i) + tail_i) of the rows that
    are 1 at their pivots and the fractions congruent to values[i] mod the
    modulus on the other columns, as (leads, tails); None where an entry has
    no fraction small enough.  One denominator runs over the rows: an entry
    that is not a small integer times it multiplies it by that entry's
    `_denominator`."""
    half, bound, denominator = modulus >> 1, modulus >> _MARGIN, 1
    leads, tails = [], []
    for row in values:
        while True:
            nums = [(denominator * c + half) % modulus - half for c in row]
            wide = [w for w in nums if not -bound <= w <= bound]
            if not wide:
                break
            b = next(filter(None, map(partial(_denominator, modulus), wide)), 0)
            if not b or denominator * b > bound:
                return None
            denominator *= b
        g = gcd(denominator, *nums)
        leads.append(denominator // g)
        tails.append([w // g for w in nums] if g > 1 else nums)
    return leads, tails
