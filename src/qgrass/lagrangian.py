"""The Lagrangian Grassmannian cohomology ring H*(LG(n, 2n)).

Its generators e_1, ..., e_n, deg(e_i) = i, are the special Schubert classes
sigma_i.  They satisfy the quadratic relations

    e_i^2 = 2 e_{i+1} e_{i-1} - 2 e_{i+2} e_{i-2} + ... (e_0 = 1, e_j = 0 for j > n)

and nothing else.  The ring has two presentations here.

Subalgebras are built in the Schubert basis, on integers alone.  The order
n is the bounds (n, n, 1) of `schur`: parts at most n, strictly decreasing.
It is one `echelon.Ring`, `schur._ring(n, n, 1)`, which its builds share:
the width of each degree (the strict partitions of that degree, enumerated
once and kept as indices), the Pieri maps, read from one single-box table
per degree, the saturation record and the monomial rows.  Multiplication
by sigma_i from degree d - i to degree d, `schur._pieri_map(n, n, 1, d, i)`,
is an integer Pieri map (Macdonald III (8.15), with
Q_lambda = 2^l(lambda) P_lambda): sigma_i sigma_lambda is the sum of
2^(a(lambda, mu) + l(lambda) - l(mu)) sigma_mu over the strict mu with
mu_1 <= n and mu/lambda a horizontal i-strip, where a(lambda, mu) counts
the columns c in which mu/lambda has a box and column c + 1 has none.  For
i >= 2 the map groups the strips that `schur._strips` walks, rows top to
bottom so that every shape on the way is strict, by their power of 2.
sigma_1 is read off the single-box table, with no walk: a box in a row
already there takes 2 (a = 1, l(mu) = l(lambda)), and the one box that
starts a new row, at part 1, takes 1.

The shared builder `echelon.generated` pushes integer rows through the maps
of the odd generators alone.  The relation for e_j^2 ends in
2 (-1)^(j+1) e_(2j), so e_(2j) lies in the subalgebra of e_1, ...,
e_(2j-1): the subalgebra generated in degrees at most 2j is that of the odd
e_i < 2j, shares its build, and no Pieri map of an even sigma_i is built.
The Hilbert series keeps the ranks alone, and the `lg-stab` check reads the
stabilisation off them too.  Write A for the subalgebra of the odd e_i < 2j
and H for the ring.  Every degree-2j monomial but e_(2j) is a product of
e_i < 2j, which lie in A given the lower stabilisations, so
A_(2j) + Q e_(2j) = H_(2j), and e_(2j) lies in A_(2j) exactly when
dim A_(2j) = dim H_(2j).

The e-monomial presentation is the reference.  Its square-free monomials
e_(lambda_1) ... e_(lambda_r) are indexed by the same strict partitions lambda
as the Schubert columns, so its vectors are `SymVector`s keyed by them.
`normal_form` and `multiply` reduce products by a terminating rewriting
system that replaces the first repeated pair by its quadratic relation.
Rewriting a pair keeps the factor count while strictly increasing the sum of
squared indices (or drops the count when e_0 appears), both bounded, so
reduction terminates; the square-free monomials it lands on are counted by
the ring's Hilbert series, hence form a basis and the normal form is unique.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import Iterable, Iterator

from .echelon import Span, apply_map, generated
from .partitions import Partition
from .qseries import QPoly
from .schur import SymVector, _ring


@cache
def _reduce_monomial(mono: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    out: dict[tuple[int, ...], int] = {}
    stack: list[tuple[tuple[int, ...], int]] = [(mono, 1)]
    while stack:
        m, c = stack.pop()
        pos = next((idx for idx in range(len(m) - 1) if m[idx] == m[idx + 1]), None)
        if pos is None:
            new = out.get(m, 0) + c
            if new:
                out[m] = new
            else:
                out.pop(m, None)
            continue
        i = m[pos]
        rest = m[:pos] + m[pos + 2 :]
        for t in range(1, n - i + 1):
            lo, hi = i - t, i + t
            if lo < 0:
                continue
            extra = (hi,) if lo == 0 else (lo, hi)
            stack.append((tuple(sorted(rest + extra)), c * (2 if t % 2 else -2)))
    return tuple(sorted(out.items()))


def normal_form(indices: Iterable[int], n: int) -> SymVector:
    """Expand a monomial in the generators over the square-free basis, keyed
    by strict partitions: lambda stands for e_(lambda_1) ... e_(lambda_r)."""
    mono = tuple(sorted(indices))
    if any(i < 1 or i > n for i in mono):
        raise ValueError(f"indices must lie in [1, {n}], got {mono}")
    return SymVector._wrap({Partition._wrap(key[::-1]): c for key, c in _reduce_monomial(mono, n)})


def multiply(u: SymVector, v: SymVector, n: int) -> SymVector:
    """Product in the quotient ring: multiset union of the indices, renormalised."""
    return sum(
        (normal_form(a.parts + b.parts, n).scale(ca * cb) for a, ca in u.items() for b, cb in v.items()),
        SymVector.zero(),
    )


def _lg_generated(n: int, odd: int) -> Iterator[Span]:
    """The spans of the subalgebra generated by the odd e_i <= odd, in every
    degree, through `echelon.generated`."""
    return generated(_ring(n, n, 1), range(1, odd + 1, 2))


@cache
def _lg_slice_data(n: int, odd: int) -> tuple[Span, ...]:
    return tuple(_lg_generated(n, odd))


@cache
def _lg_rank_data(n: int, odd: int) -> tuple[int, ...]:
    # `map` keeps no span alive while the next degree is built, so a span's rows
    # go as soon as the walk has read them
    return tuple(map(attrgetter("rank"), _lg_generated(n, odd)))


def _odd_bound(n: int, m: int) -> int:
    # the odd e_i <= m generate the subalgebra (the `lg-stab` theorem), and
    # an m past n adds none: every generator has degree at most n
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    m = min(m, n)
    return m if m % 2 else m - 1


def lg_subalgebra_slices(n: int, m: int) -> tuple[Span, ...]:
    """The `Span` of each graded piece of the subalgebra generated by
    e_1, ..., e_m, in the Schubert basis: the columns of degree d index the
    strict partitions of d with parts at most n (parts decreasing), in the
    order `partitions._decreasing_tuples` lists them.  The odd
    e_i <= min(m, n) generate it, so an even m shares the build of m - 1,
    and an m past n that of n.  No check reads these spans; they serve tests
    and tracing.  Treat them as immutable."""
    return _lg_slice_data(n, _odd_bound(n, m))


def lg_subalgebra_hilbert(n: int, m: int) -> QPoly:
    """Hilbert series of the subalgebra generated by e_1, ..., e_m, from the
    ranks alone."""
    return QPoly(dict(enumerate(_lg_rank_data(n, _odd_bound(n, m)))))


def lg_top_power(n: int) -> int:
    """Coefficient of the point class (the staircase (n, ..., 1), equal to
    e_1 ... e_n) in e_1 raised to the ring's top degree; nonzero, and equal to
    the degree of the Plucker embedding."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    ring = _ring(n, n, 1)
    # one row walked up, not `Ring.monomial_row`, which would keep the row of
    # every power of e_1 for the life of the ring
    row = [1]
    for d in range(1, len(ring.columns)):
        row = apply_map(enumerate(row), ring.pieri_map(d, 1), len(ring.columns[d]))
    # the staircase is the only column of the top degree
    (point,) = row
    return point
