"""The Lagrangian Grassmannian cohomology ring H*(LG(n, 2n)).

Its generators e_1, ..., e_n, deg(e_i) = i, are the special Schubert classes
sigma_i.  They satisfy the quadratic relations

    e_i^2 = 2 e_{i+1} e_{i-1} - 2 e_{i+2} e_{i-2} + ... (e_0 = 1, e_j = 0 for j > n)

and nothing else.  The ring has two presentations here.

Subalgebras are built in the Schubert basis, on integers alone.  The columns
of degree d are the strict partitions of d with parts at most n, listed once
per (n, d).  Multiplication by sigma_i from degree d - i to degree d is
memoised per (n, d, i) as an integer Pieri map (Macdonald III (8.15), with
Q_lambda = 2^l(lambda) P_lambda): sigma_i sigma_lambda is the sum of
2^(a(lambda, mu) + l(lambda) - l(mu)) sigma_mu over the strict mu with
mu_1 <= n and mu/lambda a horizontal i-strip, where a(lambda, mu) counts the
columns c in which mu/lambda has a box and column c + 1 has none.  The order
is the bounds (n, n, 1) of `schur`: parts at most n, strictly decreasing.
The map groups the strips that `schur._strips` walks, rows top to bottom so
that every shape on the way is strict, by their power of 2; sigma_1 is one
table step.

The columns and maps of an order are one `echelon.Ring`, `_ring(n)`, whose
saturation record and monomial rows its builds share.  The shared builder
`echelon.generated` pushes integer rows through the maps of the odd
generators alone.  The relation for e_j^2 ends in
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

from .echelon import Ring, Span, apply_map, generated
from .partitions import Partition
from .qseries import QPoly
from .schur import SymVector, _columns, _strips


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


def _strict_columns(n: int, d: int) -> tuple[tuple[Partition, ...], dict[tuple[int, ...], int]]:
    """The strict partitions of d with parts at most n, and the index of each by its parts."""
    return _columns(n, n, 1, d)


@cache
def _lg_pieri_map(n: int, d: int, i: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Multiplication by sigma_i from degree d - i to degree d: for each
    coefficient, the target column indices of each source column.  Groups
    the walked strips (`schur._strips`) by their power of 2."""
    width = len(_strict_columns(n, d - i)[0])
    by_exp: dict[int, list[list[int]]] = {}
    for src, t, _, _, _, exp in _strips(n, n, 1, d, i):
        if exp not in by_exp:
            by_exp[exp] = [[] for _ in range(width)]
        by_exp[exp][src].append(t)
    return tuple((1 << e, tuple(map(tuple, by_exp[e]))) for e in sorted(by_exp))


@cache
def _ring(n: int) -> Ring:
    """The order n as an `echelon.Ring`: its columns and Pieri maps, and
    the saturation record and monomial rows that its builds share."""
    columns = [_strict_columns(n, d)[0] for d in range(n * (n + 1) // 2 + 1)]
    return Ring(columns, lambda d, i: _lg_pieri_map(n, d, i))


def _lg_generated(n: int, odd: int) -> Iterator[Span]:
    """The spans of the subalgebra generated by the odd e_i <= odd, in every
    degree, through `echelon.generated`."""
    return generated(_ring(n), range(1, odd + 1, 2))


@cache
def _lg_slice_data(n: int, odd: int) -> tuple[Span, ...]:
    return tuple(_lg_generated(n, odd))


@cache
def _lg_rank_data(n: int, odd: int) -> tuple[int, ...]:
    # `map` keeps no span alive while the next degree is built, so a span's rows
    # go as soon as the walk has read them
    return tuple(map(attrgetter("rank"), _lg_generated(n, odd)))


def _odd_bound(n: int, m: int) -> int:
    # the odd e_i <= m generate the subalgebra (the `lg-stab` theorem)
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    return m if m % 2 else m - 1


def lg_subalgebra_slices(n: int, m: int) -> tuple[Span, ...]:
    """The `Span` of each graded piece of the subalgebra generated by
    e_1, ..., e_m, in the Schubert basis: the columns of degree d are the
    strict partitions of d with parts at most n (parts decreasing).  The odd
    e_i <= m generate it, so an even m shares the build of m - 1.  No check
    reads these spans; they serve tests and tracing.  Treat them as
    immutable."""
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
    top = n * (n + 1) // 2
    # one row walked up, not `Ring.monomial_row`, which would keep the row of
    # every power of e_1 for the life of the ring
    row = [1]
    for d in range(1, top + 1):
        row = apply_map(enumerate(row), _lg_pieri_map(n, d, 1), len(_strict_columns(n, d)[0]))
    return row[_strict_columns(n, top)[1][tuple(range(n, 0, -1))]]
