"""Exact integer-coefficient polynomials in q and the closed-form Hilbert series.

All identity checks downstream assert that a difference of QPoly values is the
zero polynomial; nothing here is ever approximate.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterable, Iterator, Mapping

from .partitions import Partition


class IntCombination:
    """A finite linear combination of keys with arbitrary-precision integer
    coefficients, the exact value every identity check compares.

    The constructor takes only int coefficients and the keys a subclass
    accepts (`_check_key`), so no value is ever rounded on the way in.  Zero
    coefficients are never stored, and two combinations are equal only when
    they have the same type and the same terms."""

    __slots__ = ("_c",)

    def __init__(self, terms: Mapping | None = None):
        data = {}
        if terms:
            for key, c in terms.items():
                if type(c) is not int:
                    raise TypeError(f"{type(self).__name__} coefficients must be ints, got {c!r} at {key!r}")
                self._check_key(key)
                if c:
                    data[key] = c
        self._c = data

    @staticmethod
    def _check_key(key) -> None:
        raise NotImplementedError

    @classmethod
    def _wrap(cls, data: dict):
        # a dict of valid keys and int coefficients; only the zeros are dropped
        out = cls.__new__(cls)
        out._c = {key: c for key, c in data.items() if c}
        return out

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, key) -> int:
        return self._c.get(key, 0)

    def items(self):
        return self._c.items()

    def _plus(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self._c)
        for key, c in other._c.items():
            data[key] = data.get(key, 0) + sign * c
        return self._wrap(data)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c: int):
        if type(c) is not int:
            raise TypeError(f"{type(self).__name__} coefficients must be ints, got {c!r}")
        return self._wrap({key: v * c for key, v in self._c.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._c == other._c


class QPoly(IntCombination):
    """Polynomial in q: an integer combination of the powers q^e, keyed by
    their int exponents e >= 0."""

    __slots__ = ()

    @staticmethod
    def _check_key(e) -> None:
        if type(e) is not int:
            raise TypeError(f"exponents must be ints, got {e!r}")
        if e < 0:
            raise ValueError(f"exponents must be nonnegative, got {e}")

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def q_power(cls, e: int) -> "QPoly":
        return cls({e: 1})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "QPoly":
        return cls({e: c for e, c in enumerate(coeffs)})

    @property
    def degree(self) -> int:
        """Largest supported exponent; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def coeffs(self) -> list[int]:
        """Dense coefficient list from exponent 0 to the degree."""
        out = [0] * (self.degree + 1)
        for e, c in self._c.items():
            out[e] = c
        return out

    def json_coeffs(self) -> list[str]:
        return [str(c) for c in self.coeffs()]

    def __mul__(self, other):
        if type(other) is int:
            return self.scale(other)
        if type(other) is QPoly:
            data: dict[int, int] = {}
            for e1, c1 in self._c.items():
                for e2, c2 in other._c.items():
                    e = e1 + e2
                    data[e] = data.get(e, 0) + c1 * c2
            return QPoly._wrap(data)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._c:
            return "0"
        terms = []
        for e in sorted(self._c):
            c = self._c[e]
            if e == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c))
                terms.append(f"{head}q" if e == 1 else f"{head}q^{e}")
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPoly({self})"


def _q_column(b: int, top: int) -> Iterator[list[int]]:
    """Coefficient lists of the Gaussian binomials [r, b]_q for r = b..top.

    Each comes from the one before by [r+1, b] = [r, b] (1 - q^(r+1)) / (1 - q^(r+1-b)):
    the product is one shifted subtraction and the exact division one running
    sum, so the walk holds one entry of the column at a time.
    """
    f = [1]
    yield f
    for r in range(b, top):
        n, s = r + 1, r + 1 - b
        # [r+1, b] has degree b more than [r, b]; the division is exact, so the
        # running sum stops there and the product's higher terms are never formed
        g = f + [0] * b
        for e in range(n, len(g)):
            g[e] -= f[e - n]
        for e in range(s, len(g)):
            g[e] += g[e - s]
        f = g
        yield f


def _shifted_sum(terms: Iterable[tuple[int, list[int]]]) -> QPoly:
    """The sum of q^shift times each coefficient list, built as one QPoly."""
    data: dict[int, int] = {}
    for shift, coeffs in terms:
        for e, c in enumerate(coeffs, shift):
            data[e] = data.get(e, 0) + c
    return QPoly._wrap(data)


@cache
def q_binomial(a: int, b: int) -> QPoly:
    """Gaussian binomial coefficient [a, b]_q, the last entry of the walk down
    column min(b, a - b) (see _q_column); the walk is a loop, so large `a`
    needs no recursion, and it holds one column entry at a time."""
    if a < 0:
        raise ValueError(f"q_binomial needs a >= 0, got {a}")
    if b < 0 or b > a:
        return QPoly.zero()
    for coeffs in _q_column(min(b, a - b), a):
        pass
    return QPoly._wrap(dict(enumerate(coeffs)))


def q_binomial_prime(ell: int, i: int, k: int) -> QPoly:
    """Width-k q-analogue of binomial(ell, i): sum of q^(j(k-i+1)) [i+j-1, j]_q.

    [i+j-1, j] = [i+j-1, i-1], so the terms are one walk down column i - 1."""
    if not (1 <= i <= ell and i <= k):
        raise ValueError(f"need 1 <= i <= ell and i <= k, got ell={ell}, i={i}, k={k}")
    column = _q_column(i - 1, ell - 1)
    return _shifted_sum((j * (k - i + 1), coeffs) for j, coeffs in enumerate(column))


def q_binomial_double_prime(n: int, i: int) -> QPoly:
    """Shifted q-analogue of binomial(n+1, i+1): q^i sum of q^C(j+1,2) [i+j, i]_q,
    one walk down column i."""
    if not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got n={n}, i={i}")
    return _shifted_sum((i + comb(j + 1, 2), coeffs) for j, coeffs in enumerate(_q_column(i, n)))


def grass_hilbert_series(ell: int, k: int) -> QPoly:
    """Hilbert series of the full Grassmannian cohomology ring: [k+ell, ell]_q."""
    if ell < 0 or k < 0:
        raise ValueError(f"need ell, k >= 0, got ell={ell}, k={k}")
    return q_binomial(k + ell, ell)


def lg_hilbert_series(n: int) -> QPoly:
    """Hilbert series of the full Lagrangian ring: product of (1 + q^j), j = 1..n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    out = QPoly.one()
    for j in range(1, n + 1):
        out = out * (QPoly.one() + QPoly.q_power(j))
    return out


def grass_subalgebra_formula(ell: int, k: int, m: int) -> QPoly:
    """Closed-form candidate for the Hilbert series of the subalgebra generated
    in degrees at most m (proven for m in {0, 1, min(ell, k)})."""
    if not (0 <= m <= min(ell, k)):
        raise ValueError(f"need 0 <= m <= min(ell, k), got ell={ell}, k={k}, m={m}")
    out = QPoly.one()
    for i in range(1, m + 1):
        out = out + QPoly.q_power(i) * q_binomial(k, i) * q_binomial_prime(ell, i, k)
    return out


def lg_subalgebra_formula(n: int, m: int) -> QPoly:
    """Closed-form candidate for the Lagrangian subalgebra Hilbert series
    (proven for m in {1, n}): 1 plus the odd-indexed shifted q-binomials."""
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    out = QPoly.one()
    for i in range(1, m + 1, 2):
        out = out + q_binomial_double_prime(n, i)
    return out


def gen_sum(family: Iterable[Partition]) -> QPoly:
    """Generating sum q^|lam| over a finite family of partitions."""
    data: dict[int, int] = {}
    for lam in family:
        d = lam.size
        data[d] = data.get(d, 0) + 1
    return QPoly(data)
