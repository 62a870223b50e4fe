"""Parameterless k-Schur functions, expanded in the Schur basis.

The construction is the weak Pieri recursion: multiplying a k-Schur function
by a complete homogeneous generator h_r spreads it over the k-bounded
horizontal r-strips whose k-conjugates grow by a vertical r-strip.  Peeling
off the first part of the index and subtracting the dominance-larger targets
pins each expansion down uniquely.
"""

from __future__ import annotations

from functools import cache

from .partitions import Partition, _dominance_leq, _k_conjugate
from .schur import SymVector, _horizontal_strips, pieri_h


def _is_vertical_strip(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    for idx in range(max(len(big), len(small))):
        b = big[idx] if idx < len(big) else 0
        s = small[idx] if idx < len(small) else 0
        if not s <= b <= s + 1:
            return False
    return True


@cache
def _targets(nu: tuple[int, ...], r: int, k: int) -> tuple[tuple[int, ...], ...]:
    nu_conj = _k_conjugate(nu, k)
    out = []
    for mu in _horizontal_strips(nu, r):
        if mu and mu[0] > k:
            continue
        if _is_vertical_strip(_k_conjugate(mu, k), nu_conj):
            out.append(mu)
    out.sort(reverse=True)
    return tuple(out)


def _weak_pieri_step(
    parts: tuple[int, ...], k: int
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """One step of the weak Pieri recursion for a nonempty k-bounded index.

    Returns (r, nu, others): r is the first part, nu the rest, and the k-Schur
    function of parts is h_r times that of nu minus those of others, every one
    of which strictly dominates parts.  Raises RuntimeError when the target
    set breaks that shape.
    """
    r, nu = parts[0], parts[1:]
    targets = _targets(nu, r, k)
    if parts not in targets:
        raise RuntimeError(
            f"weak Pieri rule inconsistency: {parts} is missing from its own "
            f"target set {targets} (r={r}, k={k})"
        )
    others = tuple(mu for mu in targets if mu != parts)
    for mu in others:
        if not _dominance_leq(parts, mu):
            raise RuntimeError(
                f"weak Pieri rule inconsistency: target {mu} does not strictly "
                f"dominate {parts} (r={r}, k={k})"
            )
    return r, nu, others


@cache
def _k_schur(parts: tuple[int, ...], k: int) -> SymVector:
    if not parts:
        return SymVector.unit()
    r, nu, others = _weak_pieri_step(parts, k)
    result = pieri_h(r, _k_schur(nu, k))
    for mu in others:
        result = result - _k_schur(mu, k)
    return result


def k_schur(lam: Partition, k: int) -> SymVector:
    """Schur expansion of the k-Schur function indexed by a k-bounded partition.

    Unitriangular with leading coefficient 1: every other term strictly
    dominates lam.  The empty partition maps to the unit for any k >= 0.
    """
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if lam.first > k:
        raise ValueError(f"{lam!r} is not {k}-bounded")
    return _k_schur(lam.parts, k)
