import pytest
from hypothesis import given, strategies as st

from qgrass.kschur import k_schur
from qgrass.partitions import Partition, k_bounded_partitions, k_conjugate
from qgrass.schur import SymVector, h_to_schur

from oracles import dominance_leq, omega, weak_pieri_targets


def P(*parts):
    return Partition(parts)


def S(*parts):
    return SymVector.schur(P(*parts))


def h_in_kschur_coordinates(lam, k):
    """Expand the product of h-generators indexed by lam over k-Schur indices by
    iterating the weak Pieri rule, then substitute each Schur expansion."""
    coords = {Partition(): 1}
    for r in lam:
        new = {}
        for nu, c in coords.items():
            for mu in weak_pieri_targets(nu, r, k):
                new[mu] = new.get(mu, 0) + c
        coords = new
    out = SymVector.zero()
    for nu, c in coords.items():
        out = out + k_schur(nu, k).scale(c)
    return out


# --- target sets ---------------------------------------------------------


def test_weak_pieri_target_examples():
    assert set(weak_pieri_targets(P(1), 1, 2)) == {P(2), P(1, 1)}
    assert set(weak_pieri_targets(P(1, 1), 1, 2)) == {P(1, 1, 1)}
    for k in range(1, 5):
        for r in range(1, k + 1):
            assert weak_pieri_targets(Partition(), r, k) == (P(r),)


def test_weak_pieri_target_validation():
    with pytest.raises(ValueError):
        weak_pieri_targets(P(1), 3, 2)
    with pytest.raises(ValueError):
        weak_pieri_targets(P(3), 1, 2)
    with pytest.raises(ValueError):
        weak_pieri_targets(P(1), 0, 2)


def test_targets_contain_the_stacked_partition_and_dominate_it():
    for k in range(1, 5):
        for d in range(0, 9):
            for lam in k_bounded_partitions(k, d):
                if not lam:
                    continue
                targets = weak_pieri_targets(Partition(lam.parts[1:]), lam.first, k)
                assert lam in targets
                for mu in targets:
                    if mu != lam:
                        assert dominance_leq(lam, mu) and lam != mu


# --- k-Schur expansions -------------------------------------------------------


def test_k_schur_examples():
    assert k_schur(P(1, 1, 1), 1) == S(3) + S(2, 1).scale(2) + S(1, 1, 1)
    assert k_schur(P(2, 1), 2) == S(3) + S(2, 1)
    assert k_schur(Partition(), 0) == SymVector.unit()
    with pytest.raises(ValueError):
        k_schur(P(3), 2)


def test_k_schur_is_classical_schur_when_hooks_are_small():
    for k in range(1, 5):
        for d in range(0, 9):
            for lam in k_bounded_partitions(k, d):
                if all(h <= k for row in lam.hook_lengths() for h in row):
                    assert k_schur(lam, k) == SymVector.schur(lam)


@given(
    st.lists(st.integers(1, 8), max_size=8)
    .filter(lambda xs: sum(xs) <= 8)
    .map(lambda xs: Partition(sorted(xs, reverse=True))),
    st.integers(0, 4),
)
def test_k_schur_is_schur_at_level_at_least_the_size(lam, extra):
    # every hook of lam is at most |lam|, so from level |lam| on the
    # k-Schur function is the Schur function
    assert k_schur(lam, lam.size + extra) == SymVector.schur(lam)


def test_k_schur_unitriangular_integer_coefficients():
    for k in range(1, 4):
        for d in range(0, 9):
            for lam in k_bounded_partitions(k, d):
                v = k_schur(lam, k)
                assert v.coeff(lam) == 1
                for mu, c in v.items():
                    assert c.denominator == 1
                    if mu != lam:
                        assert dominance_leq(lam, mu) and not dominance_leq(mu, lam)


def test_k_schur_omega_conjugation_small():
    for k in range(1, 4):
        for d in range(0, 9):
            for lam in k_bounded_partitions(k, d):
                assert omega(k_schur(lam, k)) == k_schur(k_conjugate(lam, k), k)


def test_h_expansion_consistency_small():
    for k in range(1, 4):
        for d in range(0, 8):
            for lam in k_bounded_partitions(k, d):
                assert h_in_kschur_coordinates(lam, k) == h_to_schur(lam)


def test_weak_pieri_step_raises_on_inconsistent_targets(monkeypatch):
    import qgrass.kschur as ks
    from qgrass.grassmann import _k_schur_row

    assert ks._weak_pieri_step((1, 1), 2) == (1, (1,), ((2,),))
    monkeypatch.setattr(ks, "_targets", lambda nu, r, k: ())
    with pytest.raises(RuntimeError, match="missing from its own target set"):
        ks._weak_pieri_step((2, 1), 2)
    # the in-box rows of the basis reports take the same checked step
    with pytest.raises(RuntimeError, match="weak Pieri rule inconsistency"):
        _k_schur_row.__wrapped__(3, 3, (2, 1), 2)
    monkeypatch.setattr(ks, "_targets", lambda nu, r, k: ((2, 1), (1, 1, 1)))
    with pytest.raises(RuntimeError, match="does not strictly dominate"):
        ks._weak_pieri_step((2, 1), 2)
