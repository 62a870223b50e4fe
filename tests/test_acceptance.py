"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every comparison is exact; the asserted runtime budgets are part of the
criteria.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from qgrass.grassmann import h_basis_report, kschur_basis_report, subalgebra_hilbert
from qgrass.harness import check_rt, sweep
from qgrass.kschur import k_schur
from qgrass.lagrangian import lg_subalgebra_hilbert, lg_top_power
from qgrass.partitions import (
    Partition,
    candidate_partitions,
    core_from_bounded,
    k_bounded_partitions,
    k_conjugate,
    partitions_in_box,
    shifted_compose,
    shifted_decompose,
    strict_partitions_in_triangle,
    vacancy,
    vacant_compose,
    vacant_decompose,
    vacant_partitions,
)
from qgrass.qseries import (
    QPoly,
    gen_sum,
    grass_subalgebra_formula,
    lg_hilbert_series,
    lg_subalgebra_formula,
    q_binomial,
    q_binomial_prime,
)
from qgrass.schur import SymVector, h_to_schur

from oracles import dominance_leq, omega, weak_pieri_targets

SWEEP_DEFAULT_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "answers" / "sweep-default.txt"


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_worked_example_goldens():
    with criterion(1, "worked-example goldens", 1.0):
        lam = Partition((4, 3, 1, 1))
        assert lam.hook_lengths() == [[7, 4, 3, 1], [5, 2, 1], [2], [1]]
        assert core_from_bounded(lam, 4) == Partition((8, 4, 1, 1))
        assert k_conjugate(lam, 4) == Partition((2, 1, 1, 1, 1, 1, 1, 1))
        assert vacancy(Partition((4, 4, 3, 3, 1)), 5) == 3
        assert gen_sum(vacant_partitions(3, 3, 1)) == QPoly.from_coeffs([0] + [1] * 9)
        assert gen_sum(vacant_partitions(3, 3, 2)) == QPoly.from_coeffs([0, 0, 1, 1, 2, 2, 2, 1])
        assert gen_sum(vacant_partitions(3, 3, 3)) == QPoly.q_power(3)


def test_criterion_2_theorem_suite():
    with criterion(2, "theorem suite", 60.0):
        # summand identity, both combinatorial interpretations
        for ell in range(1, 7):
            for k in range(1, 7):
                box = [lam for lam in partitions_in_box(ell, k) if lam]
                conj = [k_conjugate(lam, k) for lam in box]
                for i in range(1, min(ell, k) + 1):
                    formula = QPoly.q_power(i) * q_binomial(k, i) * q_binomial_prime(ell, i, k)
                    assert gen_sum(lam for lam in box if vacancy(lam, k) == i) == formula
                    assert gen_sum(mu for mu in conj if mu.first == i) == formula
        # staircase generating identity
        for n in range(0, 31):
            rhs = QPoly.one() if n == 0 else lg_subalgebra_formula(n, n)
            assert lg_hilbert_series(n) == rhs
        # decomposition round trips, both directions
        for ell in range(1, 7):
            for k in range(1, 7):
                for lam in partitions_in_box(ell, k):
                    if lam:
                        i, j, dag, ddag = vacant_decompose(lam, k)
                        assert vacant_compose(i, j, dag, ddag, k) == lam
                for i in range(1, min(ell, k) + 1):
                    for j in range(ell - i + 1):
                        for dag in partitions_in_box(i, k - i):
                            for ddag in partitions_in_box(j, i - 1):
                                built = vacant_compose(i, j, dag, ddag, k)
                                assert vacant_decompose(built, k) == (i, j, dag, ddag)
        for n in range(1, 10):
            for lam in strict_partitions_in_triangle(n):
                if lam:
                    i, j, mu = shifted_decompose(lam, n)
                    assert i % 2 == 1 and 1 <= i <= n and mu.fits(j, i)
                    assert shifted_compose(i, j, mu, n) == lam
            for i in range(1, n + 1, 2):
                for j in range(n - i + 1):
                    for mu in partitions_in_box(j, i):
                        built = shifted_compose(i, j, mu, n)
                        assert shifted_decompose(built, n) == (i, j, mu)
        # vacancy reads off the first part of the k-conjugate
        for ell in range(1, 7):
            for k in range(1, 7):
                for lam in partitions_in_box(ell, k):
                    if lam:
                        assert vacancy(lam, k) == k_conjugate(lam, k).first


def test_criterion_3_proven_extreme_cases():
    with criterion(3, "proven extreme cases", 300.0):
        for ell in range(1, 7):
            for k in range(1, 7):
                for m in (0, 1, min(ell, k)):
                    assert subalgebra_hilbert(ell, k, m) == grass_subalgebra_formula(ell, k, m)
        for n in range(1, 9):
            assert lg_subalgebra_hilbert(n, 1) == lg_subalgebra_formula(n, 1)
            assert lg_subalgebra_hilbert(n, n) == lg_subalgebra_formula(n, n)
            for m in range(2, n + 1, 2):
                assert lg_subalgebra_hilbert(n, m) == lg_subalgebra_hilbert(n, m - 1)
            assert lg_top_power(n) != 0
        assert lg_top_power(2) == 2


def test_criterion_4_conjecture_sweeps():
    with criterion(4, "conjecture sweeps", 900.0):
        failures = []
        for ell in range(1, 7):
            for k in range(1, 7):
                for case in check_rt(ell, k):
                    if case.status != "pass":
                        failures.append(("rt", case.params))
        for ell in range(1, 5):
            for k in range(1, 5):
                for m in range(1, min(ell, k) + 1):
                    if not h_basis_report(ell, k, m).verdict:
                        failures.append(("h-basis", (ell, k, m)))
                    if not kschur_basis_report(ell, k, m).verdict:
                        failures.append(("kschur-basis", (ell, k, m)))
        for n in range(1, 9):
            for m in range(1, n + 1):
                if lg_subalgebra_hilbert(n, m) != lg_subalgebra_formula(n, m):
                    failures.append(("lg", (n, m)))
        # a failure above would be a counterexample inside the required grid
        assert not failures, f"conjecture counterexamples found: {failures}"
        # stretch grid: failures here are documented findings, not build breaks
        findings = []
        for ell in range(1, 6):
            for k in range(1, 6):
                for m in range(1, min(ell, k) + 1):
                    for label, report_of in (("h-basis", h_basis_report), ("kschur-basis", kschur_basis_report)):
                        report = report_of(ell, k, m)
                        if not report.verdict:
                            bad = [(e.degree, e.candidates, e.rank, e.dim) for e in report.degrees if not e.ok]
                            findings.append((label, (ell, k, m), bad))
        for finding in findings:
            print(f"FINDING (documented, stretch grid): {finding}")


def test_criterion_5_kschur_validation():
    with criterion(5, "k-Schur validation", 120.0):
        for k in range(1, 5):
            for d in range(0, 13):
                for lam in k_bounded_partitions(k, d):
                    v = k_schur(lam, k)
                    assert v.coeff(lam) == 1
                    for mu, c in v.items():
                        assert c.denominator == 1
                        if mu != lam:
                            assert dominance_leq(lam, mu) and not dominance_leq(mu, lam)
                    assert omega(v) == k_schur(k_conjugate(lam, k), k)
                    # h expansion by iterated weak Pieri reproduces the classical one
                    coords = {Partition(): 1}
                    for r in lam:
                        new = {}
                        for nu, c in coords.items():
                            for mu in weak_pieri_targets(nu, r, k):
                                new[mu] = new.get(mu, 0) + c
                        coords = new
                    total = SymVector.zero()
                    for nu, c in coords.items():
                        total = total + k_schur(nu, k).scale(c)
                    assert total == h_to_schur(lam)


def test_criterion_6_degree_seven_discrepancy():
    with criterion(6, "degree-7 candidate check", 10.0):
        degree7 = {lam.parts for lam in candidate_partitions(3, 3, 3) if lam.size == 7}
        assert (2, 2, 1, 1, 1) in degree7
        assert (2, 1, 1, 1, 1, 1) not in degree7
        assert degree7 == {(2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1)}


def test_criterion_7_symmetry_and_determinism(check_normal_form):
    with criterion(7, "symmetry and determinism", 300.0):
        for ell in range(1, 6):
            for k in range(1, 6):
                for m in range(min(ell, k) + 1):
                    assert subalgebra_hilbert(ell, k, m) == subalgebra_hilbert(k, ell, m)
        assert sweep().to_text() + "\n" == SWEEP_DEFAULT_GOLDEN.read_text(encoding="utf-8")
        rng = random.Random(1729)
        for _ in range(1000):
            n = rng.randint(1, 6)
            mono = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 8)))
            if sum(mono) > 15:
                mono = mono[:4]
            check_normal_form(mono, n)
