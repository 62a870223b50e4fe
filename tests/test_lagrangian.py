import functools
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from qgrass import echelon, lagrangian, schur
from qgrass.echelon import DegreeSlice
from qgrass.harness import plucker_degree
from qgrass.lagrangian import (
    lg_subalgebra_hilbert,
    lg_subalgebra_slices,
    lg_top_power,
    multiply,
    normal_form,
)
from qgrass.partitions import Partition, strict_partitions_in_triangle, strict_partitions_of_size
from qgrass.qseries import QPoly, lg_hilbert_series, lg_subalgebra_formula
from qgrass.schur import SymVector, _horizontal_strips, _pieri_map, _tables

from oracles import _columns, generated_slices


def E(*parts):
    """The square-free e-monomial e_(parts[0]) ... e_(parts[-1]), parts decreasing."""
    return SymVector.schur(Partition(parts))


def V(terms):
    """A combination of e-monomials, keyed by their decreasing index tuples."""
    return SymVector({Partition(key): c for key, c in terms.items()})


def test_emonomial_vector_basics():
    v = E(1) + E(1)
    assert v.coeff(Partition((1,))) == 2
    assert (v - v).is_zero
    with pytest.raises(TypeError):
        V({(3, 1): Fraction(1, 2)})


def test_emonomial_vector_json_order():
    v = V({(2, 1): 1, (3,): 2, (1,): 1})
    assert v.to_json_obj() == [
        {"partition": "1", "coeff": "1"},
        {"partition": "3", "coeff": "2"},
        {"partition": "2,1", "coeff": "1"},
    ]


# --- normal forms ------------------------------------------------------------


def test_normal_form_examples():
    assert normal_form((1, 1), 2) == V({(2,): 2})
    assert normal_form((2, 2), 2).is_zero
    assert normal_form((1, 2), 5) == E(2, 1)
    assert normal_form((), 3) == SymVector.unit()
    with pytest.raises(ValueError):
        normal_form((0, 1), 3)
    with pytest.raises(ValueError):
        normal_form((4,), 3)


def test_normal_form_known_squares():
    # e_2^2 = 2 e_3 e_1 - 2 e_4 inside a rank-4 ring
    assert normal_form((2, 2), 4) == V({(3, 1): 2, (4,): -2})
    # iterated powers of e_1 walk up the staircase
    assert normal_form((1, 1, 1), 3) == V({(2, 1): 2})
    assert normal_form((1,) * 6, 3) == V({(3, 2, 1): 16})


def test_normal_form_output_is_square_free():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 6)
        mono = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
        for lam, _ in normal_form(mono, n).items():
            assert lam.is_strict and lam.first <= n
            assert lam.size == sum(mono)


def test_normal_form_matches_the_schubert_product(schubert_row, check_normal_form):
    for n in range(1, 7):
        # the square-free monomials of each degree map to independent Schubert
        # rows, so an expansion over them that checks out is the only one
        for d in range(n * (n + 1) // 2 + 1):
            cols = tuple(strict_partitions_of_size(n, d))
            sl = DegreeSlice(d, cols)
            for lam in cols:
                sl.add_row(schubert_row(lam.parts, n))
            assert sl.saturated, (n, d)
    for n in range(1, 6):
        top = n * (n + 1) // 2
        for size in range(7):
            for mono in combinations_with_replacement(range(1, n + 1), size):
                if sum(mono) <= top:
                    check_normal_form(mono, n)


# --- ring structure -------------------------------------------------------------


def test_multiply_examples():
    assert multiply(E(1), E(1), 2) == V({(2,): 2})
    v = V({(3, 1): 5, (2,): -1})
    assert multiply(v, SymVector.unit(), 4) == v
    assert multiply(E(1), V({(2,): 2}), 2) == V({(2, 1): 2})


def test_multiply_commutative_and_associative_random():
    rng = random.Random(99)

    def random_vec(n):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(0, n)
            key = tuple(sorted(rng.sample(range(1, n + 1), size), reverse=True))
            terms[key] = rng.randint(-2, 2)
        return V(terms)

    for _ in range(30):
        n = rng.randint(2, 5)
        a, b, c = random_vec(n), random_vec(n), random_vec(n)
        assert multiply(a, b, n) == multiply(b, a, n)
        assert multiply(multiply(a, b, n), c, n) == multiply(a, multiply(b, c, n), n)


def test_square_free_monomial_counts_match_series():
    # the normal-form target set has the ring's dimensions, degree by degree
    for n in range(1, 7):
        series = lg_hilbert_series(n)
        for d in range(series.degree + 1):
            assert sum(1 for _ in strict_partitions_of_size(n, d)) == series.coeff(d)


# --- subalgebra series ------------------------------------------------------------


def test_lg_subalgebra_hilbert_examples():
    assert lg_subalgebra_hilbert(2, 1) == QPoly.from_coeffs([1, 1, 1, 1])
    assert lg_subalgebra_hilbert(3, 1) == QPoly.from_coeffs([1] * 7)
    assert lg_subalgebra_hilbert(3, 2) == lg_subalgebra_hilbert(3, 1)
    for point in [(3, 0), (0, 1), (-1, 1)]:
        with pytest.raises(ValueError):
            lg_subalgebra_hilbert(*point)
    # an m past n adds no generator: the subalgebra is the ring
    assert lg_subalgebra_hilbert(3, 4) == lg_subalgebra_hilbert(3, 3)


def test_lg_full_generation_matches_series():
    for n in range(1, 7):
        assert lg_subalgebra_hilbert(n, n) == lg_hilbert_series(n)


@pytest.mark.parametrize("p", [None, 2], ids=["real-prime", "prime-2"])
def test_saturation_record_matches_cold_builds(monkeypatch, p):
    # Every odd bound of an order, built through a warm record in ascending
    # and in descending order, has the series of a cold build and of the
    # closed form; at p = 2 every coefficient 2^e with e >= 1 vanishes, so
    # the exact fallback proves many saturated degrees

    def fresh_builds():
        lagrangian._lg_rank_data.cache_clear()
        schur._ring.cache_clear()

    if p:
        monkeypatch.setattr(echelon, "_rank_prime", lambda width: p)
    try:
        for n in range(1, 10):
            bounds = range(1, n + 1, 2)
            cold = {}
            for odd in bounds:
                fresh_builds()
                cold[odd] = lg_subalgebra_hilbert(n, odd)
                assert cold[odd] == lg_subalgebra_formula(n, odd), (n, odd)
            for order in (bounds, bounds[::-1]):
                fresh_builds()
                assert {odd: lg_subalgebra_hilbert(n, odd) for odd in order} == cold, (n, order)
    finally:
        fresh_builds()


def test_lg_even_m_stabilization():
    # an even m shares the odd build of m - 1, whose series is that of the
    # second algorithm's build from every generator e_1..e_m
    for n in range(1, 7):
        columns = [_columns(n, n, 1, d)[0] for d in range(n * (n + 1) // 2 + 1)]
        for m in range(2, n + 1, 2):
            assert lg_subalgebra_slices(n, m) is lg_subalgebra_slices(n, m - 1)
            every = generated_slices(columns, functools.partial(_pieri_map, n, n, 1), range(1, m + 1))
            assert lg_subalgebra_hilbert(n, m) == QPoly({sl.degree: sl.rank for sl in every})


def test_lg_m1_is_a_run_of_ones():
    for n in range(1, 7):
        top = n * (n + 1) // 2
        assert lg_subalgebra_hilbert(n, 1) == QPoly.from_coeffs([1] * (top + 1))


def test_lg_top_power_values():
    assert lg_top_power(1) == 1
    assert lg_top_power(2) == 2
    # engine-derived regression constant
    assert lg_top_power(3) == 16
    for n in range(1, 7):
        assert lg_top_power(n) > 0
    with pytest.raises(ValueError):
        lg_top_power(0)


def test_lg_top_power_is_the_plucker_degree():
    for n in range(1, 13):
        assert lg_top_power(n) == plucker_degree(n), n


def test_lg_reachable_points_match_closed_form():
    # past the default sweep grid: out of reach of the rewriting engine
    for n, m in [(10, 3), (11, 3)]:
        assert lg_subalgebra_hilbert(n, m) == lg_subalgebra_formula(n, m)


# --- Pieri maps in the Schubert basis -------------------------------------------


def sigma(n, i, vec):
    """sigma_i times a homogeneous {strict parts: int} vector, through the
    memoised Pieri maps; sigma_0 = 1 and sigma_j = 0 for j > n."""
    if i == 0:
        return dict(vec)
    out = {}
    if i > n or not vec:
        return out
    d = sum(next(iter(vec))) + i
    cols = _columns(n, n, 1, d)[0]
    source = _columns(n, n, 1, d - i)[1]
    for c, targets in _pieri_map(n, n, 1, d, i):
        for lam, a in vec.items():
            for t in targets[source[lam]]:
                mu = cols[t].parts
                out[mu] = out.get(mu, 0) + a * c
    return {mu: c for mu, c in out.items() if c}


def combine(*terms):
    out = {}
    for scale, vec in terms:
        for key, c in vec.items():
            out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


def test_pieri_maps_pinned_products():
    for n in range(2, 7):
        assert sigma(n, 1, {(1,): 1}) == {(2,): 2}
    for n in range(3, 7):
        assert sigma(n, 1, {(2,): 1}) == {(3,): 2, (2, 1): 1}
        assert sigma(n, 2, {(1,): 1}) == {(3,): 2, (2, 1): 1}


def test_pieri_maps_commute():
    for n in range(1, 7):
        for lam in strict_partitions_in_triangle(n):
            vec = {lam.parts: 1}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert sigma(n, i, sigma(n, j, vec)) == sigma(n, j, sigma(n, i, vec)), (n, lam, i, j)


def test_pieri_maps_satisfy_the_quadratic_relations():
    # sigma_i^2 = 2 sigma_{i+1} sigma_{i-1} - 2 sigma_{i+2} sigma_{i-2} + ...
    for n in range(1, 7):
        for lam in strict_partitions_in_triangle(n):
            vec = {lam.parts: 1}
            for i in range(1, n + 1):
                rhs = combine(*(
                    (2 if t % 2 else -2, sigma(n, i + t, sigma(n, i - t, vec)))
                    for t in range(1, i + 1)
                ))
                assert sigma(n, i, sigma(n, i, vec)) == rhs, (n, lam, i)


def pieri_exponent(lam, mu):
    # a(lam, mu) + l(lam) - l(mu), by counting the strip's columns
    cells = set()
    for r, b in enumerate(mu):
        cells.update(range((lam[r] if r < len(lam) else 0) + 1, b + 1))
    return sum(1 for c in cells if c + 1 not in cells) + len(lam) - len(mu)


def strict_strips(lam, i, n):
    """Each strict mu with mu_1 <= n and mu/lam a horizontal i-strip, paired
    with the exponent a(lam, mu) + l(lam) - l(mu) of its Pieri coefficient,
    by a recursive search over the rows: the reference for the table walk."""
    base = lam + (0,)
    # row r grows to at most n (r = 0) or the old part above it, which it may
    # reach only when the row above grows too (mu stays strict)
    caps = [n - base[0]] + [base[r - 1] - base[r] for r in range(1, len(base))]
    room = [0] * (len(base) + 1)
    for r in range(len(base) - 1, -1, -1):
        room[r] = room[r + 1] + caps[r]
    mu = list(base)
    out = []

    def build(r, remaining, exp):
        if remaining == 0:
            out.append((tuple(mu) if mu[-1] else tuple(mu[:-1]), exp))
            return
        if remaining > room[r]:
            return
        cap = caps[r]
        if r and mu[r - 1] == base[r - 1]:
            cap -= 1
        for x in range(min(cap, remaining), 0, -1):
            mu[r] += x
            # a new run of columns, unless it ends where the row above began
            # to grow; a new row takes a factor 2 off
            grown = exp + (r == 0 or mu[r] != base[r - 1]) - (r == len(lam))
            build(r + 1, remaining - x, grown)
            mu[r] -= x
        build(r + 1, remaining, exp)

    build(0, i, 0)
    return out


def filtered_strips(lam, i, n):
    """The horizontal i-strips over lam that stay strict with parts <= n, with their exponents."""
    return [
        (mu, pieri_exponent(lam, mu))
        for mu in _horizontal_strips(lam, i)
        if (not mu or mu[0] <= n) and all(a > b for a, b in zip(mu, mu[1:]))
    ]


def strips_pieri_map(n, d, i, strips):
    """sigma_i from degree d - i to d assembled from strips(lam, i, n) of each
    source, as {coefficient: per-source sorted target columns}."""
    index = _columns(n, n, 1, d)[1]
    hits = [strips(lam.parts, i, n) for lam in _columns(n, n, 1, d - i)[0]]
    return {
        1 << e: [sorted(index[mu] for mu, exp in found if exp == e) for found in hits]
        for e in sorted({exp for found in hits for _, exp in found})
    }


def test_strict_strips_are_the_filtered_strips():
    for n in range(1, 8):
        for lam in strict_partitions_in_triangle(n):
            for i in range(n + 2):
                want = sorted(filtered_strips(lam.parts, i, n))
                assert sorted(strict_strips(lam.parts, i, n)) == want, (n, lam, i)


def test_walked_pieri_maps_match_the_strip_search():
    # every i, sigma_i past n included (an empty map), at every degree; the
    # filtered strips are a second reference where they are cheap
    for n in range(1, 11):
        references = (strict_strips, filtered_strips) if n <= 7 else (strict_strips,)
        for d in range(n * (n + 1) // 2 + 1):
            for i in range(d + 1):
                walked = {c: [sorted(t) for t in targets] for c, targets in _pieri_map(n, n, 1, d, i)}
                for strips in references:
                    assert walked == strips_pieri_map(n, d, i, strips), (n, d, i, strips.__name__)


def test_single_box_tables_are_the_strict_one_strips():
    # each source's boxes are its one-box strips, rows increasing, each with
    # the row it grows and the new part: in the order n (cap n, n rows, gap
    # 1) against the strip search, and in the ell x k box (cap k, ell rows,
    # gap 0) against the unbounded strips cut to the box
    points = [(n, n, 1, lambda lam, n=n: [mu for mu, _ in strict_strips(lam, 1, n)]) for n in range(1, 9)]
    points += [
        (k, ell, 0, lambda lam, ell=ell, k=k: [mu for mu in _horizontal_strips(lam, 1) if Partition(mu).fits(ell, k)])
        for ell in range(1, 7)
        for k in range(1, 7)
    ]
    for cap, rows, gap, one_strips in points:
        tables = _tables(cap, rows, gap)[1]
        # no column past the ring's top degree, where the tables stop
        assert not _columns(cap, rows, gap, len(tables))[0], (cap, rows, gap)
        for d in range(1, len(tables)):
            index = _columns(cap, rows, gap, d)[1]
            targets, marks = tables[d]
            for lam, to, at in zip(_columns(cap, rows, gap, d - 1)[0], targets, marks):
                base = lam.parts + (0,)
                want = [
                    (index[mu], r, mu[r]) for mu in one_strips(lam.parts) for r in range(len(mu)) if mu[r] != base[r]
                ]
                got = [(t, r, p) for t, (r, p) in zip(to, at)]
                assert got == sorted(want, key=lambda box: box[1]), (cap, rows, gap, lam)


def reference_slices(n, m):
    """The subalgebra pieces built over e-monomials: multiply each basis row
    of degree d - i by e_i through `multiply` and insert."""
    slices = []
    for d in range(n * (n + 1) // 2 + 1):
        sl = DegreeSlice(d, tuple(strict_partitions_of_size(n, d)))
        if d == 0:
            sl.add_vector({Partition(): 1})
        for i in range(1, min(m, d) + 1):
            if sl.saturated:
                break
            for row in slices[d - i].basis_rows():
                if sl.saturated:
                    break
                image = multiply(SymVector(row), E(i), n)
                if not image.is_zero:
                    sl.add_vector(dict(image.items()))
        slices.append(sl)
    return slices


def test_schubert_builder_matches_rewriting_reference():
    for n in range(1, 7):
        for m in range(1, n + 1):
            built = lg_subalgebra_slices(n, m)
            ref = reference_slices(n, m)
            assert [sl.rank for sl in built] == [sl.rank for sl in ref], (n, m)
            for sl in built:
                # the columns are indices, which the oracle names
                assert sl.columns == range(len(ref[sl.degree].columns))
                assert _columns(n, n, 1, sl.degree)[0] == tuple(strict_partitions_of_size(n, sl.degree))
