from functools import cache, partial
from math import factorial

import pytest
from hypothesis import given, strategies as st

from qgrass import echelon, grassmann
from qgrass.echelon import DegreeSlice, exact_rank
from qgrass.grassmann import (
    BasisDegree,
    BasisReport,
    _basis_report,
    _k_schur_row,
    _slice_data,
    h_basis_report,
    kschur_basis_report,
    project,
    subalgebra_hilbert,
    subalgebra_slices,
)
from qgrass.kschur import k_schur
from qgrass.partitions import Partition, candidate_partitions, partitions_in_box_of_size
from qgrass.qseries import QPoly, grass_hilbert_series, grass_subalgebra_formula
from qgrass.schur import SymVector, _columns, _horizontal_strips, _pieri_map, _ring, h_to_schur, pieri_h

from oracles import dense_rows, generated_slices


def P(*parts):
    return Partition(parts)


def S(*parts):
    return SymVector.schur(P(*parts))


def standard_tableaux_count(lam):
    n = factorial(lam.size)
    for row in lam.hook_lengths():
        for h in row:
            n //= h
    return n


# --- projection -----------------------------------------------------------


def test_project_examples():
    assert project(S(2) + S(1, 1), 1, 2) == S(2)
    assert project(S(3, 3, 3), 3, 3) == S(3, 3, 3)
    assert project(h_to_schur(P(3)), 2, 2).is_zero
    # images of tall/wide shapes vanish, the rest survive
    v = h_to_schur(P(2, 2))
    kept = project(v, 2, 2)
    assert all(p.fits(2, 2) for p in kept)
    assert kept.coeff(P(2, 2)) == 1


# --- subalgebra Hilbert series ------------------------------------------------


def test_subalgebra_hilbert_examples():
    assert subalgebra_hilbert(3, 3, 3) == QPoly.from_coeffs([1, 1, 2, 3, 3, 3, 3, 2, 1, 1])
    assert subalgebra_hilbert(3, 3, 1) == QPoly.from_coeffs([1] * 10)
    for k in range(1, 6):
        assert subalgebra_hilbert(1, k, 1) == QPoly.from_coeffs([1] * (k + 1))
    assert subalgebra_hilbert(2, 2, 0) == QPoly.one()
    # a negative size or bound is rejected before the box's ring is built:
    # with both sizes negative, ell * k is positive
    rings = _ring.cache_info().currsize
    for point in [(2, 2, -1), (-2, -3, 1), (-1, 2, 1)]:
        with pytest.raises(ValueError):
            subalgebra_hilbert(*point)
        assert _ring.cache_info().currsize == rings, point


def reference_slices(ell, k, m):
    """The subalgebra pieces built over SymVectors: multiply each basis row
    of degree d - i by h_i, project to the box and insert."""
    slices = []
    for d in range(ell * k + 1):
        sl = DegreeSlice(d, tuple(partitions_in_box_of_size(ell, k, d)))
        if d == 0:
            sl.add_vector({Partition(): 1})
        for i in range(1, min(m, d) + 1):
            if sl.saturated:
                break
            for row in slices[d - i].basis_rows():
                if sl.saturated:
                    break
                image = project(pieri_h(i, SymVector(row)), ell, k)
                if not image.is_zero:
                    sl.add_vector(dict(image.items()))
        slices.append(sl)
    return slices


def test_integer_builder_matches_symvector_reference():
    # equal ranks, and every reference basis row in the built span: equal spans
    for ell in range(1, 6):
        for k in range(1, 6):
            for m in range(min(ell, k) + 1):
                built = _slice_data(ell, k, m)
                ref = reference_slices(ell, k, m)
                assert len(built) == len(ref) == ell * k + 1
                for got, want in zip(built, ref):
                    assert got.columns == want.columns
                    assert got.rank == want.rank, (ell, k, m, got.degree)
                    assert all(got.contains_row(row) for row in dense_rows(want)), (ell, k, m, got.degree)


@given(
    st.lists(st.integers(1, 6), max_size=5).map(lambda xs: tuple(sorted(xs, reverse=True))),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 7),
)
def test_box_bounded_strips_are_the_filtered_strips(parts, r, ell, k):
    ell = max(ell, len(parts))
    k = max(k, parts[0] if parts else 0)
    filtered = tuple(mu for mu in _horizontal_strips(parts, r) if Partition(mu).fits(ell, k))
    assert in_box_strips(ell, k, parts, r) == filtered


def in_box_strips(ell, k, parts, r):
    # the in-box h_r Pieri map's targets from parts, as partitions in the
    # lexicographically decreasing order of `_horizontal_strips`, read from
    # every coefficient group (there is none where no strip exists)
    d = sum(parts) + r
    src = _columns(k, ell, 0, d - r)[1][parts]
    cols = _columns(k, ell, 0, d)[0]
    groups = _pieri_map(k, ell, 0, d, r)
    assert all(c == 1 for c, _ in groups)
    return tuple(sorted((cols[t].parts for _, targets in groups for t in targets[src]), reverse=True))


def test_pieri_maps_reach_each_in_box_strip_once():
    # the walk through single-box additions against the filtered unbounded
    # strips: every i <= max(ell, k) at ell, k <= 6, and i <= 3 at 7x7
    points = [(ell, k, i) for ell in range(1, 7) for k in range(1, 7) for i in range(1, max(ell, k) + 1)]
    points += [(7, 7, i) for i in range(1, 4)]
    for ell, k, i in points:
        for d in range(i, ell * k + 1):
            # one group of coefficient 1, or none where no strip exists
            groups = _pieri_map(k, ell, 0, d, i)
            sources = _columns(k, ell, 0, d - i)[0]
            cols = _columns(k, ell, 0, d)[0]
            assert [c for c, _ in groups] in ([], [1]) and all(len(targets) == len(sources) for _, targets in groups)
            for j, lam in enumerate(sources):
                reach = [t for _, targets in groups for t in targets[j]]
                assert len(set(reach)) == len(reach), (ell, k, d, i, lam)
                want = {mu for mu in _horizontal_strips(lam.parts, i) if len(mu) <= ell and (not mu or mu[0] <= k)}
                assert {cols[t].parts for t in reach} == want, (ell, k, d, i, lam)


def test_stretch_points_match_closed_form():
    # the points past the default sweep grid that the benchmark times
    for ell, k, m in [(7, 7, 2), (6, 6, 3)]:
        assert subalgebra_hilbert(ell, k, m) == grass_subalgebra_formula(ell, k, m)


def test_subalgebra_full_generation_matches_closed_form():
    for ell in range(1, 5):
        for k in range(1, 5):
            full = subalgebra_hilbert(ell, k, min(ell, k))
            assert full == grass_hilbert_series(ell, k)
            # extra generators beyond the minimum change nothing
            assert subalgebra_hilbert(ell, k, min(ell, k) + 1) == full


@pytest.mark.parametrize("ell, k", [(2, 5), (5, 2), (3, 4), (4, 3), (3, 3), (1, 6), (6, 1)])
def test_generators_past_h_k_add_nothing(ell, k):
    # h_i with i > k adds a horizontal strip of more than k boxes, at most one
    # per column, so its in-box Pieri map is empty at every degree, and a
    # build over h_1..h_m, m = k + 1..k + 3, has the spans of m = k, as the
    # reference build over every h_i to h_m shows
    columns = [_columns(k, ell, 0, d)[0] for d in range(ell * k + 1)]
    want = [(s.rank, tuple(s.pivots)) for s in subalgebra_slices(ell, k, k)]
    for m in range(k + 1, k + 4):
        assert not any(t for d in range(m, ell * k + 1) for _, targets in _pieri_map(k, ell, 0, d, m) for t in targets)
        assert [(s.rank, tuple(s.pivots)) for s in subalgebra_slices(ell, k, m)] == want, m
        reference = generated_slices(columns, partial(_pieri_map, k, ell, 0), range(1, m + 1))
        assert [(sl.rank, sl.pivots) for sl in reference] == want, m
        assert subalgebra_hilbert(ell, k, m) == subalgebra_hilbert(ell, k, k), m


def _fresh_box_builds():
    _ring.cache_clear()


@pytest.mark.parametrize("p", [echelon.P, 2], ids=["real-prime", "prime-2"])
def test_saturation_record_matches_cold_builds(monkeypatch, p):
    # Every m of a box, built through a warm record in ascending and in
    # descending order of m, has the series of a cold build and of the closed
    # form; past min(ell, k) the subalgebra is the ring.  At p = 2 the
    # saturated degrees are often proved by the exact fallback.
    monkeypatch.setattr(echelon, "P", p)
    try:
        for ell in range(6):
            for k in range(6):
                bounds = range(max(ell, k) + 1)
                cold = {}
                for m in bounds:
                    _fresh_box_builds()
                    cold[m] = subalgebra_hilbert(ell, k, m)
                    assert cold[m] == grass_subalgebra_formula(ell, k, min(ell, k, m)), (ell, k, m)
                for order in (bounds, bounds[::-1]):
                    _fresh_box_builds()
                    assert {m: subalgebra_hilbert(ell, k, m) for m in order} == cold, (ell, k, order)
    finally:
        _fresh_box_builds()


def test_bounds_of_a_box_share_its_monomial_rows(monkeypatch):
    # after the build of (6, 6, 3), the build of m = 4 reads monomial rows
    # that m = 3 built and pushes only rows the box's ring does not hold yet
    _fresh_box_builds()
    try:
        subalgebra_hilbert(6, 6, 3)
        ring = _ring(6, 6, 0)
        held, read, written = set(ring._rows), [], []

        class Recording(dict):
            def __setitem__(self, parts, row):
                written.append(parts)
                super().__setitem__(parts, row)

        monkeypatch.setattr(ring, "_rows", Recording(ring._rows))
        monomial_row = ring.monomial_row
        monkeypatch.setattr(ring, "monomial_row", lambda parts: read.append(parts) or monomial_row(parts))
        assert subalgebra_hilbert(6, 6, 4) == grass_subalgebra_formula(6, 6, 4)
        assert written and len(set(written)) == len(written) and not held & set(written)
        assert held & set(read)
    finally:
        _fresh_box_builds()


def test_saturation_record_skips_recorded_degrees(monkeypatch):
    # after the build of (6, 6, 5), the build of m = 6 runs `exact_rank`
    # only at the degrees that build did not prove saturated
    _fresh_box_builds()
    try:
        subalgebra_hilbert(6, 6, 5)
        recorded = {d for d, m in _ring(6, 6, 0).saturated.items() if m <= 5}
        ranked = []

        def watched_exact_rank(d, columns, rows):
            ranked.append(d)
            return exact_rank(d, columns, rows)

        monkeypatch.setattr(echelon, "exact_rank", watched_exact_rank)
        assert subalgebra_hilbert(6, 6, 6) == grass_hilbert_series(6, 6)
        assert recorded and sorted(ranked) == sorted(set(range(37)) - recorded)
    finally:
        _fresh_box_builds()


def test_subalgebra_symmetry_small():
    # omega maps H*(Gr(ell, ell + k)) onto H*(Gr(k, ell + k)), sends h_i to
    # e_i, and Q[h_1..h_m] = Q[e_1..e_m]: the series and the formula are both
    # symmetric in ell and k
    for k in range(1, 7):
        for ell in range(1, k):
            for m in range(ell + 1):
                assert subalgebra_hilbert(ell, k, m) == subalgebra_hilbert(k, ell, m), (ell, k, m)
                assert grass_subalgebra_formula(ell, k, m) == grass_subalgebra_formula(k, ell, m), (ell, k, m)


def test_subalgebra_monotone_in_m():
    for ell, k in [(3, 3), (2, 4), (4, 3)]:
        prev = subalgebra_hilbert(ell, k, 0)
        for m in range(1, min(ell, k) + 1):
            cur = subalgebra_hilbert(ell, k, m)
            diff = cur - prev
            assert all(c >= 0 for c in diff.coeffs())
            prev = cur


def test_proven_extreme_cases_small():
    for ell in range(1, 5):
        for k in range(1, 5):
            for m in (0, 1, min(ell, k)):
                assert subalgebra_hilbert(ell, k, m) == grass_subalgebra_formula(ell, k, m)


def test_top_power_of_h1_is_rectangle_tableaux_count():
    for ell in range(1, 5):
        for k in range(1, 5):
            v = SymVector.unit()
            for _ in range(ell * k):
                v = project(pieri_h(1, v), ell, k)
            rect = Partition([k] * ell)
            assert v == SymVector({rect: standard_tableaux_count(rect)})


# --- membership ------------------------------------------------------------------


def test_contains_examples():
    spans = subalgebra_slices(3, 3, 1)
    assert spans[1].contains_row([0])
    assert spans[1].contains_row(dense(project(S(1), 3, 3), 3, 3, 1))
    # h_2's image is independent of the h_1-generated line in degree 2
    assert not spans[2].contains_row(dense(project(h_to_schur(P(2)), 3, 3), 3, 3, 2))
    for terms in spans[3].row_terms():
        row = [0] * len(spans[3].columns)
        for j, a in terms:
            row[j] = a
        assert spans[3].contains_row(row)
    # a row over degree 1's columns
    with pytest.raises(ValueError):
        spans[2].contains_row(dense(project(S(1), 3, 3), 3, 3, 1))


# --- candidate basis reports --------------------------------------------------------


def test_h_basis_report_small_cases_pass():
    for ell, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for m in range(1, min(ell, k) + 1):
            report = h_basis_report(ell, k, m)
            assert report.verdict, report


def test_kschur_basis_report_small_cases_pass():
    for ell, k in [(2, 2), (3, 3)]:
        for m in range(1, min(ell, k) + 1):
            report = kschur_basis_report(ell, k, m)
            assert report.verdict, report


def test_basis_report_shape_and_counts():
    report = h_basis_report(3, 3, 2)
    assert (report.ell, report.k, report.m) == (3, 3, 2)
    assert report.verdict is True
    assert [e.degree for e in report.degrees] == list(range(10))
    assert report.degrees[0]._fields == ("degree", "candidates", "rank", "dim", "independent", "spans", "contained")
    # candidate counts per degree trace the closed formula
    formula = grass_subalgebra_formula(3, 3, 2)
    assert [e.candidates for e in report.degrees] == formula.coeffs()


def test_basis_report_degree0_is_trivial():
    report = h_basis_report(2, 2, 1)
    first = report.degrees[0]
    assert first.candidates == first.rank == first.dim == 1
    assert first.ok


def test_basis_report_validation():
    with pytest.raises(ValueError):
        h_basis_report(3, 3, 0)
    with pytest.raises(ValueError):
        kschur_basis_report(3, 3, 4)


def test_kschur_basis_m1_matches_h_basis_columns():
    # the level-1 functions indexed by columns are plain h-powers
    ra = h_basis_report(3, 3, 1)
    rb = kschur_basis_report(3, 3, 1)
    assert [e.rank for e in ra.degrees] == [e.rank for e in rb.degrees]


def test_basis_reports_stay_exact_under_a_bad_prime(monkeypatch):
    # mod 2 the in-box rows lose rank at many degrees where they are
    # independent over Q, so the exact probe must settle every such degree.
    # The probe is the fallback `DegreeSlice` of a report's own `exact_rank`
    # call; the spans of the subalgebra may build slices too (their builds'
    # fallbacks, and the exact slices of their first membership tests), so a
    # probe is a slice built while that call runs.  Under the bad prime the
    # spans are built again, so their mod-2 pivots cut the candidates.
    findings = [(2, 5, 2), (5, 2, 2)]
    points = [(ell, k, m) for ell in range(1, 5) for k in range(1, 5) for m in range(1, min(ell, k) + 1)]
    built = []
    probes = []

    class Watched(DegreeSlice):
        def __init__(self, degree, columns):
            built.append(degree)
            super().__init__(degree, columns)

    def watched_exact_rank(d, columns, rows):
        before = len(built)
        span = exact_rank(d, columns, rows)
        if len(built) > before:
            probes.append(d)
        return span

    def reports(point):
        before = len(probes)
        return (h_basis_report(*point), kschur_basis_report(*point)), len(probes) > before

    monkeypatch.setattr(echelon, "DegreeSlice", Watched)
    monkeypatch.setattr(grassmann, "exact_rank", watched_exact_rank)
    want = {}
    for point in points + findings:
        want[point], probed = reports(point)
        # at the real prime only the Findings fall short of their candidates
        assert probed == (point in findings), point
    _slice_data.cache_clear()
    _ring.cache_clear()
    monkeypatch.setattr(echelon, "P", 2)
    probed = set()
    try:
        for point in points + findings:
            got, ran = reports(point)
            assert got == want[point], point
            if ran:
                probed.add(point)
    finally:
        _slice_data.cache_clear()
        _ring.cache_clear()
    assert {(2, 5, 2), (5, 2, 2), (3, 3, 2), (4, 4, 4)} <= probed


def test_basis_report_cuts_to_pivots_only_after_containment():
    # A_3 of (3, 3, 2) has rank 2 in 3 columns: a unit row at its free column
    # lies outside A_3 and is zero on its pivots, so only the full columns
    # see its rank
    sl = subalgebra_slices(3, 3, 2)[3]
    (free,) = set(range(len(sl.columns))) - set(sl.pivots)
    outside = tuple(int(j == free) for j in range(len(sl.columns)))
    h_row = _ring(3, 3, 0).monomial_row
    report = _basis_report(3, 3, 2, lambda lam: outside if lam.size == 3 else h_row(lam.parts[::-1]))
    assert report.degrees[3] == BasisDegree(
        degree=3, candidates=2, rank=1, dim=2, independent=False, spans=False, contained=False
    )
    reference = h_basis_report(3, 3, 2)
    assert report.degrees[:3] + report.degrees[4:] == reference.degrees[:3] + reference.degrees[4:]


def test_candidate_sets_are_sized_by_the_formula():
    for ell, k in [(2, 2), (3, 3), (4, 3)]:
        for m in range(1, min(ell, k) + 1):
            sizes = {}
            for lam in candidate_partitions(ell, k, m):
                sizes[lam.size] = sizes.get(lam.size, 0) + 1
            assert QPoly(sizes) == grass_subalgebra_formula(ell, k, m)


# --- in-box candidate rows against the SymVector reference --------------------

SMALL_BOXES = [(ell, k) for ell in range(1, 6) for k in range(1, 6)]
FINDINGS_BOXES = [(2, 5), (3, 5), (4, 5), (5, 2), (6, 2)]


def dense(v, ell, k, d):
    """A projected SymVector of degree d as a row over the box columns."""
    cols = _columns(k, ell, 0, d)[0]
    assert set(v) <= set(cols)
    return tuple(v.coeff(p) for p in cols)


def reference_h(ell, k):
    return lambda lam: project(h_to_schur(lam), ell, k)


def reference_kschur(ell, k):
    return lambda lam: project(k_schur(lam, lam.first), ell, k)


@cache
def reference_pieces(ell, k, m):
    # the exact pieces of the second algorithm, not the engine's spans
    columns = [_columns(k, ell, 0, d)[0] for d in range(ell * k + 1)]
    return generated_slices(columns, partial(_pieri_map, k, ell, 0), range(1, m + 1))


def reference_basis_report(ell, k, m, vector_of):
    """The basis report over SymVectors: expand each candidate over all Schur
    terms, project it to the box, and test it with add_vector and
    contains_vector against the exact pieces of `generated_slices`."""
    slices = reference_pieces(ell, k, m)
    by_degree = {d: [] for d in range(ell * k + 1)}
    for lam in candidate_partitions(ell, k, m):
        by_degree[lam.size].append(lam)
    entries = []
    for d in range(ell * k + 1):
        sl = slices[d]
        vectors = [vector_of(lam) for lam in by_degree[d]]
        probe = DegreeSlice(d, sl.columns)
        for vec in vectors:
            if not vec.is_zero:
                probe.add_vector(dict(vec.items()))
        rank = probe.rank
        entries.append(
            BasisDegree(
                degree=d,
                candidates=len(vectors),
                rank=rank,
                dim=sl.rank,
                independent=rank == len(vectors),
                spans=rank == sl.rank,
                contained=all(sl.contains_vector(dict(vec.items())) for vec in vectors),
            )
        )
    return BasisReport(ell=ell, k=k, m=m, degrees=tuple(entries))


def test_in_box_candidate_rows_match_projected_expansions():
    for ell, k in SMALL_BOXES:
        lams = {lam for m in range(1, min(ell, k) + 1) for lam in candidate_partitions(ell, k, m)}
        for lam in lams:
            d = lam.size
            h_row = _ring(k, ell, 0).monomial_row(lam.parts[::-1])
            assert tuple(h_row) == dense(reference_h(ell, k)(lam), ell, k, d), (ell, k, lam)
            assert _k_schur_row(ell, k, lam.parts, lam.first) == dense(
                reference_kschur(ell, k)(lam), ell, k, d
            ), (ell, k, lam)


def test_basis_reports_match_symvector_reference():
    for ell, k in SMALL_BOXES + FINDINGS_BOXES:
        for m in range(1, min(ell, k) + 1):
            assert h_basis_report(ell, k, m) == reference_basis_report(
                ell, k, m, reference_h(ell, k)
            ), (ell, k, m)
            assert kschur_basis_report(ell, k, m) == reference_basis_report(
                ell, k, m, reference_kschur(ell, k)
            ), (ell, k, m)
