import functools
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, strategies as st

from qgrass import echelon, grassmann, lagrangian, modp, schur
from qgrass.echelon import DegreeSlice, PackedRank, Ring, _monomials, apply_map, exact_rank, generated
from qgrass.schur import _pieri_map

from oracles import _columns, _slice_of, dense_rows, generated_slices


def test_rank_and_redundancy():
    sl = DegreeSlice(2, ("a", "b", "c"))
    assert sl.add_vector({"a": 1, "b": 2})
    assert not sl.add_vector({"a": 2, "b": 4})
    assert sl.add_vector({"b": 1, "c": 1})
    assert sl.rank == 2
    assert not sl.saturated
    assert sl.add_vector({"c": 7})
    assert sl.saturated


def test_contains_vector():
    sl = DegreeSlice(1, ("a", "b", "c"))
    sl.add_vector({"a": 1, "b": 1})
    sl.add_vector({"b": 1, "c": 1})
    assert sl.contains_vector({})
    assert sl.contains_vector({"a": 2, "b": 2})
    assert sl.contains_vector({"a": 1, "c": -1})
    assert not sl.contains_vector({"a": 1, "c": 1})


def test_unknown_coordinate_rejected():
    sl = DegreeSlice(1, ("a",))
    with pytest.raises(ValueError):
        sl.add_vector({"z": 1})


def test_rational_input_rejected_and_primitive_rows():
    sl = DegreeSlice(3, ("a", "b", "c"))
    with pytest.raises(TypeError):
        sl.add_vector({"a": Fraction(1, 2), "b": Fraction(1, 3)})
    with pytest.raises(TypeError):
        sl.add_vector({"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(5, 7)})
    assert sl.rank == 0
    sl.add_vector({"a": 6, "b": 4})
    sl.add_vector({"a": 21, "b": 14, "c": 30})
    rows = sl.basis_rows()
    assert rows == [{"a": 3, "b": 2}, {"c": 1}]
    pivots = sl.pivots
    assert list(pivots) == sorted(pivots)
    for row, p in zip(rows, pivots):
        assert row[sl.columns[p]] > 0 and gcd(*row.values()) == 1
        # pivot columns are eliminated from every other row
        for other in rows:
            if other is not row:
                assert sl.columns[p] not in other


@pytest.mark.parametrize("c", [Fraction(1, 2), 0.5, Fraction(2), True], ids=repr)
def test_non_int_entries_rejected(c):
    sl = DegreeSlice(1, ("a", "b"))
    sl.add_vector({"a": 1})
    with pytest.raises(TypeError):
        sl.add_vector({"b": c})
    with pytest.raises(TypeError):
        sl.contains_vector({"a": c})
    assert sl.rank == 1 and sl.basis_rows() == [{"a": 1}]


def _rank_oracle(rows):
    # plain fraction Gaussian elimination, no pivots shared with the class
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c] / mat[rank][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_rank_matches_dense_oracle_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        nrows = rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        sl = DegreeSlice(0, tuple(range(ncols)))
        for row in rows:
            sl.add_vector({i: v for i, v in enumerate(row) if v})
        assert sl.rank == _rank_oracle(rows)
        for row in rows:
            assert sl.contains_vector({i: v for i, v in enumerate(row) if v})


def test_contains_row_agrees_with_contains_vector():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(40):
        ncols = rng.randint(1, 6)
        sl = DegreeSlice(0, tuple(range(ncols)))
        for _ in range(rng.randint(0, ncols)):
            sl.add_row([rng.randint(-3, 3) for _ in range(ncols)])
        for _ in range(10):
            row = [rng.randint(-3, 3) for _ in range(ncols)]
            inside = sl.contains_row(row)
            assert inside == sl.contains_vector({i: v for i, v in enumerate(row) if v})
            seen.add(inside)
        for row in dense_rows(sl):
            assert sl.contains_row(row)
    assert seen == {True, False}


def test_contains_row_rejects_wrong_length():
    sl = DegreeSlice(1, ("a", "b"))
    sl.add_row([1, 0])
    assert sl.contains_row([2, 0])
    assert not sl.contains_row([0, 1])
    with pytest.raises(ValueError):
        sl.contains_row([1])
    with pytest.raises(ValueError):
        sl.contains_row([1, 0, 0])


# rows to insert and probes, entries small or up to 60 bits
_entry = st.integers(-3, 3) | st.integers(-(1 << 60), 1 << 60)
_rows_and_probes = st.integers(1, 6).flatmap(
    lambda width: st.tuples(*[st.lists(st.lists(_entry, min_size=width, max_size=width), max_size=6)] * 2)
    .map(lambda rows_probes: (width, *rows_probes))
)


@given(_rows_and_probes)
@example((3, [[1, 2, 0], [0, 1, 1 << 60]], [[1, 3, 1 << 60], [1, 3, (1 << 60) + 1]]))
def test_contains_row_is_the_reduction_to_zero(width_rows_probes):
    # the packed check against the reduction it replaced: after every insert
    # (which drops the packed tails), for probes off the span, the zero row,
    # rows and sums of rows inserted so far, and those times 2^60
    width, rows, probes = width_rows_probes
    sl = DegreeSlice(0, tuple(range(width)))
    seen = set()
    for n, row in enumerate([[0] * width] + rows):
        sl.add_row(row)
        inserted = [row] + rows[:n]
        sums = [[a + b for a, b in zip(r, s)] for r, s in zip(inserted, inserted[1:])]
        for probe in probes + inserted + sums + [[a << 60 for a in r] for r in inserted + probes]:
            inside = sl.contains_row(probe)
            assert inside == (not any(sl._reduced(probe))), (sl._pivots, probe)
            seen.add(inside)
    with pytest.raises(ValueError):
        sl.contains_row([0] * (width + 1))
    assert True in seen


# --- the dense reference echelon ----------------------------------------------


def _dense_normalized(row):
    g = gcd(*row)
    if g == 0:
        return row
    if next(filter(None, row)) < 0:
        g = -g
    return row if g == 1 else [a // g for a in row]


class DenseEchelon:
    """The fraction-free echelon over dense rows that `DegreeSlice` replaced,
    frozen as a reference: every stored row is a full list over the columns,
    reduced against all of them and normalised as a whole."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def _reduced(self, row):
        hits = [(row[p], prow, prow[p]) for prow, p in zip(self.rows, self.pivots) if row[p]]
        if not hits:
            return row
        scale = lcm(*(lead for _, _, lead in hits))
        row = [a * scale for a in row]
        for c, prow, lead in hits:
            f = c * (scale // lead)
            row = [a - f * b for a, b in zip(row, prow)]
        return row

    def add_row(self, row):
        row = self._reduced(list(row))
        if not any(row):
            return False
        row = _dense_normalized(row)
        pivot = next(i for i, a in enumerate(row) if a)
        lead = row[pivot]
        for i, prow in enumerate(self.rows):
            c = prow[pivot]
            if c:
                self.rows[i] = _dense_normalized([a * lead - b * c for a, b in zip(prow, row)])
        pos = bisect_left(self.pivots, pivot)
        self.rows.insert(pos, row)
        self.pivots.insert(pos, pivot)
        return True

    def contains_row(self, row):
        return not any(self._reduced(list(row)))


def _random_row(rng, ncols, bound, density):
    return [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(ncols)]


def _combination(rng, rows, ncols):
    out = [0] * ncols
    for row in rows:
        c = rng.randint(-5, 5)
        out = [a + c * b for a, b in zip(out, row)]
    return out


def _random_sequence(rng, ncols):
    """Integer rows with entries up to 3, 2^20 or 2^70 in size and of varying
    density: ncols or more random ones (saturating) or combinations of fewer
    than ncols (rank deficient), with zero rows and repeated, rescaled rows
    mixed in."""
    bound = rng.choice([3, 2**20, 2**70])
    density = rng.choice([0.2, 0.5, 1.0])
    if rng.random() < 0.5:
        rows = [_random_row(rng, ncols, bound, density) for _ in range(ncols + rng.randint(0, 3))]
    else:
        base = [_random_row(rng, ncols, bound, density) for _ in range(rng.randint(0, ncols - 1))]
        rows = [_combination(rng, base, ncols) for _ in range(len(base) + rng.randint(0, 3))]
    for _ in range(rng.randint(0, 3)):
        extra = [0] * ncols
        if rows and rng.random() < 0.7:
            scale = rng.choice([1, -1, 3, -(2**40)])
            extra = [scale * a for a in rng.choice(rows)]
        rows.insert(rng.randint(0, len(rows)), extra)
    return rows


def test_free_column_echelon_matches_dense_reference():
    rng = random.Random(20261018)
    seen = {"saturated": 0, "deficient": 0, "redundant": 0, "inside": 0, "outside": 0}
    for _ in range(400):
        ncols = rng.randint(1, 12)
        rows = _random_sequence(rng, ncols)
        sl = DegreeSlice(0, tuple(range(ncols)))
        ref = DenseEchelon()
        for row in rows:
            added = sl.add_row(row)
            assert added == ref.add_row(row)
            seen["redundant"] += not added
        assert sl.rank == len(ref.rows)
        assert sl.pivots == tuple(ref.pivots)
        assert dense_rows(sl) == ref.rows
        assert sl.saturated == (sl.rank == ncols)
        seen["saturated" if sl.saturated else "deficient"] += 1
        probes = rows + [_combination(rng, rows, ncols) for _ in range(3)]
        probes += [_random_row(rng, ncols, 2**70, 0.5) for _ in range(3)]
        for probe in probes:
            inside = sl.contains_row(probe)
            assert inside == ref.contains_row(probe)
            seen["inside" if inside else "outside"] += 1
        # the stored rows depend only on the span
        shuffled = rows[:]
        rng.shuffle(shuffled)
        again = DegreeSlice(0, tuple(range(ncols)))
        for row in shuffled:
            again.add_row(row)
        assert again.pivots == sl.pivots
        assert dense_rows(again) == dense_rows(sl)
    assert all(seen.values()), seen


# --- the push-every-row reference builder -------------------------------------


def push_every_row_slices(columns, pieri_map, m):
    """The builder that `generated_slices` replaced, frozen as a reference:
    every stored row of degree d - i is pushed through the degree-i
    generator, for every i, until the degree-d piece saturates."""
    slices = []
    for d, cols in enumerate(columns):
        sl = DegreeSlice(d, cols)
        if d == 0:
            sl.add_row([1])
        for i in range(1, min(m, d) + 1):
            if sl.saturated:
                break
            step = pieri_map(d, i)
            for src in slices[d - i].row_terms():
                if sl.saturated:
                    break
                sl.add_row(apply_map(src, step, len(sl.columns)))
        slices.append(sl)
    return tuple(slices)


def _assert_same_slices(built, ref, point):
    assert len(built) == len(ref)
    for got, want in zip(built, ref):
        assert got.columns == want.columns
        assert got._pivots == want._pivots, (point, got.degree)
        assert dense_rows(got) == dense_rows(want), (point, got.degree)


def test_generated_slices_match_push_every_row_reference_in_boxes():
    for ell in range(1, 7):
        for k in range(1, 7):
            columns = [_columns(k, ell, 0, d)[0] for d in range(ell * k + 1)]
            pieri = functools.partial(_pieri_map, k, ell, 0)
            # generators past min(ell, k) are redundant but legal
            for m in range(max(ell, k) + 1):
                built = generated_slices(columns, pieri, range(1, m + 1))
                _assert_same_slices(built, push_every_row_slices(columns, pieri, m), (ell, k, m))


def test_generated_slices_match_push_every_row_reference_for_lg(monkeypatch):
    # The odd generators alone span what every generator spans (the lg-stab
    # theorem), so their build has the same reduced rows.  The build is
    # watched as it runs: the higher generators go through `_monomials`, and
    # only the smallest one reads the stored rows, so no slice's rows are
    # read twice.
    seen = set()
    monomials, row_terms = echelon._monomials, DegreeSlice.row_terms

    def recording_monomials(parts):
        seen.add("monomials")
        return monomials(parts)

    def recording_row_terms(self):
        reads[id(self)] += 1
        return row_terms(self)

    for n in range(1, 10):
        columns = [_columns(n, n, 1, d)[0] for d in range(n * (n + 1) // 2 + 1)]
        pieri = functools.partial(_pieri_map, n, n, 1)
        for m in range(1, n + 1):
            reads = Counter()
            with monkeypatch.context() as mp:
                mp.setattr(echelon, "_monomials", recording_monomials)
                mp.setattr(DegreeSlice, "row_terms", recording_row_terms)
                built = generated_slices(columns, pieri, range(1, m + 1, 2))
            assert reads and max(reads.values()) == 1, (n, m)
            _assert_same_slices(built, push_every_row_slices(columns, pieri, m), (n, m))
    assert seen == {"monomials"}


def test_monomial_counts_and_enumeration_match_brute_force():
    top = 14
    ranges = [tuple(range(lo, hi + 1)) for lo in range(1, 5) for hi in range(lo - 1, 7)]
    for parts in ranges + [(1, 3, 5), (3, 5), (2,), (1, 3, 5, 7, 9, 11, 13), (2, 3, 7), (4, 9)]:
        monomials = _monomials(parts)
        for e in range(top + 1):
            brute = sorted(
                t for r in range(e + 1) for t in combinations_with_replacement(parts, r) if sum(t) == e
            )
            assert monomials(e) == brute, (e, parts)
        # read out of order, a degree's list is the same
        assert _monomials(parts)(top) == monomials(top), parts
    # parts past the degree never fit, and long monomials do not recurse
    wide, narrow = _monomials(range(2, 5001)), _monomials(range(2, 10))
    assert [wide(e) for e in range(10)] == [narrow(e) for e in range(10)]
    monomials = _monomials((2,))
    assert monomials(2101) == []
    assert monomials(2100) == [(2,) * 1050]


def _count_apply_map(monkeypatch):
    # Every `apply_map` call of a build: the spanning rows pulled and the
    # monomial rows behind them, each monomial row once per ring.  Both
    # builders stop pulling right after the insert that fills a piece, so
    # they build the same rows; a check of saturation before each insert
    # would build one row more per full degree.
    calls = []

    def counting_apply_map(terms, pieri_map, width):
        calls.append(width)
        return apply_map(terms, pieri_map, width)

    monkeypatch.setattr(echelon, "apply_map", counting_apply_map)
    return calls


@pytest.mark.parametrize(
    "space, size, m, inserts, zeros, maps",
    [
        ("box", (6, 6), 3, 712, 50, 711),
        ("box", (7, 7), 2, 507, 16, 506),
        ("box", (5, 5), 5, 264, 12, 264),
        ("lg", (9,), 5, 480, 14, 479),
        ("lg", (10,), 5, 883, 35, 882),
        ("lg", (11,), 3, 573, 11, 572),
    ],
    ids=["box-6x6-m3", "box-7x7-m2", "box-5x5-m5", "lg-9-m5", "lg-10-m5", "lg-11-m3"],
)
def test_generated_slices_echelon_work(monkeypatch, space, size, m, inserts, zeros, maps):
    # The echelon work of a build, unit included: every `add_row` call, and
    # how many reduce to zero, and every row built.  A change of spanning
    # sets or of their order shows here before it shows in a timing.
    results = []
    add_row = DegreeSlice.add_row

    def counting_add_row(self, row):
        results.append(add_row(self, row))
        return results[-1]

    if space == "box":
        ell, k = size
        columns = [_columns(k, ell, 0, d)[0] for d in range(ell * k + 1)]
        pieri, degrees = functools.partial(_pieri_map, k, ell, 0), range(1, m + 1)
    else:
        (n,) = size
        columns = [_columns(n, n, 1, d)[0] for d in range(n * (n + 1) // 2 + 1)]
        pieri, degrees = functools.partial(_pieri_map, n, n, 1), range(1, m + 1, 2)
    monkeypatch.setattr(DegreeSlice, "add_row", counting_add_row)
    built = _count_apply_map(monkeypatch)
    generated_slices(columns, pieri, degrees)
    assert (len(results), results.count(False), len(built)) == (inserts, zeros, maps)


# --- the packed mod-p rank path -----------------------------------------------


def _point(space, size, m):
    # the builders' arguments at a box (ell, k) or a Lagrangian n, with
    # the odd generators up to m in the Lagrangian ring
    if space == "box":
        ell, k = size
        columns = [_columns(k, ell, 0, d)[0] for d in range(ell * k + 1)]
        return columns, functools.partial(_pieri_map, k, ell, 0), range(1, m + 1)
    (n,) = size
    columns = [_columns(n, n, 1, d)[0] for d in range(n * (n + 1) // 2 + 1)]
    return columns, functools.partial(_pieri_map, n, n, 1), range(1, m + 1, 2)


def _cold_build(columns, pieri_map, degrees):
    # every span of a build on a fresh ring: no row kept, nothing recorded
    return tuple(generated(Ring(columns, pieri_map), degrees))


def _rank_points():
    # every box with ell, k <= 6 (0 included) and m <= max(ell, k), and every
    # Lagrangian n <= 10 with odd m: 252 + 30 points
    boxes = [("box", (ell, k), m) for ell in range(7) for k in range(7) for m in range(max(ell, k) + 1)]
    return boxes + [("lg", (n,), m) for n in range(1, 11) for m in range(1, n + 1, 2)]


def test_generated_ranks_match_generated_slices():
    points = _rank_points()
    assert len(points) == 282
    for point in points:
        args = _point(*point)
        want = tuple(sl.rank for sl in generated_slices(*args))
        assert tuple(span.rank for span in _cold_build(*args)) == want, point


def _watch_exact_degrees(monkeypatch):
    # the degrees at which `generated` falls back to the exact echelon
    seen = []

    class Watched(DegreeSlice):
        def __init__(self, degree, columns):
            seen.append(degree)
            super().__init__(degree, columns)

    monkeypatch.setattr(echelon, "DegreeSlice", Watched)
    return seen


def test_generated_ranks_stay_exact_under_a_bad_prime(monkeypatch):
    # mod 2 every Lagrangian Pieri coefficient 2^e with e >= 1 vanishes, so
    # some ranks fall short and the exact echelon must settle those degrees
    points = [("lg", (n,), m) for n in range(2, 9) for m in range(1, n + 1, 2)] + [("box", (4, 4), 2)]
    want = {point: tuple(sl.rank for sl in generated_slices(*_point(*point))) for point in points}
    exact = _watch_exact_degrees(monkeypatch)
    monkeypatch.setattr(echelon, "_rank_prime", lambda width: 2)
    for point in points:
        assert tuple(span.rank for span in _cold_build(*_point(*point))) == want[point], point
    assert exact


def _is_prime(q):
    return q > 1 and all(q % f for f in range(2, int(q**0.5) + 1))


def test_packed_rank_asserts_the_slot_bound():
    # at most width multiples of p - 1 land on a slot, so width * p^2 + p
    # must stay below 2^64: about 2^24 columns at p = 2^20 - 3, and the check
    # reads the prime given.  The rank prime and every residue prime meet it
    # for every width of the same bit length b: each is a prime below 2^30,
    # largest first, the rank prime the first, and no larger prime meets it
    # for 2^b columns.
    assert ((1 << 64) - P20 - 1) // P20**2 >= 1 << 23
    for p in (P20, (1 << 31) - 1):
        widest = ((1 << 64) - p - 1) // (p * p)
        assert PackedRank(widest, p).rank == 0
        with pytest.raises(OverflowError):
            PackedRank(widest + 1, p)
    for width in (1, 2, 15, 16, 17, 155, 409, 4500, 1 << 23):
        primes = list(islice(modp._residue_primes(width), 4))
        assert primes == sorted(set(primes), reverse=True) and len(primes) == 4, width
        assert echelon._rank_prime(width) == primes[0]
        for q in primes:
            assert q < 1 << 30 and width * q * q + q < 1 << 64 and _is_prime(q), (width, q)
            assert PackedRank(width, q).rank == 0
        # a width shares its primes with every width of its bit length
        widest = (1 << width.bit_length()) - 1
        assert primes == list(islice(modp._residue_primes(widest), 4))
        above = range(primes[0] + 1, min(1 << 30, isqrt((1 << 64) // (widest + 1)) + 1))
        assert not any((widest + 1) * q * q + q < 1 << 64 and _is_prime(q) for q in above), width


def test_residue_primes_are_the_primes():
    # Miller-Rabin to the bases 2, 3, 5 and 7 against trial division, at the
    # smallest strong pseudoprimes to base 2, to 2 and 3, and to 2, 3 and 5
    odd = [q for q in range(11, 20000, 2)] + [2047, 1373653, 25326001, 3215031749, (1 << 30) - 35]
    assert [q for q in odd if modp._is_prime(q)] == [q for q in odd if _is_prime(q)]


def _rank_mod(rows, p):
    # plain Gaussian elimination over F_p
    mat = [[a % p for a in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inverse = pow(mat[rank][c], -1, p)
        mat[rank] = [a * inverse % p for a in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


P20 = (1 << 20) - 3  # a prime whose multiples the rows below plant

_entries = st.integers(-4, 4) | st.sampled_from([P20, -P20, 2 * P20 + 1, 3 << 40])


@given(st.integers(1, 7).flatmap(lambda width: st.lists(st.lists(_entries, min_size=width, max_size=width), max_size=9)))
def test_packed_rank_is_the_rank_mod_p(rows):
    width = len(rows[0]) if rows else 3
    packed = PackedRank(width, P20)
    grew = [packed.add_row(row) for row in rows]
    assert packed.rank == grew.count(True) == _rank_mod(rows, P20)
    assert packed.rank <= _rank_oracle(rows)


def _watch_residues(monkeypatch):
    # the prime of every residue the fallbacks draw past the rank pass's own,
    # and every reconstruction the exact check reads
    primes, checked = [], []
    packed_rank, reconstructed = echelon._packed_rank, echelon._reconstructed

    def counting_packed_rank(rows, width, p):
        primes.append(p)
        return packed_rank(rows, width, p)

    def counting_reconstructed(*args):
        out = reconstructed(*args)
        if out is not None:
            checked.append(out)
        return out

    monkeypatch.setattr(echelon, "_packed_rank", counting_packed_rank)
    monkeypatch.setattr(echelon, "_reconstructed", counting_reconstructed)
    return primes, checked


@pytest.mark.parametrize(
    "space, size, m, exact_degrees, inserts, maps, residues",
    [
        ("box", (6, 6), 3, 6, 712, 711, 3),
        ("box", (7, 7), 2, 6, 507, 506, 3),
        ("box", (5, 5), 5, 0, 264, 264, 0),
        ("lg", (9,), 5, 4, 480, 479, 0),
        ("lg", (10,), 5, 8, 883, 882, 4),
        ("lg", (11,), 3, 8, 573, 572, 3),
    ],
    ids=["box-6x6-m3", "box-7x7-m2", "box-5x5-m5", "lg-9-m5", "lg-10-m5", "lg-11-m3"],
)
def test_generated_ranks_work(monkeypatch, space, size, m, exact_degrees, inserts, maps, residues):
    # The work of the rank path at the points of the exact builder's pin:
    # how many degrees fall back to the exact echelon, every insert of the
    # rank pass, every row built (as many as the exact builder builds), and
    # the residues the fallbacks draw past the rank pass's own.
    calls = []
    add_row = PackedRank.add_row

    def counting_add_row(self, row):
        if self.p == echelon._rank_prime(self.width):
            calls.append(row)
        return add_row(self, row)

    args = _point(space, size, m)
    exact = _watch_exact_degrees(monkeypatch)
    primes, _ = _watch_residues(monkeypatch)
    monkeypatch.setattr(PackedRank, "add_row", counting_add_row)
    built = _count_apply_map(monkeypatch)
    _cold_build(*args)
    assert (len(exact), len(calls), len(built), len(primes)) == (exact_degrees, inserts, maps, residues)


@pytest.mark.parametrize(
    "space, size, m, residues, checks",
    [("box", (6, 6), 3, 3, 6), ("box", (7, 7), 2, 3, 6), ("lg", (10,), 5, 4, 8), ("lg", (11,), 3, 3, 8)],
    ids=["box-6x6-m3", "box-7x7-m2", "lg-10-m5", "lg-11-m3"],
)
def test_generated_fallbacks_insert_right_to_left(monkeypatch, space, size, m, residues, checks):
    # The fallbacks of a cold build insert no row fraction-free: the right to
    # left inserts of `tests/oracles.py`'s `_slice_of` normalised 2,099, 341,
    # 1,799 and 364 rows here, and 4,158, 661, 3,671 and 566 in draw order.
    # Each fallback reads the rank pass's residue and the residues counted,
    # and its first exact check passes: one check per fallback degree.
    calls = []
    primitive = echelon._primitive

    def counting_primitive(lead, tail):
        calls.append(lead)
        return primitive(lead, tail)

    monkeypatch.setattr(echelon, "_primitive", counting_primitive)
    primes, checked = _watch_residues(monkeypatch)
    exact = _watch_exact_degrees(monkeypatch)
    _cold_build(*_point(space, size, m))
    assert (len(calls), len(primes), len(checked), len(set(exact))) == (0, residues, checks, checks)


def _fresh_rings():
    for memo in (schur._ring, lagrangian._lg_rank_data):
        memo.cache_clear()


def test_each_ring_keeps_its_own_saturation_record(monkeypatch):
    # boxes built first leave their records in their own rings, so the
    # order's build after them is a cold one: the 8 fallback degrees of
    # lg-10-m5 above (one record shared by the three builds gave none)
    _fresh_rings()
    try:
        grassmann.subalgebra_hilbert(6, 6, 3)
        grassmann.subalgebra_hilbert(7, 7, 2)
        exact = _watch_exact_degrees(monkeypatch)
        lagrangian.lg_subalgebra_hilbert(10, 5)
        rings = [schur._ring(6, 6, 0), schur._ring(7, 7, 0), schur._ring(10, 10, 1)]
        records = [ring.saturated for ring in rings]
        assert all(records) and len(set(map(id, records))) == 3
        assert len(exact) == 8
    finally:
        _fresh_rings()


# a batch of rows, and planted combinations a * rows[i] + b * rows[j] (zero
# rows when a = b = 0 or there are no rows) inserted at each position `at`
_batches_with_plants = st.integers(1, 6).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.lists(st.integers(-4, 4), min_size=width, max_size=width), max_size=7),
        st.lists(st.tuples(*[st.integers(-3, 3)] * 2, *[st.integers(0, 8)] * 3), max_size=4),
    )
)


@given(_batches_with_plants)
@example((3, [[0, 2, -1], [1, 0, 0], [1, 2, -1]], [(0, 0, 0, 0, 0), (2, -1, 0, 1, 3)]))
@example((2, [], [(1, 1, 0, 0, 0)]))
def test_right_to_left_slice_is_the_draw_order_slice(width_rows_plants):
    # The reduced echelon of a span is unique, so a slice built right to left
    # has the pivots, leads and tails of one built in draw order
    width, rows, plants = width_rows_plants
    for a, b, i, j, at in plants:
        planted = [a * x + b * y for x, y in zip(rows[i % len(rows)], rows[j % len(rows)])] if rows else [0] * width
        rows.insert(at % (len(rows) + 1), planted)
    columns = tuple(range(width))
    drawn = DegreeSlice(0, columns)
    for row in rows:
        drawn.add_row(row)
    built = _slice_of(0, columns, rows)
    assert (built._pivots, built._leads, built._tails, built._free) == (
        drawn._pivots, drawn._leads, drawn._tails, drawn._free
    )


_small_rows_and_probes = st.integers(0, 5).flatmap(
    lambda width: st.tuples(*[st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width), max_size=8)] * 2)
    .map(lambda rows_probes: (width, *rows_probes))
)


def _dense(terms, width):
    row = [0] * width
    for j, a in terms:
        row[j] = a
    return row


@pytest.mark.parametrize("p", [None, 2], ids=["real-prime", "prime-2"])
@given(_small_rows_and_probes)
# saturated at P and a fallback at 2; independent rows short of the width at
# P, a fallback short of it at 2; a dependency over Q, a fallback at both
@example((2, [[1, 1], [1, -1]], [[0, 1]]))
@example((3, [[1, 1, 0], [1, -1, 0]], [[1, 0, 0], [0, 0, 1]]))
@example((2, [[1, 2], [2, 4]], [[3, 6], [0, 1]]))
def test_exact_rank_is_the_rank_over_q(p, width_rows_probes):
    # at p = 2 many rows independent over Q are dependent mod p, so the exact
    # fallback runs; either way the rank is exact, the basis spans every row,
    # the basis cut to the pivots keeps the rank, membership is exact, and no
    # row is drawn once rank_p reaches the width
    width, rows, probes = width_rows_probes
    drawn = []

    def draw():
        for row in rows:
            drawn.append(row)
            yield row

    with pytest.MonkeyPatch.context() as mp:
        if p:
            mp.setattr(echelon, "_rank_prime", lambda width: p)
        span = exact_rank(0, tuple(range(width)), draw())
        prime = echelon._rank_prime(width)
        stop = next((i for i in range(len(rows) + 1) if _rank_mod(rows[:i], prime) == width), len(rows))
        assert span.rank == _rank_oracle(rows)
        assert drawn == rows[:stop]
        assert span.saturated == (span.rank == width)
        basis = [_dense(terms, width) for terms in span.row_terms()]
        oracle = DegreeSlice(0, tuple(range(width)))
        for row in basis:
            oracle.add_row(row)
        assert len(basis) == oracle.rank == span.rank
        assert all(oracle.contains_row(row) for row in rows)
        assert len(span.pivots) == span.rank == _rank_oracle([[row[j] for j in span.pivots] for row in basis])
        sums = [[a + b for a, b in zip(r, s)] for r, s in zip(rows, rows[1:])]
        for probe in rows + sums + probes:
            assert span.contains_row(probe) == oracle.contains_row(probe), probe
        # a first membership test may swap the basis rows for an exact slice
        after = DegreeSlice(0, tuple(range(width)))
        for terms in span.row_terms():
            after.add_row(_dense(terms, width))
        assert after.rank == span.rank and all(after.contains_row(row) for row in basis)
        for bad in ([0] * (width + 1), [0] * width + [1], [0] * (width - 1)):
            if len(bad) != width:
                with pytest.raises(ValueError):
                    span.contains_row(bad)


def test_span_rejects_a_row_of_the_wrong_length_in_every_state():
    # saturated, independent rows (before and after their first membership
    # test) and a fallback slice; the saturated span holds every row of its
    # width but no other
    states = {
        "saturated": exact_rank(0, (0, 1), [[1, 1], [1, -1]]),
        "independent": exact_rank(0, (0, 1, 2), [[1, 1, 0]]),
        "fallback": exact_rank(0, (0, 1, 2), [[1, 2, 0], [2, 4, 0]]),
    }
    assert states["saturated"].saturated and states["saturated"]._exact is None
    assert states["independent"]._rows and states["independent"]._exact is None
    assert states["fallback"]._exact is not None
    for name, span in states.items():
        width = len(span.columns)
        for _ in range(2):
            for bad in ([1] * (width - 1), [1] * (width + 1), []):
                with pytest.raises(ValueError):
                    span.contains_row(bad)
            assert span.contains_row([0] * width), name
            assert span.contains_row([1] * width) == (name == "saturated"), name
    assert not states["independent"]._rows and states["independent"]._exact is not None


# --- the multimodular fallback ------------------------------------------------


def _record_fallbacks(monkeypatch):
    # every reduced echelon the engine builds over Q, with the rows it read
    seen = []
    reduced_echelon = echelon._reduced_echelon

    def recording(d, columns, rows, packed=None):
        out = reduced_echelon(d, columns, rows, packed)
        seen.append((d, columns, rows, out))
        return out

    monkeypatch.setattr(echelon, "_reduced_echelon", recording)
    return seen


def _same_slice(got, want):
    return (got._pivots, got._leads, got._tails, got._free) == (want._pivots, want._leads, want._tails, want._free)


@pytest.mark.parametrize("p, counts", [(None, (20, 50)), (2, (94, 210))], ids=["real-prime", "prime-2"])
def test_fallback_slices_are_the_fraction_free_slices(monkeypatch, p, counts):
    # Every fallback of cold (6,6,3), (7,7,2) and LG (10,5) builds, then
    # every reduced echelon of the (5,5) basis reports (their candidate
    # ranks, and the slices their membership tests build), with the rank
    # prime P and with the bad prime 2: field by field the oracle's slice
    seen = _record_fallbacks(monkeypatch)
    if p:
        monkeypatch.setattr(echelon, "_rank_prime", lambda width: p)
    memos = (schur._ring, lagrangian._lg_rank_data, grassmann._slice_data)
    for memo in memos:
        memo.cache_clear()
    try:
        grassmann.subalgebra_hilbert(6, 6, 3)
        grassmann.subalgebra_hilbert(7, 7, 2)
        lagrangian.lg_subalgebra_hilbert(10, 5)
        builds = len(seen)
        for m in range(1, 6):
            grassmann.h_basis_report(5, 5, m)
            grassmann.kschur_basis_report(5, 5, m)
    finally:
        for memo in memos:
            memo.cache_clear()
    assert (builds, len(seen) - builds) == counts
    for d, columns, rows, got in seen:
        assert _same_slice(got, _slice_of(d, columns, rows)), d


def _combinations(rng, base, count, size):
    # count combinations of the base rows, coefficients in [-size, size]
    out = []
    for _ in range(count):
        coefficients = [rng.randint(-size, size) for _ in base]
        out.append([sum(c * b[j] for c, b in zip(coefficients, base)) for j in range(len(base[0]))])
    return out


def _planted(rng, width):
    # rows of rank r over Q whose rank mod the rank prime P is smaller:
    # random base rows, and each planted row a combination of them plus P
    # times a unit row, which vanishes mod P
    base = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(rng.randint(1, width - 2))]
    planted = _combinations(rng, base, rng.randint(1, 2), 2)
    for row in planted:
        row[rng.randrange(width)] += echelon._rank_prime(width) * rng.choice([1, -1, 3])
    rows = base + planted + [[a + b for a, b in zip(base[0], planted[0])]]
    rng.shuffle(rows)
    return rows


def test_fallback_settles_rows_short_of_their_rank_mod_p():
    # the rows independent mod the rank prime span less than the rows, so
    # the first check fails on them, and the residues of every row settle
    # the span
    rng = random.Random(20261022)
    short = 0
    for _ in range(60):
        width = rng.randint(3, 7)
        rows = _planted(rng, width)
        rank = _rank_oracle(rows)
        span = exact_rank(0, tuple(range(width)), rows)
        assert span.rank == rank
        if span._exact is not None:
            assert _same_slice(span._exact, _slice_of(0, tuple(range(width)), rows))
        short += _rank_mod(rows, echelon._rank_prime(width)) < rank < width
    assert short >= 30


@pytest.mark.parametrize("which", [0, 1, 2], ids=["rank-pass", "first-residue", "second-residue"])
def test_a_corrupted_residue_is_never_accepted(monkeypatch, which):
    # one entry of one residue is wrong: the rank pass's own, or one drawn
    # later.  The result is still the reduced echelon of the rows: a wrong
    # residue fails a reconstruction or a check until the residues are
    # dropped.
    rng = random.Random(which)
    reduced = PackedRank.reduced
    corrupted = []

    def corrupting(self):
        pivots, entries = reduced(self)
        calls.append(self.p)
        if len(calls) == which + 1 and entries and entries[0]:
            entries[0][0] = (entries[0][0] + 1) % self.p
            corrupted.append(self.p)
        return pivots, entries

    monkeypatch.setattr(PackedRank, "reduced", corrupting)
    for _ in range(20):
        width = rng.randint(3, 7)
        # entries large enough that the reduced echelon needs residues past P
        base = [[rng.randint(-999, 999) for _ in range(width)] for _ in range(rng.randint(2, width - 1))]
        rows = _combinations(rng, base, len(base) + 2, 3)
        calls = []
        span = exact_rank(0, tuple(range(width)), rows)
        if span._exact is not None:
            assert _same_slice(span._exact, _slice_of(0, tuple(range(width)), rows))
    assert len(corrupted) >= 10
