from collections import defaultdict
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st


from qgrass.echelon import generated
from qgrass.partitions import Partition, k_bounded_partitions
from qgrass.qseries import QPoly
from qgrass.schur import SymVector, _horizontal_strips, _pieri_map, _ring, _strips, _tables, h_to_schur, pieri_h

from oracles import _columns, dominance_leq, omega, single_boxes


def P(*parts):
    return Partition(parts)


def S(*parts):
    return SymVector.schur(P(*parts))


def standard_tableaux_count(lam):
    # hook length formula, the independent oracle for Schur coefficients at
    # the identity weight
    n = factorial(lam.size)
    for row in lam.hook_lengths():
        for h in row:
            n //= h
    return n


@st.composite
def small_vectors(draw):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        parts = draw(st.lists(st.integers(1, 4), max_size=4))
        coeff = draw(st.integers(-3, 3))
        terms[Partition(sorted(parts, reverse=True))] = coeff
    return SymVector(terms)


# --- SymVector value semantics -------------------------------------------


def test_symvector_basics():
    v = S(2, 1) + S(2, 1)
    assert v.coeff(P(2, 1)) == 2
    assert (v - v).is_zero
    with pytest.raises(TypeError):
        v.scale(Fraction(1, 2))
    assert SymVector({P(1): 0}).is_zero
    assert v.support() == [P(2, 1)]
    with pytest.raises(TypeError):
        SymVector({(2, 1): 1})


def test_combinations_of_different_types_differ():
    # both share one integer-combination core, keyed by different things
    assert QPoly.zero() != SymVector.zero()
    assert SymVector.zero() == SymVector.zero() and QPoly.zero() == QPoly.zero()
    with pytest.raises(TypeError):
        QPoly.one() + SymVector.unit()


@pytest.mark.parametrize("c", [Fraction(1, 2), 0.5, Fraction(2), 2.0, True], ids=repr)
def test_symvector_rejects_non_int_coefficients(c):
    with pytest.raises(TypeError):
        SymVector({P(2, 1): c})
    with pytest.raises(TypeError):
        S(2, 1).scale(c)


def test_symvector_json_is_sorted_and_stringly():
    v = S(3) + S(1).scale(2) + S(2, 1)
    assert v.to_json_obj() == [
        {"partition": "1", "coeff": "2"},
        {"partition": "3", "coeff": "1"},
        {"partition": "2,1", "coeff": "1"},
    ]


# --- Pieri products ----------------------------------------------------------


def test_pieri_h_examples():
    assert pieri_h(1, S(1)) == S(2) + S(1, 1)
    assert pieri_h(2, S(2, 1)) == S(4, 1) + S(3, 2) + S(3, 1, 1) + S(2, 2, 1)
    assert pieri_h(3, SymVector.unit()) == S(3)
    with pytest.raises(ValueError):
        pieri_h(0, S(1))


@given(st.integers(1, 4), st.integers(1, 4), small_vectors())
def test_pieri_h_commutes(a, b, v):
    assert pieri_h(a, pieri_h(b, v)) == pieri_h(b, pieri_h(a, v))


# --- h expansions --------------------------------------------------------------


def test_h_to_schur_examples():
    assert h_to_schur(Partition()) == SymVector.unit()
    assert h_to_schur(P(2, 1)) == S(3) + S(2, 1)
    assert h_to_schur(P(1, 1)) == S(2) + S(1, 1)


def test_h_to_schur_unitriangular_with_kostka_coefficients():
    for d in range(0, 9):
        for lam in k_bounded_partitions(d, d):
            v = h_to_schur(lam)
            assert v.coeff(lam) == 1
            total = 0
            for mu, c in v.items():
                assert c.denominator == 1 and c > 0
                assert dominance_leq(lam, mu)
                if mu != lam:
                    assert not dominance_leq(mu, lam)
                total += int(c) * standard_tableaux_count(mu)
            # weight of the identity: multinomial coefficient of the parts
            multinomial = factorial(lam.size)
            for part in lam:
                multinomial //= factorial(part)
            assert total == multinomial


def ssyt_count(shape, content):
    """Semistandard tableaux of the shape with the content, by filling the
    cells in reading order under the row and column conditions."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    left = list(content)
    filling = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        for v in range(len(left)):
            if not left[v]:
                continue
            if c and filling[(r, c - 1)] > v:
                continue
            if r and filling[(r - 1, c)] >= v:
                continue
            left[v] -= 1
            filling[(r, c)] = v
            total += fill(idx + 1)
            left[v] += 1
        return total

    return fill(0)


def test_h_to_schur_coefficients_are_ssyt_counts():
    for n in range(8):
        shapes = list(k_bounded_partitions(n, n))
        for mu in shapes:
            v = h_to_schur(mu)
            assert set(v) <= set(shapes)
            for lam in shapes:
                assert v.coeff(lam) == ssyt_count(lam.parts, mu.parts), (lam, mu)


def brute_horizontal_strips(parts, r):
    """Every partition of |parts| + r with at most one row more than parts,
    kept when it contains parts with mu[i+1] <= parts[i]; lexicographically
    decreasing."""
    n = len(parts)
    padded = parts + (0,)
    out = []
    for mu in k_bounded_partitions(sum(parts) + r, sum(parts) + r):
        rows = mu.parts
        if len(rows) > n + 1:
            continue
        rows = rows + (0,) * (n + 1 - len(rows))
        if all(rows[i] >= padded[i] for i in range(n + 1)) and all(
            rows[i + 1] <= padded[i] for i in range(n)
        ):
            out.append(mu.parts)
    return tuple(sorted(out, reverse=True))


@given(st.lists(st.integers(1, 5), max_size=4), st.integers(0, 6))
def test_horizontal_strips_match_brute_force(parts, r):
    parts = tuple(sorted(parts, reverse=True))
    assert _horizontal_strips(parts, r) == brute_horizontal_strips(parts, r)


# --- omega -----------------------------------------------------------------------


def test_omega_examples():
    assert omega(S(3)) == S(1, 1, 1)
    assert omega(h_to_schur(P(2, 1))) == S(1, 1, 1) + S(2, 1)
    assert omega(SymVector.zero()).is_zero


@given(small_vectors())
def test_omega_is_involution(v):
    assert omega(omega(v)) == v


def test_each_ring_has_a_single_top_column():
    # the top degree of the box is the full box alone, and that of the order
    # the staircase alone: `lg_top_power` reads the only entry of its top row.
    # A ring's columns are indices, which the oracle names
    for ell in range(7):
        for k in range(7):
            columns = _ring(k, ell, 0).columns
            assert columns[-1] == range(1), (ell, k)
            assert _columns(k, ell, 0, len(columns) - 1)[0] == (Partition((k,) * ell),), (ell, k)
    for n in range(1, 11):
        columns = _ring(n, n, 1).columns
        assert columns[-1] == range(1), n
        assert _columns(n, n, 1, len(columns) - 1)[0] == (Partition(range(n, 0, -1)),), n


RING_BOUNDS = [(k, ell, 0) for ell in range(7) for k in range(7)] + [(n, n, 1) for n in range(1, 11)]


@pytest.mark.parametrize("cap, rows, gap", RING_BOUNDS)
def test_ring_pass_tables_are_the_named_tables(cap, rows, gap):
    # one enumeration pass per ring keeps widths and tables alone: the widths
    # are the oracle's column counts up to the top degree (none past it), and
    # each table is the one grown box by box over the named columns
    widths, tables = _tables(cap, rows, gap)
    assert len(widths) == len(tables)
    assert widths == tuple(len(_columns(cap, rows, gap, d)[0]) for d in range(len(widths)))
    assert not _columns(cap, rows, gap, len(widths))[0]
    assert tables[0] == ((), ())
    for d in range(1, len(tables)):
        assert tables[d] == single_boxes(cap, rows, gap, d), (cap, rows, gap, d)


def walked_map(cap, rows, gap, d, i):
    # the strips `_strips` walks, grouped by coefficient per source
    groups = defaultdict(lambda: [[] for _ in range(_tables(cap, rows, gap)[0][d - i])])
    for src, t, _, _, _, exp in _strips(cap, rows, gap, d, i):
        groups[1 << exp * gap][src].append(t)
    return tuple((c, tuple(map(tuple, groups[c]))) for c in sorted(groups))


@pytest.mark.parametrize(
    "cap, rows, gap", [(k, ell, 0) for ell in range(1, 7) for k in range(1, 7)] + [(n, n, 1) for n in range(1, 13)]
)
def test_degree_one_maps_are_read_off_the_tables(cap, rows, gap):
    # the e_1 (h_1) map is read off the table, not walked: equal to the walked
    # strips per source and coefficient, and in the order a source with no
    # box of new part 1 shares the table's target tuple
    tables = _tables(cap, rows, gap)[1]
    for d in range(1, len(tables)):
        got = _pieri_map(cap, rows, gap, d, 1)
        assert got == walked_map(cap, rows, gap, d, 1), (cap, rows, gap, d)
        targets, marks = tables[d]
        if not gap:
            assert got[0][1] is targets
            continue
        twos = dict(got).get(2, ())
        for j, (to, at) in enumerate(zip(targets, marks)):
            if to and all(p != 1 for _, p in at):
                assert twos[j] is to, (cap, rows, gap, d, j)


def test_ring_builds_make_no_partition(monkeypatch):
    # a ring keeps widths and tables, and no build reads a column's name
    made = []
    wrap, init = Partition._wrap.__func__, Partition.__init__

    def counted_wrap(cls, parts):
        made.append(parts)
        return wrap(cls, parts)

    def counted_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Partition, "_wrap", classmethod(counted_wrap))
    monkeypatch.setattr(Partition, "__init__", counted_init)
    for memo in (_tables, _pieri_map, _ring):
        memo.cache_clear()
    for bounds, degrees in [((7, 7, 0), (1, 2)), ((9, 9, 1), (1, 3))]:
        spans = list(generated(_ring(*bounds), degrees))
        assert len(spans) == len(_ring(*bounds).columns), bounds
    assert made == []
