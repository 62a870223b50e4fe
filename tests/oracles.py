"""Second algorithms that the tests check the engine against."""

import functools

from qgrass.echelon import DegreeSlice, Ring, _spanning_rows, generated
from qgrass.kschur import _targets
from qgrass.partitions import Partition, _decreasing_tuples, _dominance_leq
from qgrass.schur import SymVector, _pieri_map


@functools.cache
def _columns(cap, rows, gap, d):
    """The columns of degree d of the ring bounded by (cap, rows, gap), by
    name: the engine's column j is the j-th partition `_decreasing_tuples`
    lists, and the index of each by its parts."""
    cols = tuple(map(Partition._wrap, _decreasing_tuples(cap, rows, d, gap)))
    return cols, {p.parts: j for j, p in enumerate(cols)}


def single_boxes(cap, rows, gap, d):
    """The single-box table from degree d - 1 to degree d, by name: each
    source partition grows by one box in every row, the new one included,
    and the shapes that are columns of degree d are kept, rows increasing,
    as the target columns and, in parallel, the (row, new part) pairs."""
    index = _columns(cap, rows, gap, d)[1]
    targets, marks = [], []
    for lam in _columns(cap, rows, gap, d - 1)[0]:
        grown = [lam.parts[:r] + (part + 1,) + lam.parts[r + 1:] for r, part in enumerate(lam.parts + (0,))]
        kept = [(r, mu) for r, mu in enumerate(grown) if mu in index]
        targets.append(tuple(index[mu] for _, mu in kept))
        marks.append(tuple((r, mu[r]) for r, mu in kept))
    return tuple(targets), tuple(marks)


def _right_to_left(row):
    # latest first nonzero column first, then fewer nonzeros; a zero row first
    nonzero = [j for j, a in enumerate(row) if a]
    return -(nonzero[0] if nonzero else len(row)), len(nonzero)


def _slice_of(d, columns, rows):
    """The fraction-free reduced echelon of a batch of dense integer rows, the
    oracle of the engine's multimodular fallback: a `DegreeSlice` that
    inserts them right to left (by first nonzero column, latest first, ties
    to fewer nonzeros first, the sort stable).  A stored row is zero left of
    its pivot, so a new pivot left of every stored one back-substitutes into
    none of them."""
    exact = DegreeSlice(d, columns)
    for row in sorted(rows, key=_right_to_left):
        exact.add_row(row)
    return exact


def omega(v):
    """Fundamental involution: transpose every Schur index, coefficients unchanged."""
    return SymVector._wrap({p.conjugate(): c for p, c in v.items()})


def dominance_leq(lam, mu):
    """Dominance order on partitions of equal size: every prefix sum of lam is
    at most the corresponding prefix sum of mu."""
    if lam.size != mu.size:
        raise ValueError(f"dominance compares partitions of equal size: {lam!r} vs {mu!r}")
    return _dominance_leq(lam.parts, mu.parts)


def is_core(lam, c):
    """True when no cell of lam has hook length exactly c."""
    return all(h != c for row in lam.hook_lengths() for h in row)


def weak_pieri_targets(nu, r, k):
    """k-bounded mu with mu/nu a horizontal r-strip whose k-conjugates differ
    by a vertical r-strip; these index the expansion of h_r times the k-Schur
    function of nu."""
    if k < 1 or not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
    if nu.first > k:
        raise ValueError(f"{nu!r} is not {k}-bounded")
    return tuple(Partition._wrap(t) for t in _targets(nu.parts, r, k))


def generated_slices(columns, pieri_map, degrees):
    """Exact echelon bases of the graded pieces that `echelon.generated`
    builds, over the same walk (`_spanning_rows`) of a fresh `Ring`, with no
    rank mod p and no saturation record: each piece is a `DegreeSlice` fed
    the spanning rows until it saturates, and degree d reads the reduced
    rows of degree d - i_1."""
    rows = _spanning_rows(Ring(columns, pieri_map), degrees)
    slices = []
    for d, cols in enumerate(columns):
        sl = DegreeSlice(d, cols)
        for row in rows(d, lambda e: slices[e].row_terms()):
            if sl.add_row(row) and sl.saturated:
                break
        slices.append(sl)
    return tuple(slices)


def dense_rows(sl):
    """The stored rows of a `DegreeSlice` as dense integer lists over all its columns."""
    rows = [[0] * len(sl.columns) for _ in sl.pivots]
    for row, terms in zip(rows, sl.row_terms()):
        for j, a in terms:
            row[j] = a
    return rows


def lg_stab_membership(n, m, degrees=None):
    """The `lg-stab` case of an even m as the membership it states, with no
    rank argument: build degrees 0..m of the subalgebra generated by the e_i
    with i in `degrees` (default: the odd i < m) through `echelon.generated`,
    and test sigma_m, the Schubert class of (m), with the exact
    `Span.contains_row`."""
    columns = [_columns(n, n, 1, d)[0] for d in range(m + 1)]
    span = tuple(generated(Ring(columns, functools.partial(_pieri_map, n, n, 1)), degrees or range(1, m, 2)))[m]
    return span.contains_row([int(lam.parts == (m,)) for lam in span.columns])


def box_tuples(maxpart, rows, total):
    """The partitions of total with at most rows parts, each at most maxpart,
    as part tuples in lexicographically decreasing order: the iterative walk
    the engine listed box partitions with before one enumerator served both
    rings.  Fill greedily (the lexicographically largest tail), then lower the
    last part that can drop by one with the rows after it still holding the
    rest, and refill.  Only for total >= 0."""
    if total > maxpart * rows:
        return
    parts = []
    cap, rest = maxpart, total
    while True:
        while rest:
            parts.append(min(cap, rest))
            rest -= parts[-1]
        yield tuple(parts)
        while parts:
            head = parts.pop()
            rest += head
            if head > 1 and rest - head + 1 <= (head - 1) * (rows - len(parts) - 1):
                cap = head - 1
                parts.append(cap)
                rest -= cap
                break
        else:
            return


def strict_tuples(maxpart, total):
    """The strict partitions of total with parts at most maxpart, as part
    tuples in lexicographically decreasing order, by recursion on the first
    part.  Only for total >= 0."""
    if total == 0:
        yield ()
        return
    for head in range(min(maxpart, total), 0, -1):
        if total - head > head * (head - 1) // 2:
            continue
        for rest in strict_tuples(head - 1, total - head):
            yield (head,) + rest
