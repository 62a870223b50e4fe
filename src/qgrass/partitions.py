"""Integer partitions: hooks, cores, k-conjugation, vacancy, and bijective decompositions.

Everything in this module is a pure function on immutable values.
Partitions are value objects: construction takes int parts only (anything
else is a TypeError), trims trailing zeros and validates the positive, weakly
decreasing invariant.  Code here that builds a finished tuple wraps it with
`Partition._wrap`, which skips the checks.  The text format used by the CLI
and JSON reports is a comma-separated list of parts, with the empty string
denoting the empty partition.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence


class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty partition."""

    __slots__ = ("_parts", "_hash")

    def __init__(self, parts: Iterable[int] = ()):
        data = tuple(parts)
        for p in data:
            if type(p) is not int:
                raise TypeError(f"partition parts must be ints, got {p!r}")
        while data and data[-1] == 0:
            data = data[:-1]
        if data and data[-1] < 0:
            raise ValueError(f"partition parts must be positive, got {data}")
        for a, b in zip(data, data[1:]):
            if a < b:
                raise ValueError(f"partition parts must be weakly decreasing, got {data}")
        self._parts = data
        self._hash = hash(data)

    @classmethod
    def _wrap(cls, parts: tuple[int, ...]) -> "Partition":
        # a finished tuple: positive, weakly decreasing int parts, no trailing zero
        out = cls.__new__(cls)
        out._parts = parts
        out._hash = hash(parts)
        return out

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the comma-separated text format; '' parses to the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse partition from {text!r}: parts must be integers")
        return cls(parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    @property
    def first(self) -> int:
        """Largest part, 0 for the empty partition."""
        return self._parts[0] if self._parts else 0

    def part(self, idx: int) -> int:
        """Part at 0-based index, padded with zeros past the last row."""
        return self._parts[idx] if 0 <= idx < len(self._parts) else 0

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __getitem__(self, idx):
        return self._parts[idx]

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Partition") -> bool:
        return self._parts < other._parts

    def __le__(self, other: "Partition") -> bool:
        return self._parts <= other._parts

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self._parts))})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self._parts)

    @property
    def is_strict(self) -> bool:
        """True when the parts are strictly decreasing."""
        return all(a > b for a, b in zip(self._parts, self._parts[1:]))

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram (column lengths)."""
        return Partition._wrap(_conjugate(self._parts))

    def hook_lengths(self) -> list[list[int]]:
        """Hook length of every cell, row by row."""
        conj = _conjugate(self._parts)
        return [
            [self._parts[r] - c + conj[c] - r - 1 for c in range(self._parts[r])]
            for r in range(len(self._parts))
        ]

    def fits(self, rows: int, cols: int) -> bool:
        """True when the diagram fits in a rows x cols box."""
        return len(self._parts) <= rows and self.first <= cols


@cache
def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    cols = [0] * parts[0]
    for p in parts:
        for c in range(p):
            cols[c] += 1
    return tuple(cols)


def is_core(lam: Partition, c: int) -> bool:
    """True when no cell of lam has hook length exactly c."""
    return all(h != c for row in lam.hook_lengths() for h in row)


def _lift(parts: tuple[int, ...], k: int) -> tuple[list[int], list[int]]:
    # Row sliding, bottom row first: the rows of the (k+1)-core and its column
    # heights.  heights[c] counts the rows already placed whose core row
    # reaches column c + 1.  Offsets weakly decrease down the rows, so that
    # count is the leg the slide sees under each box of a new row; heights is
    # non-increasing, so a row's leftmost box has its largest hook,
    # p + heights[off], and a row of length p goes to the smallest offset with
    # heights[off] <= k - p.
    heights: list[int] = []
    ends: list[int] = []
    for p in reversed(parts):
        off = 0
        while off < len(heights) and heights[off] > k - p:
            off += 1
        end = off + p
        heights[:end] = [h + 1 for h in heights[:end]] + [1] * (end - len(heights))
        ends.append(end)
    ends.reverse()
    return ends, heights


def _kept_rows(rows: Sequence[int], cols: Sequence[int], k: int) -> tuple[int, ...] | None:
    # Per row of the partition `rows` (with conjugate `cols`), its number of
    # boxes with hook length at most k + 1; None when a hook equals k + 1, that
    # is, when `rows` is not a (k+1)-core.  Hooks strictly increase leftwards
    # along a row, so each row is read from its right end until they pass k + 1.
    kept = []
    for r, length in enumerate(rows):
        c = length - 1
        while c >= 0:
            h = length - c + cols[c] - r - 1
            if h > k + 1:
                break
            if h == k + 1:
                return None
            c -= 1
        kept.append(length - 1 - c)
    if any(a < b for a, b in zip(kept, kept[1:])) or (kept and kept[0] > k):
        raise RuntimeError(f"box removal from {tuple(rows)} produced {tuple(kept)}")
    return tuple(kept)


def _check_bounded(lam: Partition, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if lam.first > k:
        raise ValueError(f"{lam!r} is not {k}-bounded")


def core_from_bounded(lam: Partition, k: int) -> Partition:
    """The unique (k+1)-core obtained by sliding the rows of a k-bounded partition.

    Each row, bottom to top, is shifted right until every one of its boxes has
    hook length at most k.  One pass over the column heights of the rows
    already placed finds each offset, and one pass over the hooks checks that
    the result is a (k+1)-core.
    """
    _check_bounded(lam, k)
    rows, heights = _lift(lam.parts, k)
    if _kept_rows(rows, heights, k) is None:
        raise RuntimeError(f"row sliding produced {tuple(rows)}, which is not a {k + 1}-core")
    return Partition._wrap(tuple(rows))


def bounded_from_core(core: Partition, k: int) -> Partition:
    """Delete every box of a (k+1)-core with hook length above k+1 and left-justify.

    A (k+1)-core has no hook equal to k+1, so deleting hooks > k+1 is the same
    as keeping hooks <= k; the surviving boxes per row form a k-bounded
    partition.  One pass over the hooks both counts them and refuses a
    partition that is not a (k+1)-core.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    rows = _kept_rows(core.parts, _conjugate(core.parts), k)
    if rows is None:
        raise ValueError(f"{core!r} is not a {k + 1}-core")
    return Partition._wrap(rows)


@cache
def _k_conjugate(parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    # The core's column heights are the rows of its transpose, so box removal
    # reads the transposed core straight from the lift.
    rows, heights = _lift(parts, k)
    kept = _kept_rows(heights, rows, k)
    if kept is None:
        raise RuntimeError(f"row sliding produced {tuple(rows)}, which is not a {k + 1}-core")
    return kept


def k_conjugate(lam: Partition, k: int) -> Partition:
    """k-conjugation: core lift, transpose, box removal."""
    _check_bounded(lam, k)
    return Partition._wrap(_k_conjugate(lam.parts, k))


def vacancy(lam: Partition, k: int) -> int:
    """Largest i such that the complement of lam in (k^len(lam)) contains an
    i x (i-1) rectangle in its southeast corner; 0 for the empty partition."""
    _check_bounded(lam, k)
    n = len(lam)
    best = 0
    for i in range(1, n + 1):
        if lam[n - i] <= k - i + 1:
            best = i
        else:
            # once the corner test fails it fails for every larger i
            break
    return best


def vacant_decompose(lam: Partition, k: int) -> tuple[int, int, Partition, Partition]:
    """Split an i-vacant partition into (i, j, dagger, ddagger).

    The top j rows each shed a full width of k-i+1 leaving ddagger inside an
    (i-1)^j box; the bottom i rows each shed one box leaving dagger inside a
    (k-i)^i box.  Inverse of vacant_compose.
    """
    if not lam:
        raise ValueError("the empty partition has no vacant decomposition")
    i = vacancy(lam, k)
    j = len(lam) - i
    # both pieces can end in zeros, so they go through the validating constructor
    ddagger = Partition(lam[r] - (k - i + 1) for r in range(j))
    dagger = Partition(lam[j + s] - 1 for s in range(i))
    return i, j, dagger, ddagger


def vacant_compose(i: int, j: int, dagger: Partition, ddagger: Partition, k: int) -> Partition:
    """Rebuild the unique i-vacant partition with i+j rows from its two pieces."""
    if i < 1 or j < 0:
        raise ValueError(f"need i >= 1 and j >= 0, got i={i}, j={j}")
    if i > k:
        raise ValueError(f"no i-vacant partition with i={i} fits a width-{k} box")
    if not dagger.fits(i, k - i):
        raise ValueError(f"dagger {dagger!r} does not fit in a {i} x {k - i} box")
    if not ddagger.fits(j, i - 1):
        raise ValueError(f"ddagger {ddagger!r} does not fit in a {j} x {i - 1} box")
    rows = [(k - i + 1) + ddagger.part(r) for r in range(j)]
    rows += [1 + dagger.part(s) for s in range(i)]
    return Partition._wrap(tuple(rows))


def shifted_decompose(lam: Partition, n: int) -> tuple[int, int, Partition]:
    """Split a nonempty strict partition inside the staircase (n, ..., 1) into
    (i, j, mu): an odd tail of i boxes on the first row, a staircase of j rows
    underneath, and a remainder mu inside an i^j box.  Inverse of shifted_compose."""
    if not lam:
        raise ValueError("the empty partition has no shifted decomposition")
    if not lam.is_strict:
        raise ValueError(f"{lam!r} is not strict")
    if lam.first > n:
        raise ValueError(f"{lam!r} does not fit inside the staircase of order {n}")
    ell = len(lam)
    j = ell if (lam.first - ell) % 2 == 1 else ell - 1
    i = lam.first - j
    mu = Partition(lam.part(r) - (j - r) for r in range(1, j + 1))
    return i, j, mu


def shifted_compose(i: int, j: int, mu: Partition, n: int) -> Partition:
    """Rebuild the strict partition with first row i+j from (i, j, mu)."""
    if i < 1 or i % 2 == 0:
        raise ValueError(f"i must be a positive odd integer, got {i}")
    if j < 0 or i + j > n:
        raise ValueError(f"need 0 <= j and i + j <= n, got i={i}, j={j}, n={n}")
    if not mu.fits(j, i):
        raise ValueError(f"mu {mu!r} does not fit in a {j} x {i} box")
    # the last row is 0 when mu has fewer than j rows
    return Partition([i + j] + [mu.part(r - 1) + (j - r) for r in range(1, j + 1)])


def _dominance_leq(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Dominance order on the parts of two partitions of equal size; past the
    shorter one's length its prefix sum is that size, so none is compared."""
    return all(a <= b for a, b in zip(accumulate(lam), accumulate(mu)))


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of equal size: every prefix sum of lam is
    at most the corresponding prefix sum of mu."""
    if lam.size != mu.size:
        raise ValueError(f"dominance compares partitions of equal size: {lam!r} vs {mu!r}")
    return _dominance_leq(lam.parts, mu.parts)


# ---------------------------------------------------------------------------
# Enumeration.  Every family is emitted in increasing size, ties broken by
# lexicographically decreasing part sequences; this fixes golden-test output
# and the column order of echelon bases.


def _box_tuples(maxpart: int, rows: int, total: int) -> Iterator[tuple[int, ...]]:
    # Iterative, so a tall box does not recurse once per row: fill greedily
    # (the lexicographically largest tail), then lower the last part that can
    # drop by one with the rows after it still holding the rest, and refill.
    if total > maxpart * rows:
        return
    parts: list[int] = []
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


def _strict_tuples(maxpart: int, total: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for head in range(min(maxpart, total), 0, -1):
        if total - head > head * (head - 1) // 2:
            continue
        for rest in _strict_tuples(head - 1, total - head):
            yield (head,) + rest


def partitions_in_box_of_size(ell: int, k: int, d: int) -> Iterator[Partition]:
    """Partitions of d with at most ell parts, each at most k."""
    for t in _box_tuples(k, ell, d):
        yield Partition._wrap(t)


def partitions_in_box(ell: int, k: int) -> Iterator[Partition]:
    """All partitions inside an ell x k box."""
    for d in range(ell * k + 1):
        yield from partitions_in_box_of_size(ell, k, d)


def k_bounded_partitions(k: int, d: int) -> Iterator[Partition]:
    """Partitions of d with every part at most k."""
    yield from partitions_in_box_of_size(d, k, d)


def strict_partitions_of_size(n: int, d: int) -> Iterator[Partition]:
    """Strict partitions of d with parts at most n."""
    for t in _strict_tuples(n, d):
        yield Partition._wrap(t)


def strict_partitions_in_triangle(n: int) -> Iterator[Partition]:
    """All strict partitions fitting inside the staircase (n, n-1, ..., 1)."""
    for d in range(n * (n + 1) // 2 + 1):
        yield from strict_partitions_of_size(n, d)


def vacant_partitions(ell: int, k: int, i: int) -> Iterator[Partition]:
    """Nonempty i-vacant partitions inside an ell x k box."""
    if i < 1:
        raise ValueError(f"vacancy classes are indexed by i >= 1, got {i}")
    for lam in partitions_in_box(ell, k):
        if lam and vacancy(lam, k) == i:
            yield lam


@cache
def _box_vacancy_sums(ell: int, k: int) -> tuple[tuple[int, ...], ...]:
    """sums[i][d]: the number of i-vacant partitions of size d in the ell x k
    box (i = 0 holds the empty partition), from one pass over the box."""
    sums = [[0] * (ell * k + 1) for _ in range(min(ell, k) + 1)]
    for lam in partitions_in_box(ell, k):
        sums[vacancy(lam, k)][lam.size] += 1
    return tuple(map(tuple, sums))


@cache
def _box_k_conjugates(ell: int, k: int) -> tuple[tuple[tuple[Partition, ...], ...], tuple[tuple[int, ...], ...]]:
    """For each degree, the k-conjugates of the partitions of that size in the
    ell x k box, sorted decreasing; and, from the same pass, their counts by
    first part: sums[i][d] k-conjugates of size d have first part i."""
    images = []
    sums = [[0] * (ell * k + 1) for _ in range(k + 1)]
    for d in range(ell * k + 1):
        degree = sorted((k_conjugate(lam, k) for lam in partitions_in_box_of_size(ell, k, d)), reverse=True)
        for mu in degree:
            sums[mu.first][mu.size] += 1
        images.append(tuple(degree))
    return tuple(images), tuple(map(tuple, sums))


def candidate_partitions(ell: int, k: int, m: int) -> Iterator[Partition]:
    """Partitions with first part at most m whose k-conjugate fits the ell x k box.

    Computed by pushing the box family through k-conjugation (an involution on
    k-bounded partitions), once per box for every m, and filtering on the
    first part.
    """
    if m > k:
        raise ValueError(f"m={m} exceeds k={k}: k-conjugation is undefined beyond k-bounded parts")
    for images in _box_k_conjugates(ell, k)[0]:
        yield from (p for p in images if p.first <= m)
