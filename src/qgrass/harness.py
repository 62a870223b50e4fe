"""Identity and conjecture checks over parameter grids, with deterministic reports.

Each case compares two exactly-computed polynomials.  Theorem cases failing
indicate an implementation bug and abort the sweep by default; conjecture
cases failing are findings and never abort.  A sweep lists its tasks in the
fixed (family, parameter) order of `FAMILIES` and groups them into shards by
the box (ell, k) or staircase order n whose memos they share.  With more than
one CPU in the affinity mask, the process and its forked workers (one per
further CPU, while shards last) pull the shards from one queue; otherwise the
tasks run one after another.  Either way the report lists the cases in task
order, so it is the same bytes on every run.
"""

from __future__ import annotations

import os
import threading
from math import comb, factorial
from typing import Callable, NamedTuple

from .config import (
    DEFAULT_CONFIG,
    FAMILIES,
    _grid_points,
    validate_config,
)
from .grassmann import h_basis_report, kschur_basis_report, subalgebra_hilbert
from .lagrangian import lg_subalgebra_hilbert, lg_top_power
from .partitions import (
    _box_k_conjugates,
    k_conjugate,
    partitions_in_box,
    shifted_compose,
    shifted_decompose,
    strict_partitions_in_triangle,
    vacancy,
    vacant_compose,
    vacant_decompose,
)
from .qseries import (
    QPoly,
    gen_sum,
    grass_subalgebra_formula,
    lg_hilbert_series,
    lg_subalgebra_formula,
    q_binomial,
    q_binomial_prime,
)

THEOREM = "theorem"
CONJECTURE = "conjecture"

PASS = "pass"
FAIL = "fail"
ERROR = "error"


class Case(NamedTuple):
    name: str
    params: dict
    status: str
    expected: QPoly
    actual: QPoly
    detail: str = ""
    kind: str = THEOREM

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "expected": self.expected.json_coeffs(),
            "actual": self.actual.json_coeffs(),
            "detail": self.detail,
        }


class Report(NamedTuple):
    cases: list[Case]

    @property
    def summary(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, ERROR: 0}
        for case in self.cases:
            out[case.status] += 1
        return out

    @property
    def ok(self) -> bool:
        s = self.summary
        return s[FAIL] == 0 and s[ERROR] == 0

    def to_json_obj(self) -> dict:
        return {
            "cases": [c.to_json_obj() for c in self.cases],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        import json  # only a JSON report loads it

        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    def to_text(self) -> str:
        lines = []
        for c in self.cases:
            params = " ".join(f"{k}={v}" for k, v in c.params.items())
            line = f"{c.status.upper():5s} {c.name} {params}"
            if c.status != PASS:
                line += f" | expected={c.expected} actual={c.actual}"
                if c.detail:
                    line += f" | {c.detail}"
            lines.append(line)
        s = self.summary
        lines.append(f"summary: pass={s[PASS]} fail={s[FAIL]} error={s[ERROR]}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = ["| status | case | params | detail |", "| --- | --- | --- | --- |"]
        for c in self.cases:
            params = ", ".join(f"{k}={v}" for k, v in c.params.items())
            detail = c.detail if c.status != PASS else ""
            lines.append(f"| {c.status} | {c.name} | {params} | {detail} |")
        s = self.summary
        lines.append("")
        lines.append(f"**pass** {s[PASS]} / **fail** {s[FAIL]} / **error** {s[ERROR]}")
        return "\n".join(lines)


def _case(name, params, kind, expected: QPoly, actual: QPoly, detail: str = "") -> Case:
    status = PASS if expected == actual else FAIL
    return Case(
        name=name,
        params=params,
        status=status,
        expected=expected,
        actual=actual,
        detail=detail if status == FAIL else "",
        kind=kind,
    )


# ---------------------------------------------------------------------------
# Individual checks.


def check_summand_identity(ell: int, k: int, i: int) -> Case:
    """Three-way identity: formula summand, i-vacant generating sum, and the
    generating sum over first-part-i partitions with in-box k-conjugate.
    Both sums are rows of one per-box memo, so every i shares one pass over
    the box.
    These are theorems, so any failure is a bug."""
    if not (1 <= i <= min(ell, k)):
        raise ValueError(f"need 1 <= i <= min(ell, k), got ell={ell}, k={k}, i={i}")
    formula = QPoly.q_power(i) * q_binomial(k, i) * q_binomial_prime(ell, i, k)
    _, vacant, firsts = _box_k_conjugates(ell, k)
    vacant_sum = QPoly.from_coeffs(vacant[i])
    conj_sum = QPoly.from_coeffs(firsts[i])
    params = {"ell": ell, "k": k, "i": i}
    if vacant_sum != formula:
        return _case("summand", params, THEOREM, formula, vacant_sum,
                     "i-vacant generating sum disagrees with the formula")
    if conj_sum != formula:
        return _case("summand", params, THEOREM, formula, conj_sum,
                     "k-conjugate reformulation disagrees with the formula")
    return _case("summand", params, THEOREM, formula, formula)


def check_rt(ell: int, k: int) -> list[Case]:
    """Computed subalgebra Hilbert series against the closed formula, for every
    generation bound m.  The m in {0, 1, min} cases are proven and must pass."""
    cases = []
    low = min(ell, k)
    for m in range(low + 1):
        kind = THEOREM if m in (0, 1, low) else CONJECTURE
        expected = grass_subalgebra_formula(ell, k, m)
        actual = subalgebra_hilbert(ell, k, m)
        cases.append(_case("rt", {"ell": ell, "k": k, "m": m}, kind, expected, actual))
    return cases


def check_lg(n: int) -> list[Case]:
    """Lagrangian subalgebra Hilbert series against the closed formula for each
    m (proven for m in {1, n}), plus the even-m stabilisation theorem: e_m lies
    in the subalgebra A of the odd e_i < m, so A is the even-m subalgebra too;
    a pass reports the shared series.

    The membership is read off the exact ranks.  Every degree-m monomial but
    e_m is a product of e_i < m, which lie in A given the lower
    stabilisations, so A_m + Q e_m is the whole degree-m piece H_m, and e_m
    lies in A_m exactly when dim A_m = dim H_m.  A pass is always sound; a
    FAIL can be false only when the case of a lower even m fails too."""
    cases = []
    for m in range(1, n + 1):
        kind = THEOREM if m in (1, n) else CONJECTURE
        expected = lg_subalgebra_formula(n, m)
        actual = lg_subalgebra_hilbert(n, m)
        cases.append(_case("lg", {"n": n, "m": m}, kind, expected, actual))
    ring = lg_hilbert_series(n)
    for m in range(2, n + 1, 2):
        series = lg_subalgebra_hilbert(n, m - 1)
        inside = series.coeff(m) == ring.coeff(m)
        cases.append(
            _case("lg-stab", {"n": n, "m": m}, THEOREM, series, series if inside else QPoly.zero(),
                  f"e_{m} is not in the subalgebra generated by the odd e_i < {m}")
        )
    return cases


def check_prop51(n: int) -> Case:
    """Pure q-series identity: the staircase generating function equals one
    plus the odd-indexed shifted q-binomials."""
    expected = lg_hilbert_series(n)
    actual = QPoly.one() if n == 0 else lg_subalgebra_formula(n, n)
    return _case("prop51", {"n": n}, THEOREM, expected, actual)


def _roundtrip(name, params, family, pieces, decompose, compose, bound) -> Case:
    """Round-trip bijectivity of a decomposition: each partition of `family`
    must decompose and compose back to itself, and each piece tuple of
    `pieces` must compose and decompose back to itself.  A failed partition is
    left out of the actual series; a failed piece tuple costs one from its
    constant term."""
    expected = gen_sum(family)
    good = []
    detail = ""
    for lam in family:
        if compose(*decompose(lam, bound), bound) == lam:
            good.append(lam)
        elif not detail:
            detail = f"decompose/compose round trip failed at {lam}"
    bad_compose = 0
    for piece in pieces:
        if decompose(compose(*piece, bound), bound) != piece:
            bad_compose += 1
            if not detail:
                detail = f"compose/decompose round trip failed at {piece}"
    return _case(name, params, THEOREM, expected, gen_sum(good) - QPoly({0: bad_compose}), detail)


def check_vacant_roundtrip(ell: int, k: int) -> Case:
    """Round-trip bijectivity of the vacant decomposition on the ell x k box."""
    pieces = (
        (i, j, dag, ddag)
        for i in range(1, min(ell, k) + 1)
        for j in range(ell - i + 1)
        for dag in partitions_in_box(i, k - i)
        for ddag in partitions_in_box(j, i - 1)
    )
    family = [lam for lam in partitions_in_box(ell, k) if lam]
    return _roundtrip("vacant-roundtrip", {"ell": ell, "k": k}, family, pieces,
                      vacant_decompose, vacant_compose, k)


def check_shifted_roundtrip(n: int) -> Case:
    """Round-trip bijectivity of the shifted decomposition on the order-n
    staircase.  `shifted_compose` refuses an even i, an i + j past n and a mu
    outside the j x i box, so a composed partition certifies its pieces."""
    pieces = ((i, j, mu) for i in range(1, n + 1, 2) for j in range(n - i + 1) for mu in partitions_in_box(j, i))
    family = [lam for lam in strict_partitions_in_triangle(n) if lam]
    return _roundtrip("shifted-roundtrip", {"n": n}, family, pieces, shifted_decompose, shifted_compose, n)


def check_vacancy_conjugation(ell: int, k: int) -> Case:
    """Vacancy equals the first part of the k-conjugate, for every nonempty
    partition in the box."""
    family = [lam for lam in partitions_in_box(ell, k) if lam]
    counts: dict[int, int] = {}
    agree: dict[int, int] = {}
    detail = ""
    for lam in family:
        v = vacancy(lam, k)
        counts[v] = counts.get(v, 0) + 1
        if k_conjugate(lam, k).first == v:
            agree[v] = agree.get(v, 0) + 1
        elif not detail:
            detail = f"vacancy({lam}) = {v} but k-conjugate is {k_conjugate(lam, k)}"
    return _case(
        "vacancy-conjugation", {"ell": ell, "k": k}, THEOREM,
        QPoly(counts), QPoly(agree), detail,
    )


def _basis_case(name: str, report) -> Case:
    expected = QPoly({e.degree: e.candidates for e in report.degrees})
    actual_counts = {}
    detail = ""
    for e in report.degrees:
        actual_counts[e.degree] = e.rank if e.ok else -1
        if not e.ok and not detail:
            flags = f"independent={e.independent} spans={e.spans} contained={e.contained}"
            detail = (
                f"degree {e.degree}: candidates={e.candidates} rank={e.rank} dim={e.dim} {flags}"
            )
    return _case(
        name,
        {"ell": report.ell, "k": report.k, "m": report.m},
        CONJECTURE,
        expected,
        QPoly(actual_counts),
        detail,
    )


def check_h_basis(ell: int, k: int, m: int) -> Case:
    return _basis_case("h-basis", h_basis_report(ell, k, m))


def check_kschur_basis(ell: int, k: int, m: int) -> Case:
    return _basis_case("kschur-basis", kschur_basis_report(ell, k, m))


def plucker_degree(n: int) -> int:
    """Degree of LG(n, 2n) in its Plucker embedding:
    N! 2^(n(n-1)/2) prod_{i=1..n} (i-1)!/(2i-1)!, with N = n(n+1)/2."""
    num = factorial(n * (n + 1) // 2) * 2 ** (n * (n - 1) // 2)
    den = 1
    for i in range(1, n + 1):
        num *= factorial(i - 1)
        den *= factorial(2 * i - 1)
    return num // den


def check_lg_top_power(n: int) -> Case:
    """The top power of the degree-one generator equals the Plucker degree of
    LG(n, 2n).  The detail always records the coefficient: it doubles as a
    regression constant."""
    value = lg_top_power(n)
    degree = plucker_degree(n)
    ok = value == degree
    return Case(
        name="lg-top-power",
        params={"n": n},
        status=PASS if ok else FAIL,
        expected=QPoly.one(),
        actual=QPoly.one() if ok else QPoly.zero(),
        detail=f"top coefficient {value}" + ("" if ok else f", Plucker degree {degree}"),
        kind=THEOREM,
    )


# ---------------------------------------------------------------------------
# Sweep execution.  The families and config checks live in `config`.


def _tasks_for(config: dict) -> list[tuple[str, dict, Callable]]:
    """(family, params, check) tasks in the fixed (family, params) order."""
    families = config.get("families", {})
    checks = globals()
    return [
        (family.name, params, checks[check])
        for family in FAMILIES.values()
        if family.name in families
        for point in _grid_points(family, families[family.name])
        for params in family.expand(*point)
        for check in family.checks
    ]


def _error_case(family: str, params: dict, detail: str) -> Case:
    return Case(
        name=family,
        params=params,
        status=ERROR,
        expected=QPoly.zero(),
        actual=QPoly.zero(),
        detail=detail,
        kind=THEOREM,
    )


def _run_task(task) -> list[Case]:
    """check(**params) as a list of cases; an exception becomes an error case
    naming the task."""
    family, params, check = task
    try:
        result = check(**params)
    except Exception as exc:  # surfaced as an error case, never swallowed
        result = _error_case(family, params, f"{type(exc).__name__}: {exc}")
    return result if isinstance(result, list) else [result]


# the families whose checks build the ring of their box or order
_RING_FAMILIES = frozenset({"rt", "h-basis", "kschur-basis", "lg"})


def _shards(tasks) -> list[list[int]]:
    """The task indices grouped by the box (ell, k) or staircase order n whose
    memos they share; a task that names neither is a shard of its own.  Shards
    come largest first by the dimension of the ring their tasks build
    (C(ell + k, k) Schubert classes for a box, 2^n for an order), so that a
    large shard does not start last; shards that build no ring come last, in
    task order."""
    groups: dict = {}
    for index, (family, params, _) in enumerate(tasks):
        if "ell" in params:
            key, size = (params["ell"], params["k"]), comb(params["ell"] + params["k"], params["k"])
        elif "n" in params:
            key, size = params["n"], 2 ** params["n"]
        else:
            key, size = ("task", index), 0
        group = groups.setdefault(key, [0, []])
        group[1].append(index)
        if family in _RING_FAMILIES:
            group[0] = size
    return [indices for _, indices in sorted(groups.values(), key=lambda group: -group[0])]


def _run_tasks(tasks, keep_going: bool) -> Report:
    """Run every task and collect its cases in task order.  With more than one
    CPU in the affinity mask, os.fork, no second thread and more than one
    shard, min(CPUs, shards) - 1 forked workers share the shards with this
    process; otherwise the tasks run here, one after another.  Unless
    `keep_going`, the report ends at the first task with a failed or errored
    theorem case, whose detail says the sweep aborted."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    shards = _shards(tasks)
    workers = min(cpus, len(shards)) - 1
    if workers > 0 and hasattr(os, "fork") and threading.active_count() == 1:
        from . import forked  # loaded only by a sweep that forks

        results, lost = forked.run_shards(shards, workers, lambda index: _run_task(tasks[index]))
        reason = "; ".join(lost)
        per_task = [
            results[index] if index in results else [_error_case(family, params, reason)]
            for index, (family, params, _) in enumerate(tasks)
        ]
    else:
        per_task = map(_run_task, tasks)
    report = Report([])
    for cases in per_task:
        report.cases.extend(cases)
        if not keep_going and any(c.kind == THEOREM and c.status in (FAIL, ERROR) for c in cases):
            last = report.cases[-1]
            detail = (last.detail + "; " if last.detail else "") + "sweep aborted on theorem failure"
            report.cases[-1] = last._replace(detail=detail)
            break
    return report


def sweep(config: dict | None = None) -> Report:
    """Run every configured check family and collect the cases in order."""
    config = validate_config(DEFAULT_CONFIG if config is None else config)
    return _run_tasks(_tasks_for(config), config.get("keep_going", False))
