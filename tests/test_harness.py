import contextlib
import functools
import json
import os
import signal
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from qgrass import echelon, forked, harness, lagrangian, partitions, schur
from qgrass.config import ConfigError
from qgrass.echelon import DegreeSlice, Ring, generated
from qgrass.grassmann import h_basis_report, kschur_basis_report, project
from qgrass.harness import (
    CONJECTURE,
    THEOREM,
    Case,
    _run_tasks,
    check_h_basis,
    check_kschur_basis,
    check_lg,
    check_lg_top_power,
    check_prop51,
    check_rt,
    check_summand_identity,
    check_shifted_roundtrip,
    check_vacancy_conjugation,
    check_vacant_roundtrip,
    plucker_degree,
    sweep,
    validate_config,
)
from qgrass.partitions import Partition
from qgrass.qseries import QPoly
from qgrass.schur import SymVector, _pieri_map, h_to_schur

from oracles import _columns, lg_stab_membership

SWEEP_DEFAULT_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "answers" / "sweep-default.txt"

# The two ways a sweep runs its tasks: in this process, or sharded over forked
# workers.  Every test of `_run_tasks` runs on both.
SWEEP_PATHS = ("forked", "inline")


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@contextlib.contextmanager
def sweep_path(path):
    """Put the sweep on one path: "inline" sees a one-CPU affinity mask and
    os.fork refused, "forked" a two-CPU mask.  Yields the pids forked, and
    then checks that the forked path forked, that no child is left and, where
    /proc shows them, that no file descriptor is left open."""
    forks, real_fork = [], os.fork
    before = _open_fds()

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def refuse():
        raise AssertionError("a sweep on one CPU forked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0} if path == "inline" else {0, 1})
        mp.setattr(os, "fork", refuse if path == "inline" else fork)
        yield forks
    assert bool(forks) == (path == "forked"), path
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before


def test_summand_identity_golden():
    case = check_summand_identity(3, 3, 2)
    assert case.status == "pass"
    assert case.expected == QPoly.from_coeffs([0, 0, 1, 1, 2, 2, 2, 1])
    case = check_summand_identity(3, 3, 3)
    assert case.status == "pass"
    assert case.expected == QPoly.q_power(3)
    case = check_summand_identity(4, 2, 1)
    assert case.status == "pass"
    with pytest.raises(ValueError):
        check_summand_identity(3, 3, 4)


def test_rt_cases_and_kinds():
    cases = check_rt(3, 3)
    assert [c.params["m"] for c in cases] == [0, 1, 2, 3]
    assert [c.kind for c in cases] == [THEOREM, THEOREM, CONJECTURE, THEOREM]
    assert all(c.status == "pass" for c in cases)
    assert all(c.status == "pass" for c in check_rt(2, 2))


def test_check_rt_builds_each_monomial_row_once(monkeypatch):
    # every `apply_map` call of check_rt(6, 6) on cold memos: its seven
    # builds share the box's ring, so each monomial row is built once for
    # all of them (2,308 calls when each build built its own)
    built = []
    apply_map = echelon.apply_map

    def counting_apply_map(terms, pieri_map, width):
        built.append(width)
        return apply_map(terms, pieri_map, width)

    monkeypatch.setattr(echelon, "apply_map", counting_apply_map)
    schur._ring.cache_clear()
    try:
        assert all(c.status == "pass" for c in check_rt(6, 6))
    finally:
        schur._ring.cache_clear()
    assert len(built) == 2052


def test_lg_cases():
    cases = check_lg(3)
    assert all(c.status == "pass" for c in cases)
    names = [c.name for c in cases]
    assert names == ["lg", "lg", "lg", "lg-stab"]
    kinds = {c.params["m"]: c.kind for c in cases if c.name == "lg"}
    assert kinds == {1: THEOREM, 2: CONJECTURE, 3: THEOREM}
    top = check_lg_top_power(2)
    assert top.status == "pass" and "2" in top.detail


def test_lg_stab_rejects_a_dropped_generator(monkeypatch):
    # take the ranks the stabilisation reads from e_1 alone: e_2 = e_1^2 / 2
    # still lies in them, but e_4 needs e_3, so it must be rejected, as the
    # membership oracle on the same generator rejects it; under the bad
    # prime 2 the ranks come from the exact fallback
    def e1_only(n, odd):
        columns = [_columns(n, n, 1, d)[0] for d in range(n * (n + 1) // 2 + 1)]
        return tuple(span.rank for span in generated(Ring(columns, functools.partial(_pieri_map, n, n, 1)), (1,)))

    monkeypatch.setattr(lagrangian, "_lg_rank_data", e1_only)
    for p in (None, 2):
        if p:
            monkeypatch.setattr(echelon, "_rank_prime", lambda width: p)
        for n in (4, 5):
            stab = {c.params["m"]: c for c in check_lg(n) if c.name == "lg-stab"}
            assert stab[2].status == "pass" and lg_stab_membership(n, 2, (1,))
            assert stab[4].status == "fail" and not lg_stab_membership(n, 4, (1,))
            assert stab[4].actual == QPoly.zero() and stab[4].expected == lagrangian.lg_subalgebra_hilbert(n, 3)
            assert stab[4].detail == "e_4 is not in the subalgebra generated by the odd e_i < 4"


def test_lg_stab_reads_the_rank_of_degree_m(monkeypatch):
    # ranks one short at degree 4 alone fail m = 4 and nothing else
    ranks = lagrangian._lg_rank_data

    def short_at_4(n, odd):
        return tuple(r - (d == 4) for d, r in enumerate(ranks(n, odd)))

    monkeypatch.setattr(lagrangian, "_lg_rank_data", short_at_4)
    stab = {c.params["m"]: c.status for c in check_lg(6) if c.name == "lg-stab"}
    assert stab == {2: "pass", 4: "fail", 6: "pass"}


@pytest.mark.parametrize("p", [(1 << 20) - 3, 2])
def test_lg_stab_ranks_agree_with_the_membership_oracle(monkeypatch, p):
    # the rank criterion of `check_lg` and the exact membership of sigma_m in
    # a build of degrees 0..m both hold at every even m, with a 20-bit rank
    # prime and with the bad prime 2
    monkeypatch.setattr(echelon, "_rank_prime", lambda width: p)
    lagrangian._lg_rank_data.cache_clear()
    schur._ring.cache_clear()
    try:
        for n in range(2, 10):
            stab = {c.params["m"]: c.status for c in check_lg(n) if c.name == "lg-stab"}
            assert stab == {m: "pass" for m in range(2, n + 1, 2)}, n
            assert all(lg_stab_membership(n, m) for m in stab), n
    finally:
        lagrangian._lg_rank_data.cache_clear()
        schur._ring.cache_clear()


def test_check_lg_passes_under_a_bad_prime(monkeypatch):
    # mod 2 every Pieri coefficient 2^e with e >= 1 vanishes, so the rank
    # builds fall back to exact slices at many degrees; the series and the
    # lg-stab verdicts read from them must not change
    exact = []

    class Watched(DegreeSlice):
        def __init__(self, degree, columns):
            exact.append(degree)
            super().__init__(degree, columns)

    monkeypatch.setattr(echelon, "DegreeSlice", Watched)
    monkeypatch.setattr(echelon, "_rank_prime", lambda width: 2)
    lagrangian._lg_rank_data.cache_clear()
    schur._ring.cache_clear()
    try:
        for n in range(2, 9):
            assert all(c.status == "pass" for c in check_lg(n)), n
    finally:
        lagrangian._lg_rank_data.cache_clear()
        schur._ring.cache_clear()
    assert exact


def test_check_lg_builds_from_odd_generators_only(monkeypatch):
    pieri_map = schur._pieri_map
    built = set()

    def recording_pieri_map(cap, rows, gap, d, i):
        built.add(i)
        return pieri_map(cap, rows, gap, d, i)

    monkeypatch.setattr(schur, "_pieri_map", recording_pieri_map)
    for n in (1, 2, 7, 8):
        lagrangian._lg_rank_data.cache_clear()
        schur._ring.cache_clear()
        lagrangian._lg_slice_data.cache_clear()
        pieri_map.cache_clear()
        built.clear()
        assert all(c.status == "pass" for c in check_lg(n))
        # one rank build per odd bound, no span kept (lg-stab reads the
        # ranks), and no Pieri map of an even generator
        assert lagrangian._lg_rank_data.cache_info().currsize == (n + 1) // 2
        assert lagrangian._lg_slice_data.cache_info().currsize == 0
        assert built == set(range(1, n + 1, 2))


def test_plucker_degree_known_values():
    # LG(1,2) is a line, LG(2,4) a quadric, LG(3,6) has degree 16, LG(4,8) 768
    assert [plucker_degree(n) for n in range(1, 5)] == [1, 2, 16, 768]


def test_lg_top_power_equals_plucker_degree():
    for n in range(1, 10):
        case = check_lg_top_power(n)
        assert case.status == "pass"
        assert case.expected == case.actual == QPoly.one()
        assert case.detail == f"top coefficient {plucker_degree(n)}"


def test_lg_top_power_wrong_value_fails(monkeypatch):
    monkeypatch.setattr(harness, "lg_top_power", lambda n: 2 * plucker_degree(n))
    case = check_lg_top_power(3)
    assert case.status == "fail"
    assert case.actual == QPoly.zero()
    assert case.detail == "top coefficient 32, Plucker degree 16"


def test_prop51_cases():
    case = check_prop51(1)
    assert case.status == "pass"
    assert case.expected == QPoly.from_coeffs([1, 1])
    assert check_prop51(0).status == "pass"
    assert check_prop51(10).status == "pass"


def test_roundtrip_and_identity_cases():
    assert check_vacant_roundtrip(5, 5).status == "pass"
    assert check_vacant_roundtrip(4, 4).status == "pass"
    assert check_shifted_roundtrip(6).status == "pass"
    assert check_vacancy_conjugation(4, 4).status == "pass"


@pytest.fixture
def fresh_box_memos():
    # a patched vacancy or k_conjugate must not leave its values in the per-box memos
    partitions._box_k_conjugates.cache_clear()
    yield
    partitions._box_k_conjugates.cache_clear()


def test_summand_fails_on_either_broken_side(monkeypatch, fresh_box_memos):
    formula = QPoly.from_coeffs([0, 0, 1, 1, 2, 2, 2, 1])
    vacancy = partitions.vacancy
    # a vacancy that misreads the first 2-vacant partition, (1, 1), so the
    # i-vacant sums of the per-box memo lose it
    monkeypatch.setattr(partitions, "vacancy", lambda lam, k: 0 if lam.parts == (1, 1) else vacancy(lam, k))
    case = check_summand_identity(3, 3, 2)
    assert (case.status, case.expected) == ("fail", formula)
    assert case.actual == formula - QPoly.q_power(2)
    assert case.detail == "i-vacant generating sum disagrees with the formula"
    # a k-conjugation that forgets to conjugate, reached through the per-box memo
    monkeypatch.setattr(partitions, "vacancy", vacancy)
    monkeypatch.setattr(partitions, "k_conjugate", lambda lam, k: lam)
    partitions._box_k_conjugates.cache_clear()
    case = check_summand_identity(3, 3, 2)
    assert (case.status, case.expected) == ("fail", formula)
    assert case.actual == QPoly.from_coeffs([0, 0, 1, 1, 2, 1, 1])
    assert case.detail == "k-conjugate reformulation disagrees with the formula"


def _assert_summand_calls_once_per_box_partition(monkeypatch, name):
    # every summand case of a box runs, and partitions.<name> sees each
    # partition of the box exactly once, in the one pass of the per-box memo
    calls, real = [], getattr(partitions, name)

    def counted(lam, k):
        calls.append((lam, k))
        return real(lam, k)

    monkeypatch.setattr(partitions, name, counted)
    for ell, k in [(3, 3), (2, 4), (4, 3), (5, 5)]:
        calls.clear()
        for i in range(1, min(ell, k) + 1):
            assert check_summand_identity(ell, k, i).status == "pass", (ell, k, i)
        box = [(lam, k) for lam in partitions.partitions_in_box(ell, k)]
        assert sorted(calls) == sorted(box), (ell, k)


def test_summand_cases_take_each_box_vacancy_once(monkeypatch, fresh_box_memos):
    _assert_summand_calls_once_per_box_partition(monkeypatch, "vacancy")


def test_summand_cases_k_conjugate_each_box_partition_once(monkeypatch, fresh_box_memos):
    _assert_summand_calls_once_per_box_partition(monkeypatch, "k_conjugate")


def test_vacancy_conjugation_fails_on_a_broken_conjugate(monkeypatch):
    monkeypatch.setattr(harness, "k_conjugate", lambda lam, k: lam)
    case = check_vacancy_conjugation(3, 3)
    assert case.status == "fail"
    assert (case.expected, case.actual) == (QPoly.from_coeffs([0, 9, 9, 1]), QPoly.from_coeffs([0, 1, 5]))
    assert case.detail == "vacancy(2) = 1 but k-conjugate is 2"


@pytest.mark.parametrize(
    "check, compose, decompose, size, empty",
    [
        (check_vacant_roundtrip, "vacant_compose", "vacant_decompose", (3, 3), (Partition(()),)),
        (check_shifted_roundtrip, "shifted_compose", "shifted_decompose", (4,), ()),
    ],
    ids=["decomp-vacant", "decomp-shifted"],
)
def test_roundtrip_fails_in_either_direction(monkeypatch, check, compose, decompose, size, empty):
    expected = check(*size).expected
    real_compose, real_decompose = getattr(partitions, compose), getattr(partitions, decompose)
    # a compose that drops the last piece: decompose then compose misses
    monkeypatch.setattr(harness, compose, lambda *args: real_compose(*args[:-2], Partition(()), args[-1]))
    case = check(*size)
    assert (case.status, case.expected) == ("fail", expected)
    assert case.actual != expected
    assert case.detail.startswith("decompose/compose round trip failed at ")
    # a decompose whose pieces are right but come back as a list, not the
    # tuple compose took: compose accepts it, so only the other direction sees it
    monkeypatch.setattr(harness, compose, real_compose)
    monkeypatch.setattr(harness, decompose, lambda lam, bound: list(real_decompose(lam, bound)))
    case = check(*size)
    assert (case.status, case.expected) == ("fail", expected)
    assert case.actual == expected - QPoly({0: sum(expected.coeffs())})
    assert case.detail == f"compose/decompose round trip failed at {(1, 0, Partition(()), *empty)}"


@pytest.mark.parametrize(
    "family, decompose, bad_pieces",
    [
        ("decomp-vacant", "vacant_decompose", lambda lam, k: (0, 0, Partition(()), Partition(()))),
        ("decomp-shifted", "shifted_decompose", lambda lam, n: (2, 0, Partition(()))),
    ],
)
def test_roundtrip_never_passes_invalid_pieces(monkeypatch, family, decompose, bad_pieces):
    # pieces outside the decomposition's range (an i of 0, an even i) are
    # refused by the compose step, so the case is an error, never a pass
    monkeypatch.setattr(harness, decompose, bad_pieces)
    report = _run_tasks(harness._tasks_for({"families": {family: {"max": 3}}}), keep_going=True)
    assert report.cases and all(c.status == "error" for c in report.cases)
    assert all(c.name == family and c.detail.startswith("ValueError: ") for c in report.cases)


def test_basis_cases():
    case = check_h_basis(3, 3, 2)
    assert case.status == "pass" and case.kind == CONJECTURE
    assert check_kschur_basis(2, 2, 2).status == "pass"


def test_config_validation():
    validate_config({"families": {"rt": {"max": 2}}})
    validate_config({"families": {"lg": {"ns": [3]}}})
    with pytest.raises(ConfigError):
        validate_config({"families": {"bogus": {"max": 2}}})
    with pytest.raises(ConfigError):
        validate_config({"families": {"rt": {"pairs": [[0, 1]]}}})
    with pytest.raises(ConfigError):
        validate_config({"families": {"rt": {}}})
    with pytest.raises(ConfigError):
        validate_config({"jobs": 1, "families": {}})
    with pytest.raises(ConfigError):
        validate_config({"nope": 1})
    for families in ({"rt": {"max": True}}, {"rt": {"pairs": [[True, 2]]}}, {"lg": {"ns": [False]}}):
        with pytest.raises(ConfigError):
            validate_config({"families": families})


def test_grid_spec_gives_max_or_a_non_empty_list():
    for spec, message in (
        ({"pairs": [[2, 2]], "max": "x"}, "family 'rt' spec gives both 'max' and 'pairs'; give one"),
        ({"pairs": [[2, 2]], "max": 3}, "family 'rt' spec gives both 'max' and 'pairs'; give one"),
        ({"pairs": []}, "family 'rt' spec names no grid point: 'pairs' is empty"),
    ):
        with pytest.raises(ConfigError, match=message):
            validate_config({"families": {"rt": spec}})
    with pytest.raises(ConfigError, match="family 'lg' spec names no grid point: 'ns' is empty"):
        validate_config({"families": {"lg": {"ns": []}}})
    with pytest.raises(ConfigError, match="family 'prop51' spec gives both 'max' and 'ns'; give one"):
        validate_config({"families": {"prop51": {"ns": [2], "max": -4}}})
    # no family at all is still a valid, empty sweep
    assert validate_config({"families": {}}) == {"families": {}}


def test_lg_grid_rejects_n_below_one():
    for ns in ([0], [3, 0]):
        with pytest.raises(ConfigError, match="'lg' needs n >= 1, got n=0"):
            validate_config({"families": {"lg": {"ns": ns}}})
    # a max of 0 names no n at all, for every staircase family
    for name in ("lg", "prop51"):
        with pytest.raises(ConfigError, match="'max' >= 1"):
            validate_config({"families": {name: {"max": 0}}})
    # the other staircase families take n = 0
    report = sweep({"families": {"prop51": {"ns": [0]}, "decomp-shifted": {"ns": [0]}}})
    assert len(report.cases) == 2 and report.ok


def test_sweep_empty_and_single_case():
    report = sweep({"families": {}})
    assert report.cases == []
    assert report.summary == {"pass": 0, "fail": 0, "error": 0}
    report = sweep({"families": {"prop51": {"ns": [4]}}})
    assert len(report.cases) == 1
    assert report.ok


def test_sweep_matches_default_golden():
    golden = SWEEP_DEFAULT_GOLDEN.read_text(encoding="utf-8")
    for path in SWEEP_PATHS:
        with sweep_path(path):
            assert sweep().to_text() + "\n" == golden, path


def test_report_json_schema():
    report = sweep({"families": {"summand": {"pairs": [[2, 2]]}}})
    obj = json.loads(report.to_json())
    assert set(obj) == {"cases", "summary"}
    assert set(obj["summary"]) == {"pass", "fail", "error"}
    for case in obj["cases"]:
        assert set(case) == {"name", "params", "status", "expected", "actual", "detail"}
        assert isinstance(case["expected"], list)
    assert report.to_text().splitlines()[-1].startswith("summary:")
    assert report.to_markdown().startswith("| status |")


def _failing_basis_cases(families):
    report = sweep({"families": families})
    assert report.summary["error"] == 0
    return {(c.name, c.params["ell"], c.params["k"], c.params["m"]) for c in report.cases if c.status == "fail"}


def test_readme_findings_h_basis():
    failing = _failing_basis_cases({"h-basis": {"pairs": [[2, 5], [3, 5], [5, 2]]}})
    assert failing == {("h-basis", 2, 5, 2), ("h-basis", 3, 5, 3)}


def test_readme_findings_kschur_basis():
    failing = _failing_basis_cases({"kschur-basis": {"pairs": [[2, 5], [3, 5], [4, 5], [5, 2], [6, 2]]}})
    assert failing == {
        ("kschur-basis", 2, 5, 2),
        ("kschur-basis", 3, 5, 3),
        ("kschur-basis", 4, 5, 3),
        ("kschur-basis", 4, 5, 4),
        ("kschur-basis", 5, 2, 2),
        ("kschur-basis", 6, 2, 2),
    }


def _failing_degrees(report):
    """The failing degrees of a basis report, as (d, candidates, rank, dim);
    every degree's candidates lie in the subalgebra."""
    assert all(e.contained for e in report.degrees)
    return [(e.degree, e.candidates, e.rank, e.dim) for e in report.degrees if not e.ok]


def test_readme_findings_six_boxes():
    assert _failing_degrees(h_basis_report(4, 6, 4)) == [(7, 10, 9, 10), (8, 13, 12, 13)]
    assert _failing_degrees(kschur_basis_report(4, 6, 4)) == [(7, 10, 9, 10), (8, 13, 12, 13)]
    assert _failing_degrees(kschur_basis_report(6, 4, 4)) == [(7, 10, 9, 10)]
    assert _failing_degrees(kschur_basis_report(6, 6, 4)) == [(24, 39, 38, 39)]
    for m in range(1, 4):
        assert h_basis_report(4, 6, m).verdict and kschur_basis_report(6, 4, m).verdict
    assert h_basis_report(6, 4, 4).verdict


def test_readme_findings_seven_boxes():
    assert _failing_degrees(h_basis_report(5, 7, 4)) == [(15, 45, 44, 45)]
    assert _failing_degrees(kschur_basis_report(5, 7, 4)) == [(15, 45, 44, 45)]
    assert _failing_degrees(kschur_basis_report(6, 7, 4)) == [(17, 70, 69, 70)]
    assert _failing_degrees(kschur_basis_report(6, 7, 5)) == [(17, 81, 80, 81)]


def test_readme_findings_proportional_pair():
    s53, s44 = Partition((5, 3)), Partition((4, 4))
    column = project(h_to_schur(Partition((1,) * 8)), 2, 5)
    square = project(h_to_schur(Partition((2, 2, 2, 2))), 2, 5)
    assert column == SymVector({s53: 28, s44: 14})
    assert square == SymVector({s53: 6, s44: 3})


def _fake_case(status, kind):
    return Case(
        name="fake",
        params={"x": 1},
        status=status,
        expected=QPoly.one(),
        actual=QPoly.one() if status == "pass" else QPoly.zero(),
        kind=kind,
    )


def _fake_task(status, kind):
    return ("fake", {}, lambda: _fake_case(status, kind))


def test_run_tasks_aborts_on_theorem_failure():
    tasks = [
        _fake_task("pass", THEOREM),
        _fake_task("fail", THEOREM),
        _fake_task("pass", THEOREM),
    ]
    for path in SWEEP_PATHS:
        with sweep_path(path):
            report = _run_tasks(tasks, keep_going=False)
            assert len(report.cases) == 2
            assert "aborted" in report.cases[-1].detail
            report = _run_tasks(tasks, keep_going=True)
            assert len(report.cases) == 3


def test_run_tasks_never_aborts_on_conjecture_failure():
    tasks = [
        _fake_task("fail", CONJECTURE),
        _fake_task("pass", THEOREM),
    ]
    for path in SWEEP_PATHS:
        with sweep_path(path):
            report = _run_tasks(tasks, keep_going=False)
            assert len(report.cases) == 2
            assert not report.ok


def test_run_tasks_wraps_exceptions_as_error_cases():
    def boom(ell, k, i):
        raise ZeroDivisionError("x")

    # the passing task on a second box gives the forked path a second shard
    tasks = [
        ("summand", {"ell": 2, "k": 3, "i": 1}, boom),
        ("summand", {"ell": 3, "k": 3, "i": 1}, check_summand_identity),
    ]
    for path in SWEEP_PATHS:
        with sweep_path(path):
            report = _run_tasks(tasks, keep_going=True)
            assert report.summary["error"] == 1
            case = report.cases[0]
            assert case.name == "summand"
            assert case.params == {"ell": 2, "k": 3, "i": 1}
            assert report.to_text().splitlines()[0] == (
                "ERROR summand ell=2 k=3 i=1 | expected=0 actual=0 | ZeroDivisionError: x"
            )


def test_shards_group_tasks_by_box_or_order_largest_first():
    tasks = harness._tasks_for(harness.DEFAULT_CONFIG)
    shards = harness._shards(tasks)
    assert sorted(i for shard in shards for i in shard) == list(range(len(tasks)))
    keys = []
    for shard in shards:
        key = {(p["ell"], p["k"]) if "ell" in p else p["n"] for _, p, _ in (tasks[i] for i in shard)}
        assert len(key) == 1, key  # one box or order per shard
        keys += key
    assert len(set(keys)) == len(keys) == 66  # each in one shard only
    # largest ring first: C(ell + k, k) classes for a box, 2^n for an order;
    # the orders past the lg grid (n = 9..30) build no ring and come last,
    # in task order, so the (6,6) box starts first
    builds = {"rt", "h-basis", "kschur-basis", "lg"}
    sizes = [
        (comb(sum(key), key[0]) if isinstance(key, tuple) else 2**key)
        * any(tasks[i][0] in builds for i in shard)
        for key, shard in zip(keys, shards)
    ]
    assert sizes == sorted(sizes, reverse=True)
    assert keys[:3] == [(6, 6), (5, 6), (6, 5)]
    assert keys[-22:] == list(range(9, 31)) and sizes.count(0) == 22
    # a task naming neither a box nor an order is a shard of its own
    assert harness._shards([_fake_task("pass", THEOREM)] * 3) == [[0], [1], [2]]


def test_the_default_sweep_starts_with_the_6x6_box():
    # the ring-free prop51 orders n = 10..30 no longer rank ahead of the box
    tasks = harness._tasks_for(harness.DEFAULT_CONFIG)
    first = harness._shards(tasks)[0]
    assert {(tasks[i][1].get("ell"), tasks[i][1].get("k")) for i in first} == {(6, 6)}
    assert "rt" in {tasks[i][0] for i in first}


def _exited(pid):
    """Wait up to 30 s for child `pid` to exit, leaving it for the sweep to reap."""
    deadline = time.monotonic() + 30
    while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG) is None:
        assert time.monotonic() < deadline, f"worker {pid} still running"
        time.sleep(0.01)


def test_a_lost_worker_turns_its_tasks_into_error_cases():
    parent = os.getpid()
    with sweep_path("forked") as forks:

        def check(n):
            if os.getpid() != parent:
                os._exit(3)
            _exited(forks[0])  # the worker has pulled the other shard and died
            return _fake_case("pass", THEOREM)

        report = _run_tasks([("fake", {"n": 1}, check), ("fake", {"n": 2}, check)], keep_going=True)
    assert len(forks) == 1
    assert sorted(c.status for c in report.cases) == ["error", "pass"]
    lost = next(c for c in report.cases if c.status == "error")
    assert lost.name == "fake" and lost.params in ({"n": 1}, {"n": 2})
    assert lost.detail == "worker exited with status 3"


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, RuntimeError])
def test_an_interrupted_sweep_reaps_its_workers(monkeypatch, interrupt):
    # the worker's task would run for a minute; the parent's raises at once
    parent = os.getpid()

    def check(n):
        if os.getpid() == parent:
            raise interrupt("stop")
        time.sleep(60)

    monkeypatch.setattr(harness, "_run_task", lambda task: check(**task[1]))
    start = time.monotonic()
    with pytest.raises(interrupt, match="stop"):
        with sweep_path("forked"):
            _run_tasks([("fake", {"n": n}, check) for n in (1, 2)], keep_going=True)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_sweep_that_cannot_fork_runs_in_one_process(monkeypatch):
    config = {"families": {"summand": {"max": 3}, "prop51": {"max": 4}}}
    with sweep_path("inline"):
        want = sweep(config).to_text()

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_process)
    before = _open_fds()
    assert sweep(config).to_text() == want
    assert _open_fds() == before


def test_the_parent_runs_the_shards_a_full_queue_left_out(monkeypatch):
    config = {"families": {"summand": {"max": 3}, "lg": {"max": 4}, "prop51": {"max": 6}}}
    with sweep_path("inline"):
        want = sweep(config).to_text()
    fill = forked._fill_queue
    monkeypatch.setattr(forked, "_fill_queue", lambda queue_w, count: fill(queue_w, min(count, 2)))
    with sweep_path("forked"):
        assert sweep(config).to_text() == want


def test_fill_queue_stops_at_a_full_pipe():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a pipe whose size can be set")
    queue_r, queue_w = os.pipe()
    try:
        size = fcntl.fcntl(queue_w, fcntl.F_SETPIPE_SZ, 4096)
        queued = forked._fill_queue(queue_w, 10 * size)
    finally:
        os.close(queue_w)
    try:
        assert queued == size // forked._INDEX_BYTES
        assert list(forked._pull(queue_r)) == list(range(queued))
    finally:
        os.close(queue_r)


def _live_children(pid):
    """The pids of the processes whose parent is `pid`, zombies left out."""
    kids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == pid and state not in "ZX":
            kids.append(int(entry))
    return kids


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except OSError:
        return False


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"), reason="needs os.fork and /proc")
def test_workers_end_with_a_killed_cli(tmp_path):
    # both boxes take seconds, so a worker that outlived its CLI would still be
    # in its shard 2 s after the SIGKILL
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep forks only with two CPUs")
    config = tmp_path / "slow.json"
    config.write_text(json.dumps({"families": {"rt": {"pairs": [[7, 7], [8, 6]]}}}))
    src = Path(harness.__file__).resolve().parent.parent
    cli = subprocess.Popen(
        [sys.executable, "-m", "qgrass.cli", "verify", "all", "--config", str(config)],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 30
        while not workers and time.monotonic() < deadline and cli.poll() is None:
            workers = _live_children(cli.pid)
            time.sleep(0.01)
        assert workers, "the sweep forked no worker"
        time.sleep(0.3)  # the worker is in its shard
        cli.kill()
        cli.wait(timeout=30)
        deadline = time.monotonic() + 2
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        cli.kill()
        cli.wait(timeout=30)
        for pid in filter(_alive, workers):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
