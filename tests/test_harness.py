import json
from pathlib import Path

import pytest

from qgrass import harness
from qgrass.grassmann import h_basis_report, kschur_basis_report, project
from qgrass.harness import (
    CONJECTURE,
    THEOREM,
    Case,
    ConfigError,
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
from qgrass.schur import SymVector, h_to_schur

SWEEP_DEFAULT_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "answers" / "sweep-default.txt"


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


def test_lg_cases():
    cases = check_lg(3)
    assert all(c.status == "pass" for c in cases)
    names = [c.name for c in cases]
    assert names == ["lg", "lg", "lg", "lg-stab"]
    kinds = {c.params["m"]: c.kind for c in cases if c.name == "lg"}
    assert kinds == {1: THEOREM, 2: CONJECTURE, 3: THEOREM}
    top = check_lg_top_power(2)
    assert top.status == "pass" and "2" in top.detail


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
    assert sweep().to_text() + "\n" == SWEEP_DEFAULT_GOLDEN.read_text(encoding="utf-8")


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


def test_readme_findings_six_boxes():
    # the failing degrees past ell, k = 5, as (d, candidates, rank, dim)
    def failing(report):
        assert all(e.contained for e in report.degrees)
        return [(e.degree, e.candidates, e.rank, e.dim) for e in report.degrees if not e.ok]

    assert failing(h_basis_report(4, 6, 4)) == [(7, 10, 9, 10), (8, 13, 12, 13)]
    assert failing(kschur_basis_report(4, 6, 4)) == [(7, 10, 9, 10), (8, 13, 12, 13)]
    assert failing(kschur_basis_report(6, 4, 4)) == [(7, 10, 9, 10)]
    assert failing(kschur_basis_report(6, 6, 4)) == [(24, 39, 38, 39)]
    for m in range(1, 4):
        assert h_basis_report(4, 6, m).verdict and kschur_basis_report(6, 4, m).verdict
    assert h_basis_report(6, 4, 4).verdict


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
    report = _run_tasks(tasks, keep_going=False)
    assert len(report.cases) == 2
    assert not report.ok


def test_run_tasks_wraps_exceptions_as_error_cases():
    def boom(ell, k, i):
        raise ZeroDivisionError("x")

    report = _run_tasks([("summand", {"ell": 2, "k": 3, "i": 1}, boom)], keep_going=True)
    assert report.summary["error"] == 1
    case = report.cases[0]
    assert case.name == "summand"
    assert case.params == {"ell": 2, "k": 3, "i": 1}
    assert report.to_text().splitlines()[0] == (
        "ERROR summand ell=2 k=3 i=1 | expected=0 actual=0 | ZeroDivisionError: x"
    )
