import json
import os
import subprocess
import sys

import pytest

import qgrass
from qgrass import harness
from qgrass.cli import entry, main
from qgrass.kschur import k_schur
from qgrass.partitions import Partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilb_grass_golden_json(capsys):
    code, out, err = run(capsys, "hilb", "grass", "--ell", "3", "--k", "3", "--m", "3", "--format", "json")
    assert code == 0 and err == ""
    assert out.strip() == '["1","1","2","3","3","3","3","2","1","1"]'


def test_hilb_grass_text_defaults_to_full_ring(capsys):
    code, out, _ = run(capsys, "hilb", "grass", "--ell", "3", "--k", "3")
    assert code == 0
    assert out.strip() == "1,1,2,3,3,3,3,2,1,1"


def test_hilb_lg(capsys):
    code, out, _ = run(capsys, "hilb", "lg", "--n", "3", "--m", "1")
    assert code == 0
    assert out.strip() == "1,1,1,1,1,1,1"


def test_formula_commands(capsys):
    code, out, _ = run(capsys, "formula", "rt", "--ell", "3", "--k", "3", "--m", "2")
    assert code == 0
    assert out.strip() == "1,1,2,2,3,3,3,2,1,1"
    code, out, _ = run(capsys, "formula", "lg", "--n", "3", "--m", "3")
    assert code == 0
    assert out.strip() == "1,1,1,2,1,1,1"


def test_kconj_golden(capsys):
    code, out, err = run(capsys, "kconj", "--k", "4", "4,3,1,1")
    assert code == 0 and err == ""
    assert out.strip() == "2,1,1,1,1,1,1,1"


def test_core_commands(capsys):
    code, out, _ = run(capsys, "core", "--k", "4", "4,3,1,1")
    assert code == 0
    assert out.strip() == "8,4,1,1"
    code, out, _ = run(capsys, "core", "--k", "4", "--to-bounded", "8,4,1,1")
    assert code == 0
    assert out.strip() == "4,3,1,1"


def test_vacancy_command(capsys):
    code, out, _ = run(capsys, "vacancy", "--ell", "6", "--k", "5", "4,4,3,3,1")
    assert code == 0
    assert out.strip() == "3"
    code, _, err = run(capsys, "vacancy", "--ell", "2", "--k", "5", "4,4,3,3,1")
    assert code == 2 and "rows" in err


def test_kschur_command(capsys):
    code, out, _ = run(capsys, "kschur", "--k", "2", "2,1")
    assert code == 0
    assert out.splitlines() == ["s(3): 1", "s(2,1): 1"]
    code, out, _ = run(capsys, "kschur", "--k", "2", "2,1", "--format", "json")
    assert json.loads(out) == [
        {"partition": "3", "coeff": "1"},
        {"partition": "2,1", "coeff": "1"},
    ]


# `qgrass kschur` output bytes, pinned per format: k = 1 gives h_1^8, whose
# Schur coefficients are the standard tableaux counts (90 at 4,2,1,1).
KSCHUR_PINS = {
    ("1", "1,1,1,1,1,1,1,1"): {
        "text": """\
s(8): 1
s(7,1): 7
s(6,2): 20
s(6,1,1): 21
s(5,3): 28
s(5,2,1): 64
s(5,1,1,1): 35
s(4,4): 14
s(4,3,1): 70
s(4,2,2): 56
s(4,2,1,1): 90
s(4,1,1,1,1): 35
s(3,3,2): 42
s(3,3,1,1): 56
s(3,2,2,1): 70
s(3,2,1,1,1): 64
s(3,1,1,1,1,1): 21
s(2,2,2,2): 14
s(2,2,2,1,1): 28
s(2,2,1,1,1,1): 20
s(2,1,1,1,1,1,1): 7
s(1,1,1,1,1,1,1,1): 1
""",
        "md": """\
| partition | coeff |
| --- | --- |
| 8 | 1 |
| 7,1 | 7 |
| 6,2 | 20 |
| 6,1,1 | 21 |
| 5,3 | 28 |
| 5,2,1 | 64 |
| 5,1,1,1 | 35 |
| 4,4 | 14 |
| 4,3,1 | 70 |
| 4,2,2 | 56 |
| 4,2,1,1 | 90 |
| 4,1,1,1,1 | 35 |
| 3,3,2 | 42 |
| 3,3,1,1 | 56 |
| 3,2,2,1 | 70 |
| 3,2,1,1,1 | 64 |
| 3,1,1,1,1,1 | 21 |
| 2,2,2,2 | 14 |
| 2,2,2,1,1 | 28 |
| 2,2,1,1,1,1 | 20 |
| 2,1,1,1,1,1,1 | 7 |
| 1,1,1,1,1,1,1,1 | 1 |
""",
        "json": (
            '[{"partition":"8","coeff":"1"},{"partition":"7,1","coeff":"7"},'
            '{"partition":"6,2","coeff":"20"},{"partition":"6,1,1","coeff":"21"},'
            '{"partition":"5,3","coeff":"28"},{"partition":"5,2,1","coeff":"64"},'
            '{"partition":"5,1,1,1","coeff":"35"},{"partition":"4,4","coeff":"14"},'
            '{"partition":"4,3,1","coeff":"70"},{"partition":"4,2,2","coeff":"56"},'
            '{"partition":"4,2,1,1","coeff":"90"},{"partition":"4,1,1,1,1","coeff":"35"},'
            '{"partition":"3,3,2","coeff":"42"},{"partition":"3,3,1,1","coeff":"56"},'
            '{"partition":"3,2,2,1","coeff":"70"},{"partition":"3,2,1,1,1","coeff":"64"},'
            '{"partition":"3,1,1,1,1,1","coeff":"21"},{"partition":"2,2,2,2","coeff":"14"},'
            '{"partition":"2,2,2,1,1","coeff":"28"},{"partition":"2,2,1,1,1,1","coeff":"20"},'
            '{"partition":"2,1,1,1,1,1,1","coeff":"7"},'
            '{"partition":"1,1,1,1,1,1,1,1","coeff":"1"}]\n'
        ),
    },
    ("3", "3,2,1"): {
        "text": """\
s(5,1): 1
s(4,2): 1
s(4,1,1): 1
s(3,2,1): 1
""",
        "md": """\
| partition | coeff |
| --- | --- |
| 5,1 | 1 |
| 4,2 | 1 |
| 4,1,1 | 1 |
| 3,2,1 | 1 |
""",
        "json": (
            '[{"partition":"5,1","coeff":"1"},{"partition":"4,2","coeff":"1"},'
            '{"partition":"4,1,1","coeff":"1"},{"partition":"3,2,1","coeff":"1"}]\n'
        ),
    },
    ("2", "2,2,1,1"): {
        "text": """\
s(5,1): 1
s(4,2): 1
s(4,1,1): 2
s(3,3): 1
s(3,2,1): 2
s(3,1,1,1): 1
s(2,2,1,1): 1
""",
        "md": """\
| partition | coeff |
| --- | --- |
| 5,1 | 1 |
| 4,2 | 1 |
| 4,1,1 | 2 |
| 3,3 | 1 |
| 3,2,1 | 2 |
| 3,1,1,1 | 1 |
| 2,2,1,1 | 1 |
""",
        "json": (
            '[{"partition":"5,1","coeff":"1"},{"partition":"4,2","coeff":"1"},'
            '{"partition":"4,1,1","coeff":"2"},{"partition":"3,3","coeff":"1"},'
            '{"partition":"3,2,1","coeff":"2"},{"partition":"3,1,1,1","coeff":"1"},'
            '{"partition":"2,2,1,1","coeff":"1"}]\n'
        ),
    },
}


@pytest.mark.parametrize("fmt", ["text", "md", "json"])
@pytest.mark.parametrize("k, lam", list(KSCHUR_PINS))
def test_kschur_output_bytes(capsys, k, lam, fmt):
    code, out, err = run(capsys, "kschur", "--k", k, lam, "--format", fmt)
    assert code == 0 and err == ""
    assert out == KSCHUR_PINS[k, lam][fmt]


# Output bytes of the series and scalar commands, pinned per format; a
# partition is a JSON string and a vacancy a JSON number.
OUTPUT_PINS = {
    ("hilb", "grass", "--ell", "3", "--k", "3", "--m", "2"): (
        "1,1,2,2,3,3,3,2,1,1\n", "`1,1,2,2,3,3,3,2,1,1`\n", '["1","1","2","2","3","3","3","2","1","1"]\n'
    ),
    ("formula", "rt", "--ell", "3", "--k", "3", "--m", "2"): (
        "1,1,2,2,3,3,3,2,1,1\n", "`1,1,2,2,3,3,3,2,1,1`\n", '["1","1","2","2","3","3","3","2","1","1"]\n'
    ),
    ("formula", "lg", "--n", "3", "--m", "3"): ("1,1,1,2,1,1,1\n", "`1,1,1,2,1,1,1`\n", '["1","1","1","2","1","1","1"]\n'),
    ("kconj", "--k", "4", "4,3,1,1"): ("2,1,1,1,1,1,1,1\n", "`2,1,1,1,1,1,1,1`\n", '"2,1,1,1,1,1,1,1"\n'),
    ("kconj", "--k", "3", ""): ("\n", "``\n", '""\n'),
    ("core", "--k", "4", "4,3,1,1"): ("8,4,1,1\n", "`8,4,1,1`\n", '"8,4,1,1"\n'),
    ("core", "--k", "4", "--to-bounded", "8,4,1,1"): ("4,3,1,1\n", "`4,3,1,1`\n", '"4,3,1,1"\n'),
    ("vacancy", "--ell", "6", "--k", "5", "4,4,3,3,1"): ("3\n", "`3`\n", "3\n"),
    ("vacancy", "--k", "3", ""): ("0\n", "`0`\n", "0\n"),
}


@pytest.mark.parametrize("fmt", ["text", "md", "json"])
@pytest.mark.parametrize("argv", list(OUTPUT_PINS), ids=" ".join)
def test_series_and_scalar_output_bytes(capsys, argv, fmt):
    expected = OUTPUT_PINS[argv][["text", "md", "json"].index(fmt)]
    assert run(capsys, *argv, "--format", fmt) == (0, expected, "")


# A failing candidate-basis case: its expected/actual series and its detail
# carry the raw per-degree rank numbers.
H_BASIS_2x5_JSON = (
    '{"cases":[{"name":"h-basis","params":{"ell":2,"k":5,"m":1},"status":"pass",'
    '"expected":["1","1","1","1","1","1","1","1","1","1","1"],'
    '"actual":["1","1","1","1","1","1","1","1","1","1","1"],"detail":""},'
    '{"name":"h-basis","params":{"ell":2,"k":5,"m":2},"status":"fail",'
    '"expected":["1","1","2","2","3","3","3","2","2","1","1"],'
    '"actual":["1","1","2","2","3","3","3","2","-1","1","1"],'
    '"detail":"degree 8: candidates=2 rank=1 dim=2 independent=False spans=False contained=True"}],'
    '"summary":{"pass":1,"fail":1,"error":0}}\n'
)


def test_failing_basis_case_json_bytes(capsys):
    assert run(capsys, "verify", "h-basis", "--ell", "2", "--k", "5", "--format", "json") == (1, H_BASIS_2x5_JSON, "")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["hilb", "grass", "--ell", "2", "--k", "2"], 0),
        (["verify", "h-basis", "--ell", "2", "--k", "5"], 1),
        (["kconj", "--k", "2", "3"], 2),
    ],
    ids=["ok", "failed-case", "bad-input"],
)
def test_entry_exits_with_the_main_code(monkeypatch, capsys, argv, code):
    # `entry` is the `qgrass` console script: it reads sys.argv and exits
    monkeypatch.setattr(sys, "argv", ["qgrass", *argv])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == code
    assert capsys.readouterr().err == ("error: Partition(3) is not 2-bounded\n" if code == 2 else "")


def test_readme_kschur_repr():
    assert repr(k_schur(Partition((2, 1)), 2)) == "SymVector(1*s(3) + 1*s(2,1))"


def test_empty_partition_argument(capsys):
    code, out, _ = run(capsys, "kconj", "--k", "3", "")
    assert code == 0
    assert out == "\n"
    # k = 0 is a valid level for the empty partition
    assert run(capsys, "kschur", "--k", "0", "") == (0, "s(-): 1\n", "")


def test_verify_rt_small(capsys):
    code, out, err = run(capsys, "verify", "rt", "--max", "2")
    assert code == 0 and err == ""
    assert out.strip().endswith("summary: pass=9 fail=0 error=0")


def test_verify_single_pair(capsys):
    code, out, _ = run(capsys, "verify", "summand", "--ell", "3", "--k", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [c["params"]["i"] for c in obj["cases"]] == [1, 2, 3]


def test_verify_identities_small(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--max", "3", "--format", "json")
    assert code == 0
    names = {c["name"] for c in json.loads(out)["cases"]}
    assert names == {"prop51", "vacant-roundtrip", "shifted-roundtrip", "vacancy-conjugation"}


def test_verify_lg_single_n_markdown(capsys):
    code, out, _ = run(capsys, "verify", "lg", "--n", "3", "--format", "md")
    assert code == 0
    assert out.startswith("| status |")


@pytest.mark.parametrize("family", ["prop51", "decomp-shifted"])
def test_verify_single_identity_family(capsys, family):
    code, out, _ = run(capsys, "verify", family, "--n", "3")
    assert code == 0
    assert out.endswith("summary: pass=1 fail=0 error=0\n")


@pytest.mark.parametrize(
    "argv, flag, over",
    [
        (["decomp-vacant", "--n", "3"], "--n", "(ell, k) boxes"),
        (["vacancy", "--n", "3", "--max", "2"], "--n", "(ell, k) boxes"),
        (["prop51", "--ell", "2", "--k", "2"], "--ell/--k", "staircase orders n"),
        (["lg", "--ell", "3", "--k", "3"], "--ell/--k", "staircase orders n"),
    ],
    ids=["decomp-vacant", "vacancy", "prop51", "lg"],
)
def test_verify_grid_flag_of_the_other_kind_exits_2(capsys, argv, flag, over):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} does not apply to {argv[0]!r}, which runs over {over} only\n"


def test_verify_grid_flag_of_the_matching_kind_runs_one_point(capsys):
    code, out, err = run(capsys, "verify", "decomp-vacant", "--ell", "3", "--k", "3")
    assert code == 0 and err == ""
    assert out.endswith("summary: pass=1 fail=0 error=0\n")
    # a group runs the point on its families of that kind and the default grid on the rest
    code, out, _ = run(capsys, "verify", "identities", "--n", "3", "--max", "2", "--format", "json")
    assert code == 0
    cases = json.loads(out)["cases"]
    names = {"prop51", "vacant-roundtrip", "shifted-roundtrip", "vacancy-conjugation"}
    assert {c["name"] for c in cases} == names
    assert {c["params"]["n"] for c in cases if "n" in c["params"]} == {3}


@pytest.mark.parametrize(
    "argv, fixed",
    [
        (["rt", "--ell", "3", "--k", "3"], "--ell/--k"),
        (["lg", "--n", "5"], "--n"),
        (["all", "--ell", "3", "--k", "3", "--n", "2"], "--ell/--k and --n"),
    ],
    ids=["rt", "lg", "all"],
)
def test_verify_max_that_clamps_no_family_exits_2(capsys, argv, fixed):
    # a point flag fixes the grid, so --max would be silently ignored
    code, out, err = run(capsys, "verify", *argv, "--max", "2")
    assert code == 2 and out == ""
    assert err == f"error: --max clamps no family of {argv[0]!r}: every grid it runs is set by {fixed}\n"


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": {"prop51": {"ns": [2, 3]}}}))
    code, out, _ = run(capsys, "verify", "all", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["cases"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"families": {"wat": {}}}))
    code, _, err = run(capsys, "verify", "all", "--config", str(bad))
    assert code == 2 and "wat" in err


def test_byte_identical_invocations(capsys):
    a = run(capsys, "verify", "summand", "--max", "2", "--format", "json")
    b = run(capsys, "verify", "summand", "--max", "2", "--format", "json")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]
    code, out, err = run(capsys, "verify", "summand", "--max", "2", "--jobs", "3")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --jobs 3" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "config",
    [
        {"jobs": 2, "families": {"prop51": {"ns": [2]}}},
        {"families": {"rt": {"max": True}}},
        {"families": {"rt": {"pairs": [[True, 2]]}}},
        {"families": {"lg": {"ns": [False]}}},
    ],
)
def test_verify_config_rejects_bad_values(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "config must be a JSON object, got list"),
        ("3", "config must be a JSON object, got int"),
        ('{"families": [1]}', "'families' must be an object"),
        ('{"keep_going": "yes", "families": {}}', "'keep_going' must be a boolean, got 'yes'"),
        ('{"families": {"rt": 3}}', "family 'rt' spec must be an object, got 3"),
        (
            '{"families": {"prop51": {"max": 2, "nss": [5]}}}',
            "family 'prop51' spec has unknown keys ['nss']; it takes only 'max' and 'ns'",
        ),
        (
            '{"families": {"rt": {"ns": [3]}}}',
            "family 'rt' spec has unknown keys ['ns']; it takes only 'max' and 'pairs'",
        ),
        (
            '{"families": {"lg": {"pairs": [[2, 2]], "ns": [2]}}}',
            "family 'lg' spec has unknown keys ['pairs']; it takes only 'max' and 'ns'",
        ),
        (
            '{"families": {"rt": {"pairs": [[2, 2]], "max": "x"}, "prop51": {"ns": [2], "max": -4}}}',
            "family 'rt' spec gives both 'max' and 'pairs'; give one",
        ),
        ('{"families": {"rt": {"pairs": []}}}', "family 'rt' spec names no grid point: 'pairs' is empty"),
        ('{"families": {"prop51": {"ns": []}}}', "family 'prop51' spec names no grid point: 'ns' is empty"),
    ],
    ids=[
        "list", "int", "families", "keep-going", "family-spec", "misspelt-ns", "ns-on-box", "pairs-on-lg",
        "max-and-pairs", "empty-pairs", "empty-ns",
    ],
)
def test_verify_config_errors_name_the_fault(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(capsys, "verify", "all", "--config", str(cfg)) == (2, "", f"error: {message}\n")


def test_verify_config_that_is_not_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{bad")
    code, out, err = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == (
        f"error: --config {cfg} is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["all", "--max", "3"], "--max cannot be combined with --config, whose file sets every grid"),
        (["all", "--ell", "2", "--k", "2"], "--ell cannot be combined with --config, whose file sets every grid"),
        (["all", "--k", "2"], "--k cannot be combined with --config, whose file sets every grid"),
        (["all", "--n", "3"], "--n cannot be combined with --config, whose file sets every grid"),
        (["prop51"], "--config runs the families its file names; give the target 'all', not 'prop51'"),
        (["identities"], "--config runs the families its file names; give the target 'all', not 'identities'"),
    ],
    ids=["max", "ell", "k", "n", "family", "group"],
)
def test_verify_config_refuses_the_grid_flags_and_targets(tmp_path, capsys, argv, message):
    # the file sets every family and grid, so a flag or target that would
    # narrow them is refused rather than silently ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": {"prop51": {"ns": [2]}}}))
    assert run(capsys, "verify", *argv, "--config", str(cfg)) == (2, "", f"error: {message}\n")


def test_verify_lg_rejects_n_below_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": {"lg": {"ns": [0]}}}))
    for argv in (["verify", "lg", "--n", "0"], ["verify", "all", "--config", str(cfg)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: family 'lg' needs n >= 1, got n=0\n"
    code, out, err = run(capsys, "verify", "lg", "--max", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    cfg.write_text(json.dumps({"families": {"prop51": {"ns": [0]}, "decomp-shifted": {"ns": [0]}}}))
    code, out, _ = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 0 and "summary: pass=2 fail=0 error=0" in out


def test_formula_without_recursion_limit(capsys):
    code, out, err = run(capsys, "formula", "rt", "--ell", "1", "--k", "1500", "--m", "1")
    assert code == 0 and err == ""
    assert out.strip().split(",") == ["1"] * 1501


def test_hilb_tall_box_without_recursion_limit(capsys):
    code, out, err = run(capsys, "hilb", "grass", "--ell", "1500", "--k", "1")
    assert code == 0 and err == ""
    assert out.strip().split(",") == ["1"] * 1501


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "kconj", "--k", "4", "1,2")[0] == 2
    assert run(capsys, "kconj", "--k", "2", "3,1")[0] == 2
    assert run(capsys, "hilb", "grass", "--ell", "3")[0] == 2
    # generators beyond min(ell, k) are redundant but legal for the computed series
    for m in ("9", "5000"):
        code, out, _ = run(capsys, "hilb", "grass", "--ell", "3", "--k", "3", "--m", m)
        assert code == 0 and out.strip() == "1,1,2,3,3,3,3,2,1,1"
    # and so are generators beyond n
    whole = run(capsys, "hilb", "lg", "--n", "3", "--m", "3")
    assert whole[0] == 0
    for m in ("9", "5000"):
        assert run(capsys, "hilb", "lg", "--n", "3", "--m", m) == whole, m
    code, _, err = run(capsys, "formula", "rt", "--ell", "3", "--k", "3", "--m", "9")
    assert code == 2 and "error:" in err
    # a size flag of the other space is refused, not ignored
    for argv, flag in (
        (("hilb", "lg", "--n", "2", "--ell", "3"), "--ell"),
        (("hilb", "lg", "--n", "2", "--k", "3"), "--k"),
        (("hilb", "grass", "--ell", "2", "--k", "2", "--n", "3"), "--n"),
        (("formula", "rt", "--ell", "2", "--k", "2", "--n", "3"), "--n"),
        (("formula", "lg", "--n", "3", "--ell", "2"), "--ell"),
        (("formula", "lg", "--n", "3", "--k", "2"), "--k"),
    ):
        code, out, err = run(capsys, *argv)
        name = f"{argv[0]} {argv[1]}"
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {flag} does not apply to {name!r}") and err.count("\n") == 1, argv


def test_verify_ell_without_k_exits_2(capsys):
    for argv in (["rt", "--ell", "3"], ["summand", "--k", "3"]):
        assert run(capsys, "verify", *argv) == (2, "", "error: --ell and --k must be given together\n")


def test_kconj_and_vacancy_json(capsys):
    assert run(capsys, "kconj", "--k", "4", "4,3,1,1", "--format", "json") == (0, '"2,1,1,1,1,1,1,1"\n', "")
    assert run(capsys, "kconj", "--k", "3", "", "--format", "json") == (0, '""\n', "")
    assert run(capsys, "vacancy", "--ell", "6", "--k", "5", "4,4,3,3,1", "--format", "json") == (0, "3\n", "")
    assert run(capsys, "vacancy", "--k", "5", "", "--format", "json") == (0, "0\n", "")


def test_data_and_diagnostics_are_separated(capsys):
    code, out, err = run(capsys, "kconj", "--k", "2", "3,1")
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hilb", "grass", "--ell", "-1", "--k", "2"], "need ell, k >= 0, got ell=-1, k=2"),
        (["formula", "rt", "--ell", "2", "--k", "-3"], "need ell, k >= 0, got ell=2, k=-3"),
        (["hilb", "lg", "--n", "0"], "need n >= 1, got n=0"),
        (["formula", "lg", "--n", "0"], "need n >= 1, got n=0"),
        (["hilb", "lg", "--n", "-2", "--m", "1"], "need n >= 1, got n=-2"),
        (["verify", "summand", "--ell", "0", "--k", "2"], "--ell must be at least 1, got 0"),
        (["verify", "rt", "--ell", "0", "--k", "0"], "--ell must be at least 1, got 0"),
        (["verify", "rt", "--ell", "2", "--k", "-3"], "--k must be at least 1, got -3"),
        (["verify", "lg", "--n", "-1"], "--n must be at least 0, got -1"),
        (["kschur", "--k", "-1", ""], "k must be a nonnegative integer, got -1"),
        (["kschur", "--k", "3", "4"], "Partition(4) is not 3-bounded"),
        (["verify", "lg", "--n", "1", "--max", "-5"], "--max must be at least 1, got -5"),
        (["vacancy", "--k", "3", "--ell", "-1", "1"], "--ell must be at least 0, got -1"),
    ],
    ids=["hilb-grass", "formula-rt", "hilb-lg", "formula-lg", "hilb-lg-given-m", "verify-summand", "verify-rt",
         "verify-rt-k", "verify-lg", "kschur-negative-k", "kschur-one-part", "verify-max", "vacancy-ell"],
)
def test_size_errors_name_only_given_values(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_keep_going_flag_sets_the_config_key(tmp_path, capsys, monkeypatch):
    # a failing theorem case aborts the sweep unless --keep-going (or the
    # config key) says otherwise, with or without --config
    monkeypatch.setattr(harness, "check_prop51", lambda n: harness._case(
        "prop51", {"n": n}, harness.THEOREM, harness.QPoly.one(), harness.QPoly.zero()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": {"prop51": {"ns": [1, 2, 3]}}}))
    for argv in (["prop51", "--max", "3"], ["all", "--config", str(cfg)]):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 1 and out.endswith("summary: pass=0 fail=1 error=0\n")
        assert "sweep aborted on theorem failure" in out
        code, out, _ = run(capsys, "verify", *argv, "--keep-going")
        assert code == 1 and out.endswith("summary: pass=0 fail=3 error=0\n")
    cfg.write_text(json.dumps({"keep_going": True, "families": {"prop51": {"ns": [1, 2]}}}))
    code, out, _ = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 1 and out.endswith("summary: pass=0 fail=2 error=0\n")


def _loaded_by_cli_import(names, argv=None):
    """Which of `names` a fresh interpreter has loaded after importing the CLI
    and building its parser, or, given `argv`, after a successful
    `main(argv)`.  The answer goes to stderr, past the command's output."""
    src = os.path.dirname(os.path.dirname(qgrass.__file__))
    run = "qgrass.cli.build_parser()" if argv is None else f"assert qgrass.cli.main({list(argv)!r}) == 0"
    probe = (
        f"import sys, qgrass.cli; {run}; "
        f"print(sorted(m for m in {tuple(names)!r} if m in sys.modules), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stderr


def test_cli_import_leaves_out_fractions_and_dataclasses():
    assert _loaded_by_cli_import(("fractions", "decimal", "dataclasses", "inspect")) == "[]\n"


def test_cli_import_leaves_out_pickle_and_process_pools():
    # only a sweep that forks workers loads qgrass.forked and pickle; none uses a pool
    names = ("pickle", "multiprocessing", "concurrent.futures", "qgrass.forked")
    assert _loaded_by_cli_import(names) == "[]\n"


ENGINE = tuple(
    f"qgrass.{name}"
    for name in ("partitions", "qseries", "schur", "kschur", "echelon", "grassmann", "lagrangian", "harness", "forked")
)


def test_cli_import_loads_no_ring_and_no_json():
    # the parser and the verify config come from qgrass.config alone
    assert _loaded_by_cli_import((*ENGINE, "json", "qgrass.config")) == "['qgrass.config']\n"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["hilb", "grass", "--ell", "3", "--k", "3", "--m", "2"], ["qgrass.grassmann"]),
        (["hilb", "lg", "--n", "4", "--m", "3"], ["qgrass.lagrangian"]),
        (["formula", "rt", "--ell", "3", "--k", "3", "--m", "2"], []),
        (["kconj", "--k", "4", "4,3,1,1", "--format", "json"], ["json"]),
    ],
    ids=["hilb-grass", "hilb-lg", "formula", "kconj-json"],
)
def test_each_command_loads_only_the_ring_it_runs(argv, loaded):
    names = ("qgrass.grassmann", "qgrass.lagrangian", "qgrass.harness", "json")
    assert _loaded_by_cli_import(names, argv) == f"{loaded}\n"


def test_kschur_loads_no_echelon():
    # `schur` imports `echelon` only when it builds a ring, which kschur never does
    names = ("qgrass.schur", "qgrass.echelon", "qgrass.grassmann", "qgrass.lagrangian")
    assert _loaded_by_cli_import(names, ["kschur", "--k", "3", "2,2,1"]) == "['qgrass.schur']\n"


# What `from qgrass import *` binds: every export and the engine submodules.
STAR_NAMES = [
    "BasisReport", "DegreeSlice", "Partition", "QPoly", "Report", "SymVector", "bounded_from_core",
    "candidate_partitions", "core_from_bounded", "echelon", "gen_sum", "grass_hilbert_series",
    "grass_subalgebra_formula", "grassmann", "h_basis_report", "h_to_schur", "harness",
    "k_bounded_partitions", "k_conjugate", "k_schur", "kschur", "kschur_basis_report", "lagrangian",
    "lg_hilbert_series", "lg_subalgebra_formula", "lg_subalgebra_hilbert", "lg_top_power", "multiply",
    "normal_form", "partitions", "partitions_in_box", "partitions_in_box_of_size", "pieri_h", "project",
    "q_binomial", "q_binomial_double_prime", "q_binomial_prime", "qseries", "schur", "shifted_compose",
    "shifted_decompose", "strict_partitions_in_triangle", "strict_partitions_of_size", "subalgebra_hilbert",
    "subalgebra_slices", "sweep", "vacancy", "vacant_compose", "vacant_decompose", "vacant_partitions",
]


def test_star_import_binds_every_export_and_submodule():
    namespace = {}
    exec("from qgrass import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == STAR_NAMES and len(STAR_NAMES) == 50
    assert namespace["k_schur"] is k_schur and namespace["harness"] is harness
    assert namespace["Partition"] is Partition


def test_package_attributes_resolve_lazily_and_unknown_ones_raise():
    src = os.path.dirname(os.path.dirname(qgrass.__file__))
    probe = (
        "import sys, qgrass\n"
        "assert not [m for m in sys.modules if m.startswith('qgrass.')]\n"
        "try:\n"
        "    qgrass.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'qgrass' has no attribute 'no_such_name'\", exc\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(qgrass, 'forked')\n"
        "from qgrass import forked, harness\n"
        "assert forked is sys.modules['qgrass.forked'] and harness is sys.modules['qgrass.harness']\n"
        "assert qgrass.sweep is harness.sweep\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
