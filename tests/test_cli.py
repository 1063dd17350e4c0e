import json

import pytest

from qbarnes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hbarnes_golden(capsys):
    code, out = run_cli(
        capsys, "compute", "hbarnes", "--n", "1", "--w", "0", "--a", "1", "--u", "3", "--q", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "-3/5"


def test_mu_golden(capsys):
    code, out = run_cli(
        capsys, "compute", "mu", "--x", "1", "--f", "1", "--level-N", "1", "--u", "3", "--p", "3"
    )
    assert code == 0
    assert json.loads(out)["value"] == "3/13"


def test_carlitz_csv(capsys):
    code, out = run_cli(
        capsys, "--format", "csv", "compute", "carlitz", "--k", "1", "--u", "3", "--q", "2"
    )
    assert code == 0
    assert "value,1" in out.splitlines()


def test_json_output_is_deterministic(capsys):
    argv = (
        "compute", "gf-coeffs", "--n", "6", "--a", "1,-2", "--u", "7/2", "--q", "5/3", "--x", "1",
    )
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    coeffs = json.loads(first)["coefficients"]
    assert len(coeffs) == 7 and coeffs[0] == "1"


HBARNES = ("compute", "hbarnes", "--n", "1", "--w", "0")
LVALUE_T1 = ("compute", "lvalue", "--k", "1", "--a", "1", "--u", "5", "--q", "6", "--char", "trivial:1", "--p", "5")

# (argv, the parameter the JSON error names); values that fail to parse
# exit 2 with a JSON error, never a traceback
PRECONDITION_CASES = [
    ((*HBARNES, "--a", "1", "--u", "3", "--q", "1"), "q"),
    ((*HBARNES, "--a", "1", "--u", "abc", "--q", "2"), None),
    ((*HBARNES, "--a", "1", "--u", "3/0", "--q", "2"), None),
    ((*HBARNES, "--a", "1,x", "--u", "3", "--q", "2"), "a"),
    ((*LVALUE_T1, "--precision", "0"), "precision"),
]


def test_precondition_exit_code(capsys):
    for argv, parameter in PRECONDITION_CASES:
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        payload = json.loads(out)
        assert payload["error"] == "PreconditionError"
        assert payload.get("parameter") == parameter


def test_pole_exit_code(capsys):
    code, out = run_cli(
        capsys, "compute", "hbarnes", "--n", "1", "--w", "0", "--a", "1", "--u", "1/2", "--q", "2"
    )
    assert code == 3
    assert json.loads(out)["error"] == "PoleError"


def test_budget_exit_code(capsys):
    for argv in (
        (*LVALUE_T1, "--precision", "6", "--level-N", "3", "--budget", "10"),
        ("verify", "eq8-bridge", "--budget", "10"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 4, argv
        assert json.loads(out)["error"] == "BudgetError"


def test_lvalue_reports_padic_value(capsys):
    code, out = run_cli(
        capsys,
        "compute", "lvalue", "--k", "1", "--a", "1", "--u", "5", "--q", "6",
        "--char", "trivial:1", "--p", "5", "--precision", "8", "--level-N", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["p"] == 5 and payload["value"]["M"] == 8
    assert payload["agreement_valuation"] >= 2


def test_character_json_spec(capsys):
    spec = json.dumps({"modulus": 4, "values": ["0", "1", "0", "-1"]})
    code, out = run_cli(
        capsys, "compute", "hchi", "--k", "2", "--a", "1", "--u", "3", "--q", "4", "--char", spec
    )
    assert code == 0
    assert json.loads(out)["value"] == "-2307/66845"


def test_bad_character_spec(capsys):
    for spec in ("cubic:9", "quadratic:x", "trivial:x"):
        code, out = run_cli(
            capsys, "compute", "hchi", "--k", "2", "--a", "1", "--u", "3", "--q", "4", "--char", spec
        )
        assert code == 2, spec
        assert json.loads(out)["parameter"] == "char"


def test_verify_suite_end_to_end(capsys):
    code, out = run_cli(capsys, "verify", "carlitz-bridge")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "carlitz-bridge"
    assert report["pass"] is True
    assert all("residual" in c for c in report["checks"])


def test_verify_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "verify", "prop5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,name,pass,residual,error_valuation"
    assert lines[-1].startswith("prop5,ALL,True")


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
