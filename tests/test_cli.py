import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qbarnes import PadicContext, to_padic
from qbarnes import cli
from qbarnes.cli import OPS, build_parser, main


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


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    # every `qbarnes` process pays for what `import qbarnes.cli` loads; csv is
    # imported by CSV output alone, and the value types need no dataclasses
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, qbarnes.cli; "
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


def test_json_output_is_deterministic(capsys):
    argv = (
        "compute", "gf-coeffs", "--n", "6", "--a", "1,-2", "--u", "7/2", "--q", "5/3", "--x", "1",
    )
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    coeffs = json.loads(first)["coefficients"]
    assert len(coeffs) == 7 and coeffs[0] == "1"


# sha256 of "<exit code>\n<stdout>" for one request per compute op, plus one
# error per exit code 2, 3 and 4: every byte a compute request prints is pinned
COMPUTE_SHA256 = {
    ("compute", "hbarnes", "--n", "3", "--w", "1", "--a", "1,-2", "--u", "7/2", "--q", "5/3"):
        "ef9b94b8481b3912c5c13e215d00cb5bbafe1f45fcb9b5e4f80ebb72899a43d5",
    ("--format", "csv", "compute", "hbarnes-poly", "--n", "2", "--w", "1", "--a", "1,2", "--u", "3"):
        "a6348ffb32623d0d005f085eaa059f853c1a8778497ebeb457bf4ad55145786c",
    ("compute", "gf-coeffs", "--n", "4", "--a", "1,-2", "--u", "7/2", "--q", "5/3", "--x", "1"):
        "ccf065227e1a20b2059c25719b30223ecf7fa118f8e2eadbf4602820a51198c4",
    ("compute", "classical", "--n", "4", "--w", "1", "--a", "1,2", "--u", "3/2"):
        "295b0d2cf5d825fe58806499d649db9185e740d8f53280070d4f7bb2a10b14ab",
    ("compute", "carlitz", "--k", "3", "--u", "3", "--q", "2"):
        "f69c28d2758a88c8e1d632d5dc13e92b129da5661b3ada37ae562f58ead335ff",
    ("compute", "hchi", "--k", "2", "--a", "1", "--u", "5", "--q", "6", "--char", "teichmuller",
     "--p", "5", "--precision", "6"):
        "0d6471d7e14985d219253b849de252a82dc51ac3aa5e605ce1b4fefec3931377",
    ("compute", "lvalue", "--k", "1", "--a", "1", "--u", "5", "--q", "6", "--char", "trivial:1",
     "--p", "5", "--level-N", "2"):
        "84769c93c8dbf210adc8d3137162a1fd6f5ccf8647e1ce62c4bf3f2c2c80c87b",
    ("compute", "measure", "--k", "2", "--x", "4", "--f", "2", "--level-N", "1", "--u", "3",
     "--q", "4", "--a", "1", "--p", "3"):
        "502429d42e981d58f24102b83b6afbd5649222eb78bc6ccec152958f4e57b48b",
    ("compute", "mu", "--x", "5", "--f", "2", "--d", "2", "--level-N", "1", "--u", "9/2", "--p", "3"):
        "4bcc6c57d4d3c2444d34a613f8c65d3cfbc8e2a457938dc1a4b405e1a2070578",
    ("compute", "hbarnes", "--n", "1", "--w", "0", "--a", "1", "--u", "3", "--q", "1"):
        "841c538b1a50a63651e893bf2cd5a69e86948aedde86b693630a2395d1d71249",
    ("compute", "hbarnes", "--n", "1", "--w", "0", "--a", "1", "--u", "1/2", "--q", "2"):
        "99afbc518a4b9459557932da762def189c2a0d9491e5d4db080e655cc2873844",
    ("compute", "lvalue", "--k", "1", "--a", "1", "--u", "5", "--q", "6", "--char", "trivial:1",
     "--p", "5", "--precision", "6", "--level-N", "3", "--budget", "10"):
        "506924a8f39f708b0098a544c48cc5af0f5fbd6fdf8e85ef6e7503b37a42e64d",
    # u = -1: the reduction divides out a gcd of degree 22
    ("compute", "hbarnes-poly", "--n", "6", "--w", "0", "--a", "1,-2", "--u", "-1"):
        "d403065b69e76da6befe6d07538cb8d2f59fbed940f42e82fd0f49e4e2b071bc",
    # larger requests of the two routes that run over Z, taken from the
    # Fraction loops they replaced
    ("compute", "carlitz", "--k", "60", "--u=-5/2", "--q", "2/3"):
        "c348b9d5af0ee1f58dd3934cec7a3668eb20229272148e53f59dfef366959086",
    ("compute", "gf-coeffs", "--n", "40", "--a", "1,-2", "--u", "5/2", "--q=-3/2", "--x", "2"):
        "8149a54b28443b3fccc30880ccdc4050f75ad21c8dbdc615042a764f7c6e278c",
    ("compute", "classical", "--n", "40", "--w", "3", "--a", "2,-3", "--u=-5/4"):
        "19fe97e30abdb9b82c430a03d92f500df07feadc06bff8422beb5d4588853ca2",
    # the large hbarnes-poly shapes, whose reduction is certified coprime
    # one binomial factor at a time
    ("compute", "hbarnes-poly", "--n", "10", "--w", "2", "--a", "1,2", "--u", "5/2"):
        "5448c36f1863cc1d168de13414fd2aefc9c0d419fcf07d3cfe801fd81b42b64e",
    ("compute", "hbarnes-poly", "--n", "9", "--w", "0", "--a=-1,-2", "--u=-2/5"):
        "8570a9b1db9625334f7eadc564410720011662005c9edab6e13a9fd99c06420f",
    # mixed-sign a: factors with m > 0 and m < 0 meet in one merge of the
    # numerator's product tree
    ("compute", "hbarnes-poly", "--n", "8", "--w", "1", "--a=1,-2", "--u=-5/2"):
        "e735d16f3e0cd20130f789f0a4e9546cce0c1226675f30e34270ce68019f02ea",
    # rational-mode twist with r = 2: four weighted terms in one route-1
    # batch, taken from the per-term sum it replaced
    ("compute", "hchi", "--k", "6", "--a=1,-2", "--u", "5/2", "--q=-3/2", "--char", "quadratic:4"):
        "8ca00e3c1129006fd545875d5ee3eebb567a12547d00b1b0dd12bafb14ab9755",
    # chi(5) = -1: L(-3) takes its Euler term, the order-15 refinement at
    # the indices 5 i, with a sign; taken before that term was one batch
    ("compute", "lvalue", "--k", "3", "--a", "1", "--u", "5", "--q", "6", "--char", "quadratic:3",
     "--p", "5"):
        "f4f2ff9c7be5681790564a332fc7baece7bd4b5040af3bd9c49ceb64d37c256d",
    # a teichmuller-mode character twisted by omega^2, its level sum run
    # through angle_bracket; taken before character tables became ints
    ("compute", "lvalue", "--k", "2", "--a", "1", "--u", "5", "--q", "6", "--char", "teichmuller",
     "--p", "5", "--level-N", "2"):
        "55d6609c35ade03cdd49fb1fac683ca9e046b2349c52500f232fc482f51be5b6",
    # a JSON character of rational strings, stored as an int table; taken
    # before that change too
    ("compute", "hchi", "--k", "3", "--a", "1,2", "--u", "5/2", "--q", "3", "--char",
     '{"modulus": 5, "values": ["0", "1", "-1", "-1", "1"]}'):
        "03067446f76f66672cb75252003c7726c909dc85568cc042dbe77e1b28f99971",
    # route 1 at sizes that reduce merge by merge, both taken before the tree
    # reduced as it merged: compute-mix's largest hbarnes row (3,746 digits,
    # a 12k-bit denominator, every merge below the size constant), and a
    # rational-mode hchi batch whose two top merges pass it
    ("compute", "hbarnes", "--n", "125", "--w", "2", "--a=-1", "--u", "5/2", "--q", "3/2"):
        "e8111542baeca55f5b24521a4f888caa85039b9defb4c870e97ae2fb2ae7d1ed",
    ("compute", "hchi", "--k", "64", "--a", "2", "--u", "5/2", "--q=-3/2", "--char", "quadratic:4"):
        "82a31bcc68734f1a7d7267de6aa5e57083ca285c94e238675a1c5a9cbd6a5cbd",
}


def test_compute_output_is_pinned(capsys):
    for argv, digest in COMPUTE_SHA256.items():
        code, out = run_cli(capsys, *argv)
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, argv


def test_negative_non_integer_values_need_the_equals_form(capsys):
    # argparse takes "-2/5" and "-1,-2" for flags, but "--u=-2/5" and
    # "--a=-1,-2" for values (a plain negative integer, "--u -2", is fine)
    poly = ("compute", "hbarnes-poly", "--n", "2", "--w", "0")
    code, out = run_cli(capsys, *poly, "--a=-1,-2", "--u=-2/5")
    assert code == 0
    assert (json.loads(out)["a"], json.loads(out)["u"]) == ([-1, -2], "-2/5")
    for flag, argv in (("--a", ("--a", "-1,-2", "--u=-2/5")), ("--u", ("--a=-1,-2", "--u", "-2/5"))):
        with pytest.raises(SystemExit) as exit_info:
            main([*poly, *argv])
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out) == (2, "")
        assert f"argument {flag}: expected one argument" in captured.err


def test_hchi_partial_sum_cancelling_keeps_precision(capsys):
    # the terms are +-u^|i|, and u^2 - u^3 - u^3 = 0 at u = 1/2 before u^4
    # makes the total nonzero; omega is the quadratic character mod 3
    argv = ("compute", "hchi", "--k", "0", "--a", "2,2", "--u", "1/2", "--q", "2", "--char")
    code, out = run_cli(capsys, *argv, "teichmuller", "--p", "3")
    assert code == 0
    assert json.loads(out)["value"] == to_padic(Fraction(1, 49), PadicContext(3, 8)).to_json_dict()
    code, out = run_cli(capsys, *argv, "quadratic:3")
    assert (code, json.loads(out)["value"]) == (0, "1/49")


def test_hchi_total_cancellation_reports_the_modulus_of_h_chi(capsys):
    # every tracked digit of the teichmuller-mode sum cancels; the modulus
    # is that of H_{k,chi} itself, whose terms carry the refinement's
    # prefactor ((1-u)/(1-u^3))^2 [3:q]^5 of valuation -2 (it read p^2
    # while the prefactor was lifted and multiplied in after the sum)
    argv = ("compute", "hchi", "--k", "5", "--a=-1,-1", "--u=-1/2", "--q", "3/4", "--char")
    code, out = run_cli(capsys, *argv, "teichmuller", "--p", "3", "--precision", "2")
    assert (code, json.loads(out)) == (5, {
        "error": "PrecisionExhaustedError",
        "message": "precision exhausted: result is indistinguishable from zero modulo p^0",
    })


HBARNES = ("compute", "hbarnes", "--n", "1", "--w", "0")
LVALUE_T1 = ("compute", "lvalue", "--k", "1", "--a", "1", "--u", "5", "--q", "6", "--char", "trivial:1", "--p", "5")
HCHI = ("compute", "hchi", "--k", "2", "--a", "1", "--u", "3", "--q", "4")
MU = ("compute", "mu", "--x", "1", "--u", "3", "--p", "3")
MEASURE = ("compute", "measure", "--k", "1", "--x", "1", "--u", "3", "--q", "4", "--p", "3")

# (argv, the flag the JSON error names as its parameter); values that fail
# to parse exit 2 with a JSON error, never a traceback
PRECONDITION_CASES = [
    ((*HBARNES, "--a", "1", "--u", "3", "--q", "1"), "q"),
    ((*HBARNES, "--a", "1", "--u", "abc", "--q", "2"), "u"),
    ((*HBARNES, "--a", "1", "--u", "3/0", "--q", "2"), "u"),
    ((*HBARNES, "--a", "1,x", "--u", "3", "--q", "2"), "a"),
    # q = 0 to a negative power, through a_j < 0 and through w < 0
    ((*HBARNES, "--a", "-1", "--u", "3", "--q", "0"), "q"),
    (("compute", "hbarnes", "--n", "1", "--w", "-1", "--a", "1", "--u", "3", "--q", "0"), "q"),
    ((*LVALUE_T1, "--precision", "0"), "precision"),
    ((*LVALUE_T1, "--level-N", "-1"), "level-N"),
    ((*HCHI, "--char", "quadratic"), "char"),
    ((*HCHI, "--k", "-1", "--char", "trivial:1"), "k"),
    ((*MU, "--level-N", "-1"), "level-N"),
    ((*MU, "--f", "0"), "f"),
    ((*MU, "--d", "0"), "d"),
    ((*MEASURE, "--level-N", "-1"), "level-N"),
    ((*MEASURE, "--f", "0"), "f"),
    # lvalue and measure take a single a1; more entries are not dropped
    ((*LVALUE_T1, "--a", "1,2"), "a"),
    ((*MEASURE, "--level-N", "1", "--a", "1,2"), "a"),
    (("compute", "gf-coeffs", "--n", "-1", "--a", "1", "--u", "3", "--q", "2"), "n"),
    (("compute", "classical", "--n", "-1", "--w", "0", "--a", "1", "--u", "3"), "n"),
    (("compute", "classical", "--n", "3", "--w", "0", "--a", "0", "--u", "2"), "a"),
    # missing required flags name the first one in the op's required order
    (("compute", "hbarnes", "--n", "1"), "w"),
    (("compute", "hchi", "--k", "2", "--a", "1", "--u", "3", "--q", "4"), "char"),
    (LVALUE_T1[:-2], "p"),
    (("compute", "mu", "--u", "3", "--p", "3"), "x"),
    # a budget below 1 point, on every command that takes --budget, before
    # any work: with or without a level sum to spend it on
    ((*LVALUE_T1, "--budget", "-1"), "budget"),
    ((*LVALUE_T1, "--level-N", "1", "--budget", "0"), "budget"),
    (("verify", "carlitz-bridge", "--budget", "-1"), "budget"),
    (("verify", "prop5", "--budget", "-1"), "budget"),
    (("verify", "all", "--budget", "0"), "budget"),
]


def test_precondition_exit_code(capsys):
    for argv, parameter in PRECONDITION_CASES:
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        payload = json.loads(out)
        assert payload["error"] == "PreconditionError"
        assert payload.get("parameter") == parameter


def test_p_2_is_rejected_alike_on_every_op(capsys):
    for argv in (
        (*MU, "--p", "2"),
        (*MEASURE, "--p", "2"),
        (*HCHI, "--char", "teichmuller", "--p", "2"),
        (*LVALUE_T1, "--p", "2"),
    ):
        code, out = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (2, {
            "error": "PreconditionError",
            "message": "p = 2 is out of scope, p must be odd",
            "parameter": "p",
        }), argv


def test_teichmuller_character_needs_only_p(capsys):
    code, out = run_cli(capsys, *HCHI, "--char", "teichmuller")
    assert (code, json.loads(out)) == (2, {
        "error": "PreconditionError",
        "message": "teichmuller character needs --p",
        "parameter": "char",
    })
    # --precision defaults to 8
    code, out = run_cli(capsys, *HCHI, "--char", "teichmuller", "--p", "3")
    assert code == 0
    assert json.loads(out)["value"]["M"] == 8


def test_missing_flags_message_lists_every_flag(capsys):
    code, out = run_cli(capsys, "compute", "hbarnes", "--n", "1")
    assert code == 2
    assert json.loads(out) == {
        "error": "PreconditionError",
        "message": "missing required flags: --w, --a, --u, --q",
        "parameter": "w",
    }


def test_degenerate_refined_base_names_the_power(capsys):
    # q = -1 is allowed, but the refined bases q^4 of a modulus-4 character
    # and q^2 of a cell of modulus 2 are 1
    for argv, message in (
        (("compute", "hchi", "--k", "1", "--a", "1", "--u", "3", "--q", "-1", "--char", "quadratic:4"),
         "q^4 = 1 makes the refined base degenerate"),
        (("compute", "measure", "--k", "1", "--x", "0", "--u", "3", "--q", "-1", "--p", "3", "--f", "2"),
         "q^2 = 1 makes the refined base degenerate"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        payload = json.loads(out)
        assert payload["error"] == "PreconditionError"
        assert payload["message"] == message
        assert payload["parameter"] == "q"


def test_refined_pole_names_the_power(capsys):
    # u = -1 is allowed, but u^4 = 1 is a pole of the modulus-4 refinement
    code, out = run_cli(
        capsys, "compute", "hchi", "--k", "1", "--a", "1", "--u", "-1", "--q", "2",
        "--char", "quadratic:4",
    )
    assert code == 3
    assert json.loads(out) == {
        "error": "PoleError",
        "message": "u^4 = 1 makes the refined prefactor singular",
        "parameter": "u",
    }


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
    # values may be JSON strings or JSON integers
    for values in (["0", "1", "0", "-1"], [0, 1, 0, -1]):
        spec = json.dumps({"modulus": 4, "values": values})
        code, out = run_cli(
            capsys, "compute", "hchi", "--k", "2", "--a", "1", "--u", "3", "--q", "4", "--char", spec
        )
        assert code == 0, values
        assert json.loads(out)["value"] == "-2307/66845"


def test_bad_character_spec(capsys):
    for spec in (
        "cubic:9",
        "quadratic:x",
        "trivial:x",
        '{"modulus": 4, "values": [null, 1, 0, -1]}',
        '{"modulus": 4, "values": [0, 1.5, 0, -1]}',
        '{"modulus": 4.7, "values": [0, 1, 0, -1]}',
        '{"modulus": true, "values": [1]}',
        '{"modulus": "4", "values": [0, 1, 0, -1]}',
        '{"modulus": 4, "values": "0101"}',
    ):
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


def run_or_usage_error(capsys, argv):
    """(exit code, stdout) of main(argv), argparse's usage exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_main_builds_its_parser_once(capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for argv, code in (
        (("compute", "carlitz", "--k", "3", "--u", "3", "--q", "2"), 0),
        (("--format", "csv", "compute", "carlitz", "--k", "1", "--u", "3", "--q", "2"), 0),
        (("verify", "prop5"), 0),
        ((*HBARNES, "--a", "1", "--u", "3", "--q", "1"), 2),
        (("verify", "nonsense"), 2),
        (("compute", "hbarnes", "--n", "1"), 2),
    ):
        assert run_or_usage_error(capsys, argv)[0] == code, argv
    assert len(builds) == 1
    # perfbench's tracer wraps parse_args on every parser build_parser returns
    assert build_parser() is not build_parser()


def test_held_parser_matches_a_fresh_parser_per_request(capsys, monkeypatch):
    requests = [*COMPUTE_SHA256, *(argv for argv, _ in PRECONDITION_CASES)]
    reference = {}
    for argv in requests:
        # the reference: a new parser for each request
        monkeypatch.setattr(cli, "_parser", build_parser())
        reference[argv] = run_or_usage_error(capsys, argv)

    monkeypatch.setattr(cli, "_parser", None)
    order = requests * 2
    random.Random(14).shuffle(order)
    for argv in order:
        assert run_or_usage_error(capsys, argv) == reference[argv], argv
        assert run_or_usage_error(capsys, ("verify", "nonsense")) == (2, "")


def test_readme_table_lists_each_compute_op_and_its_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Compute operations:\n\n")[1].split("\n\n")[0]
    rows = [
        [cell.strip().strip("`").replace("--", "") for cell in line.split("|")[1:4]]
        for line in table.splitlines()[2:]
    ]
    assert [op for op, _, _ in rows] == list(OPS)
    for op, required, optional in rows:
        assert required.split() == OPS[op].required.split(), op
        assert optional.split() == OPS[op].optional.split(), op
