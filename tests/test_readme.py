import json
import shlex
from pathlib import Path

from qbarnes.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced_block_after(heading: str) -> str:
    return README.split(heading)[1].split("```")[1]


def test_library_use_block_runs():
    code = _fenced_block_after("## Library use").removeprefix("python\n")
    exec(compile(code, "README.md", "exec"), {})


def test_cli_compute_examples_print_the_values_shown(capsys):
    # "$ qbarnes compute ..." lines, with their "\" continuations joined
    block = _fenced_block_after("## CLI").replace("\\\n", " ")
    requests = [
        shlex.split(line)[2:] for line in block.splitlines() if line.startswith("$ qbarnes compute")
    ]
    payloads = {}
    for argv in requests:
        assert main(argv) == 0, argv
        payloads[argv[1]] = json.loads(capsys.readouterr().out)
    assert sorted(payloads) == ["hbarnes", "lvalue", "mu"]
    assert payloads["hbarnes"]["value"] == "-3/5"
    assert payloads["mu"]["value"] == "3/13"
    lvalue = payloads["lvalue"]
    assert (lvalue["value"]["unit"], lvalue["value"]["valuation"]) == (291056, 1)
    assert lvalue["agreement_valuation"] == 9
