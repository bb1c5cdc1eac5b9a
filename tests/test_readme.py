"""README's examples run as documented: the Python quickstart and the CLI walk-through."""

import contextlib
import io
import json
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, re.DOTALL)


def _blocks(lang):
    return [body for kind, body in BLOCKS if kind == lang]


def test_python_quickstart_prints_what_it_documents():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    calls = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    # a comment after a print documents its output, up to the first ";" or ":"
    documented = {
        i: re.split(r"[;:]", line.split("#", 1)[1])[0].strip() for i, line in enumerate(calls) if "#" in line
    }
    assert documented == {0: "(0.2+0j)", len(calls) - 1: "True"}
    assert {i: printed[i] for i in documented} == documented


def test_cli_walkthrough_exits_0_and_writes_the_documented_artifact(run_cli, write_json, tmp_path):
    problem_json, artifact_json = _blocks("json")
    problem = json.loads(problem_json)
    write_json("problem.json", problem)
    write_json("k.json", problem["K"])
    (commands,) = [body for body in _blocks("sh") if body.startswith("cpick ")]
    for line in commands.splitlines():
        argv = line.split("#", 1)[0].split()
        assert argv[0] == "cpick"
        code, out, err = run_cli(*argv[1:])
        assert code == 0, (line, out, err)
    assert json.loads((tmp_path / "f.json").read_text()) == json.loads(artifact_json)
