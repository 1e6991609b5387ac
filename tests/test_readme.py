"""The README's library quick start runs as written and prints what its comments say, and
its sweep example prints what the CLI prints for the README's config."""

import pathlib
import re
import shlex

import pytest

from greedycert import build_scenario
from greedycert.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_commented_results(capsys):
    code = _quick_start()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert comments == ["Support(indices=(5, 1, 9))", "success", "0.640... True",
                        "0.25  Support(indices=(0, 3, 4))"]
    exec(compile(code, str(README), "exec"), {})
    selected, kind, erc, scenario = capsys.readouterr().out.splitlines()
    assert selected == "Support(indices=(5, 1, 9))"
    assert kind == "success"
    lhs, satisfied = erc.split()
    assert lhs.startswith("0.640") and satisfied == "True"
    mu, truth = scenario.split(" ", 1)
    assert float(mu) == pytest.approx(0.25, rel=1e-15) and truth == "Support(indices=(0, 3, 4))"


def test_readme_sweep_example_is_what_the_cli_prints(tmp_path, capsys):
    text = README.read_text()
    section = text[text.index("### sweep"):]
    example = re.search(r"```text\n(.*?)```", section, re.S).group(1).splitlines()
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    command, *rows = example
    assert rows[-1] == "..." and len(rows) > 2
    argv = shlex.split(command.removeprefix("$ "))
    assert argv[:2] == ["greedycert", "sweep"] and "sweep.json" in argv
    (tmp_path / "sweep.json").write_text(config)
    assert main([str(tmp_path / a) if a == "sweep.json" else a for a in argv[1:]]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[:len(rows) - 1] == rows[:-1]


def test_readme_scenario_json_keys_are_the_written_ones():
    text = README.read_text()
    bullet = text[text.index("- **Scenario JSON**"):]
    bullet = bullet[:bullet.index("\n- ")]
    named = set(re.findall(r"`([^`]+)`", bullet))
    assert named == set(build_scenario(2, 0, "omp").to_dict()) | {"replay", "reproduced"}
