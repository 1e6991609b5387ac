"""The README's library quick start runs as written and prints what its comments say, its
sweep example prints what the CLI prints for the README's config, and it names every
public name, every subcommand and every exit code."""

import argparse
import pathlib
import re
import shlex

import pytest

import greedycert
from greedycert import build_scenario, cli
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


def _section(title: str) -> str:
    """The README's text under the `## title` heading, up to the next `## ` heading."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def test_readme_names_every_public_name():
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)  # inline code only
    named = {name for span in re.findall(r"`([^`]+)`", text) for name in re.findall(r"\w+", span)}
    assert set(greedycert.__all__) - named == set()


def test_readme_cli_sections_are_the_subcommands():
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    headings = re.findall(r"^### (\S+)", _section("CLI"), re.M)
    assert sorted(headings) == sorted(sub.choices)


def test_readme_exit_codes_are_the_cli_codes():
    # 0 and 2 are the commands' own verdicts; main maps every other code from an exception
    codes = [int(c) for c in re.findall(r"^\| (\d+) \|", _section("Exit codes"), re.M)]
    assert sorted(codes) == sorted({0, 2} | {code for _, _, code in cli._EXIT_CODES})
