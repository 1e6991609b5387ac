import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedycert import (Dictionary, build_scenario, build_worst_case, load_dictionary, load_vector,
                        random_dictionary, save_dictionary, save_vector)
from greedycert import cli
from greedycert.cli import main
from greedycert.errors import CalibrationFailed, CapExceeded, RankDeficient


@pytest.fixture
def wc_dict(tmp_path):
    path = tmp_path / "wc.csv"
    save_dictionary(build_worst_case(3, 0), path)
    return str(path)


@pytest.fixture
def ortho_dict(tmp_path):
    path = tmp_path / "eye.csv"
    save_dictionary(random_dictionary(6, 6, coherence_target=0.05, seed=0), path)
    return str(path)


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["run", "--dict", "x.csv"]) == 1  # missing required flags
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_missing_file_exits_1(capsys):
    assert main(["coherence", "--dict", "/nonexistent/d.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "greedycert" in capsys.readouterr().out


def test_coherence_command(wc_dict, capsys):
    assert main(["coherence", "--dict", wc_dict, "--spark"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["m"] == 5 and blob["n"] == 6
    assert blob["coherence"] == pytest.approx(0.2, abs=1e-10)
    assert blob["spark"] == 6
    assert main(["coherence", "--dict", wc_dict, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("m,n,coherence")


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_coherence_of_a_csv_with_a_column_far_from_unit_norm(tmp_path, capsys, scale):
    # the column is normalized, with no overflow warning and no false zero column
    path = tmp_path / "d.csv"
    path.write_text(f"{scale},0\n{scale},1\n")
    assert main(["coherence", "--dict", str(path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["coherence"] == pytest.approx(2 ** -0.5, abs=1e-15)
    assert err == f"warning: {path}: columns were re-normalized to unit length\n"


def test_run_command_success_and_failure(ortho_dict, wc_dict, capsys):
    code = main(["run", "--dict", ortho_dict, "--instance", "0:1,3:-2", "--k", "2"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["outcome"]["kind"] == "success"
    assert sorted(blob["selected"]) == [0, 3]

    # an observation equal to the dependent-direction mix defeats the pursuit
    code = main(["run", "--dict", wc_dict, "--instance", "0:1,1:1,2:1",
                 "--variant", "ols", "--k", "3"])
    assert code == 2
    blob = json.loads(capsys.readouterr().out)
    assert blob["outcome"]["kind"] in ("wrong_atom", "tie_with_wrong_atom", "early_zero_residual")


def test_run_with_vector_file_and_truth(ortho_dict, tmp_path, capsys):
    d, _ = load_dictionary(ortho_dict)
    y = 2.0 * d.atoms[:, 1] - 1.0 * d.atoms[:, 4]
    ypath = tmp_path / "y.csv"
    save_vector(y, ypath)
    assert main(["run", "--dict", ortho_dict, "--y", str(ypath), "--k", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["outcome"] is None  # no truth given, nothing to classify
    assert main(["run", "--dict", ortho_dict, "--y", str(ypath), "--k", "2",
                 "--truth", "1,4"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"]["kind"] == "success"


def test_run_rejects_truth_outside_the_dictionary(tmp_path, capsys):
    d = random_dictionary(6, 9, seed=3)
    save_dictionary(d, tmp_path / "d.csv")
    save_vector(d.atoms[:, 0] + d.atoms[:, 4], tmp_path / "y.csv")
    argv = ["run", "--dict", str(tmp_path / "d.csv"), "--y", str(tmp_path / "y.csv"), "--k", "2"]
    assert main(argv + ["--truth", "0,99"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: support index 99 out of range for n=9\n"
    assert main(argv + ["--truth", "0,8"]) == 2  # in range, so classified
    assert json.loads(capsys.readouterr().out)["outcome"]["atom"] is not None



def test_run_rejects_an_observation_whose_squared_norm_overflows(tmp_path, capsys):
    save_dictionary(random_dictionary(6, 9, seed=3), tmp_path / "d.csv")
    save_vector(np.full(6, 1e300), tmp_path / "y.csv")
    argv = ["run", "--dict", str(tmp_path / "d.csv"), "--k", "2"]
    assert main(argv + ["--instance", "0:1e300,1:1e300"]) == 1
    assert capsys.readouterr() == (
        "", "error: observation is too large: its squared norm overflows a float\n")
    assert main(argv + ["--y", str(tmp_path / "y.csv")]) == 1
    assert capsys.readouterr() == (
        "", "error: vector is too large: its squared norm overflows a float\n")

def test_run_seed_support_flag(ortho_dict, capsys):
    code = main(["run", "--dict", ortho_dict, "--instance", "0:1,3:1,5:1", "--k", "3",
                 "--seed-support", "3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["selected"][0] == 3


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one main call; --version's SystemExit counts as a code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_keeps_no_state_between_calls(ortho_dict, capsys):
    assert cli._build_parser() is cli._build_parser()
    run = ["run", "--dict", ortho_dict, "--instance", "0:1,3:1,5:1", "--k", "3"]
    calls = [run + ["--seed-support", "3"],
             ["run", "--dict", ortho_dict, "--k", "2"],  # neither --y nor --instance
             ["--version"],
             run,
             ["certify", "--dict", ortho_dict, "--qstar", "0,2,4", "--format", "csv"]]
    cli._build_parser.cache_clear()
    cached = [_outcome(argv, capsys) for argv in calls]  # one parser serves all five
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, ("SystemExit", 0), 0, 0]
    assert json.loads(cached[0][1])["seeded"] == 1 and json.loads(cached[3][1])["seeded"] == 0


def test_commands_are_looked_up_per_call(wc_dict, capsys, monkeypatch):
    assert main(["coherence", "--dict", wc_dict]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_coherence", lambda args: seen.append(args.dict) or 5)
    assert main(["coherence", "--dict", wc_dict]) == 5
    assert seen == [wc_dict]
    assert capsys.readouterr().out == ""


def test_certify_at_threshold_exits_2(wc_dict, capsys):
    code = main(["certify", "--dict", wc_dict, "--qstar", "0,1,2"])
    assert code == 2
    blob = json.loads(capsys.readouterr().out)
    assert blob["erc"]["lhs"] == pytest.approx(1.0, abs=1e-10)
    assert blob["conditions"]["erc_satisfied"] is False


def test_certify_satisfied_exits_0(ortho_dict, capsys):
    code = main(["certify", "--dict", ortho_dict, "--qstar", "0,2,4", "--q", "0",
                 "--variant", "ols"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["partial_erc"]["satisfied"] is True
    assert blob["l"] == 1


def test_certify_rank_deficiency_exits_3(tmp_path, capsys):
    a = np.eye(4)[:, [0, 0, 1, 2]]
    path = tmp_path / "dup.csv"
    path.write_text("\n".join(",".join(f"{x:.17g}" for x in row) for row in a) + "\n")
    assert main(["certify", "--dict", str(path), "--qstar", "0,1"]) == 3
    assert "rank" in capsys.readouterr().err


def test_worstcase_command(tmp_path, capsys):
    out = tmp_path / "scen"
    code = main(["worstcase", "--k", "3", "--l", "1", "--variant", "omp",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "failure iteration = 2 (1-based)" in text
    d, renorm = load_dictionary(out / "dictionary.csv")
    assert not renorm and d.n == 5
    y = load_vector(out / "y.csv")
    blob = json.loads((out / "scenario.json").read_text())
    assert blob["reproduced"] is True
    assert blob["replay"]["outcome"]["kind"] == "tie_with_wrong_atom"
    assert np.allclose(y, blob["y"])


@pytest.mark.parametrize("k,l,variant", [(2, 0, "ols"), (3, 1, "omp"), (5, 3, "ols")])
def test_worstcase_dictionary_file_keeps_its_bytes(tmp_path, capsys, k, l, variant):
    out = tmp_path / "scen"
    assert main(["worstcase", "--k", str(k), "--l", str(l), "--variant", variant,
                 "--out", str(out)]) == 0
    written = (out / "dictionary.csv").read_text()
    assert written == json.loads((out / "scenario.json").read_text())["dictionary_csv"] + "\n"
    save_dictionary(build_scenario(k, l, variant).dictionary, tmp_path / "direct.csv")
    assert written == (tmp_path / "direct.csv").read_text()


SMALL_WORST_CASES = [(k, l, variant) for k in range(1, 12) for l in range(k) if 2 * k - l <= 12
                     for variant in ("omp", "ols")]


def test_run_on_the_written_worstcase_files_prints_its_replay(tmp_path, capsys):
    # the dictionary the replay pursued and the one run loads from dictionary.csv hold the
    # same atoms in the same layout: run prints the replay's bytes
    assert len(SMALL_WORST_CASES) == 72
    for k, l, variant in SMALL_WORST_CASES:
        out = tmp_path / f"{k}-{l}-{variant}"
        assert main(["worstcase", "--k", str(k), "--l", str(l), "--variant", variant,
                     "--out", str(out)]) == 0
        blob = json.loads((out / "scenario.json").read_text())
        capsys.readouterr()
        assert main(["run", "--dict", str(out / "dictionary.csv"), "--y", str(out / "y.csv"),
                     "--variant", variant, "--k", str(k),
                     "--truth", ",".join(map(str, blob["truth"]))]) == 2
        assert capsys.readouterr().out == json.dumps(blob["replay"], indent=2) + "\n", (k, l, variant)


def _written(out, names):
    return {name: (out / name).read_bytes() for name in names}


SCENARIO_FILES = ("dictionary.csv", "y.csv", "scenario.json")


def test_worstcase_rewrites_a_larger_scenario_to_the_bytes_of_a_fresh_directory(tmp_path, capsys):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(["worstcase", "--k", "5", "--l", "3", "--out", str(reused)]) == 0
    larger = _written(reused, SCENARIO_FILES)
    for out in (reused, fresh):
        assert main(["worstcase", "--k", "2", "--l", "0", "--out", str(out)]) == 0
    assert _written(reused, SCENARIO_FILES) == _written(fresh, SCENARIO_FILES)
    assert all(len(larger[name]) > len(blob) for name, blob in _written(fresh, SCENARIO_FILES).items())


def test_worstcase_into_a_directory_named_like_its_file_exits_1(tmp_path, capsys):
    (tmp_path / "dictionary.csv").mkdir()
    assert main(["worstcase", "--k", "2", "--l", "0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "dictionary.csv" in err


def test_worstcase_rejects_bad_shape(tmp_path, capsys):
    assert main(["worstcase", "--k", "2", "--l", "2", "--variant", "ols",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["worstcase", "--k", "40", "--l", "0", "--variant", "omp",
                 "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("exc,line,code", [
    (CalibrationFailed("no scale"), "calibration failed: no scale", 4),
    (CapExceeded("too many"), "error: too many", 1),
    (RankDeficient("dependent"), "rank deficiency: dependent", 3),
])
def test_worstcase_library_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch, exc, line, code):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "build_scenario", fail)
    assert main(["worstcase", "--k", "2", "--l", "0", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == line + "\n"


def test_sweep_command_and_determinism(tmp_path, capsys):
    cfg = dict(m=10, n=10, k_range=[2, 3], l_range=[0, 1], trials=3,
               coherence_target="threshold", seed=9, variant="both", seed_partial=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()
    # the retired --jobs is an unknown option
    assert main(["sweep", "--config", str(cfg_path), "--jobs", "3"]) == 1
    assert "usage error" in capsys.readouterr().err
    blob = json.loads((out1 / "sweep.json").read_text())
    assert blob["config"]["seed"] == 9

    # stdout modes
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("variant,k,l,")
    assert main(["sweep", "--config", str(cfg_path), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)



SWEEP_FILES = ("sweep.csv", "sweep.json")


def test_sweep_rewrites_a_larger_report_to_the_bytes_of_a_fresh_directory(tmp_path, capsys):
    large, small = tmp_path / "large.json", tmp_path / "small.json"
    large.write_text(json.dumps(dict(m=8, n=8, k_range=[2, 4], l_range=[0, 2], trials=3,
                                     coherence_target=None, seed=3, variant="both")))
    small.write_text(json.dumps(dict(m=6, n=6, k_range=[2, 2], l_range=[0, 0], trials=2,
                                     coherence_target=None, seed=4, variant="omp")))
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(["sweep", "--config", str(large), "--out", str(reused)]) == 0
    larger = _written(reused, SWEEP_FILES)
    for out in (reused, fresh):
        assert main(["sweep", "--config", str(small), "--out", str(out)]) == 0
    assert _written(reused, SWEEP_FILES) == _written(fresh, SWEEP_FILES)
    assert all(len(larger[name]) > len(blob) for name, blob in _written(fresh, SWEEP_FILES).items())


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which RFC 8259 JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_sweep_json_of_an_unreachable_cell_is_strict_json(tmp_path, capsys):
    cfg = dict(m=6, n=12, k_range=[2, 2], l_range=[0, 0], trials=3, coherence_target=0.05,
               seed=1, variant="both")  # 0.05 is below the Welch bound of 6 x 12
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--format", "json"]) == 0
    printed = _strict_json(capsys.readouterr().out)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _strict_json((tmp_path / "sweep.json").read_text()) == printed
    for cell in printed["cells"]:
        assert cell["skipped"] and cell["accepted"] == 0
        assert cell["mu_mean"] is cell["success_rate"] is cell["tie_rate"] is None
        assert cell["mu_max"] is None
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == [
        "omp,2,0,nan,0.33333333333333331,nan,nan", "ols,2,0,nan,0.33333333333333331,nan,nan"]

def test_sweep_seed_override(tmp_path, capsys):
    cfg = dict(m=8, n=8, k_range=[2, 2], l_range=[0, 0], trials=2,
               coherence_target=None, seed=1, variant="omp", seed_partial=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--format", "json"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert main(["sweep", "--config", str(cfg_path), "--seed", "2",
                 "--format", "json"]) == 0
    other = json.loads(capsys.readouterr().out)
    assert base["config"]["seed"] == 1 and other["config"]["seed"] == 2
    assert base["cells"][0]["mu_mean"] != other["cells"][0]["mu_mean"]


def test_sweep_bad_config_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["sweep", "--config", str(p)]) == 1
    p.write_text(json.dumps({"m": 8}))
    assert main(["sweep", "--config", str(p)]) == 1
    p.write_text(json.dumps({"m": 8, "n": 8, "k_range": [2, 2], "l_range": [0, 0],
                             "trials": 1, "coherence_target": -0.5}))
    assert main(["sweep", "--config", str(p)]) == 1
    assert "coherence_target" in capsys.readouterr().err


GOOD_SWEEP = dict(m=8, n=8, k_range=[2, 2], l_range=[0, 0], trials=1)


@pytest.mark.parametrize("raw", [
    {**GOOD_SWEEP, "m": "x"},
    {**GOOD_SWEEP, "k_range": 5},
    {**GOOD_SWEEP, "k_range": [[2], 2]},
    {**GOOD_SWEEP, "trials": None},
    {**GOOD_SWEEP, "l_range": ["0", "a"]},
    {**GOOD_SWEEP, "n": float("inf")},
    {**GOOD_SWEEP, "coherence_target": True},
    [GOOD_SWEEP],
    [],
    "m=8",
    # numbers and flags are taken as they are, not coerced into another experiment
    {**GOOD_SWEEP, "seed_partial": "false"},
    {**GOOD_SWEEP, "seed_partial": 1},
    {**GOOD_SWEEP, "trials": 2.9},
    {**GOOD_SWEEP, "trials": True},
    {**GOOD_SWEEP, "k_range": [2.7, 3.2]},
    {**GOOD_SWEEP, "l_range": "00"},
    {**GOOD_SWEEP, "m": "8"},
    {**GOOD_SWEEP, "n": 8.0},
])
@pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
def test_sweep_malformed_config_exits_1(tmp_path, capsys, raw, seed):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(p)] + seed) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("seed", [1.5, True, "1"])
def test_sweep_non_integer_seed_exits_1(tmp_path, capsys, seed):
    # without --seed, which would replace the config's seed
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**GOOD_SWEEP, "seed": seed}))
    assert main(["sweep", "--config", str(p)]) == 1
    assert capsys.readouterr().err == f"error: sweep config field seed must be a JSON integer, got {seed!r}\n"


def test_sweep_config_keeps_case_insensitive_variant(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**GOOD_SWEEP, "variant": "OMP", "seed_partial": True}))
    assert main(["sweep", "--config", str(p), "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["variant"] == "omp" and config["seed_partial"] is True


def test_sweep_takes_a_large_integer_target_that_fits_a_float(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**GOOD_SWEEP, "coherence_target": 10 ** 20}))
    assert main(["sweep", "--config", str(p), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["coherence_target"] == 10 ** 20
    p.write_text(json.dumps({**GOOD_SWEEP, "coherence_target": 10 ** 400}))
    assert main(["sweep", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coherence_target must be")
    assert captured.err.count("\n") == 1


def test_sweep_range_past_the_shape_runs_only_its_cells(tmp_path, capsys):
    # k_range reaches far past min(m, n) = 8: only (8, 7) is a cell
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**GOOD_SWEEP, "k_range": [2, 10 ** 12], "l_range": [7, 7]}))
    assert main(["sweep", "--config", str(p)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["omp", "8", "7"], ["ols", "8", "7"]]


def test_worstcase_that_does_not_reproduce_exits_4(tmp_path, capsys, monkeypatch):
    # an observation in the span of the truth atoms, which the replay recovers
    s = build_scenario(3, 1, "omp")
    y = s.dictionary.atoms[:, list(s.truth)] @ np.array([4.0, 2.0, 1.0])
    monkeypatch.setattr(cli, "build_scenario", lambda *args: dataclasses.replace(s, y=y))
    out = tmp_path / "scen"
    assert main(["worstcase", "--k", "3", "--l", "1", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "scenario did NOT reproduce the predicted failure\n"
    assert "failure iteration" not in captured.out
    blob = json.loads((out / "scenario.json").read_text())
    assert blob["reproduced"] is False and blob["replay"]["outcome"]["kind"] == "success"


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_worstcase_whose_replay_picks_another_wrong_atom_exits_4(tmp_path, capsys,
                                                                 monkeypatch, variant):
    # the replay ties at iteration l as predicted, but takes atom 1, not the predicted 2
    s = build_scenario(3, 1, variant)
    assert s.predicted_wrong == 1
    monkeypatch.setattr(cli, "build_scenario",
                        lambda *args: dataclasses.replace(s, predicted_wrong=2))
    out = tmp_path / "scen"
    assert main(["worstcase", "--k", "3", "--l", "1", "--variant", variant,
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "scenario did NOT reproduce the predicted failure\n"
    assert "failure iteration = 2 (1-based), kind = tie_with_wrong_atom" in captured.out
    blob = json.loads((out / "scenario.json").read_text())
    assert blob["reproduced"] is False and blob["replay"]["selected"][:2] == [0, 1]


@pytest.mark.parametrize("argv, line", [
    (["run", "--k", "1", "--instance", "0:1,2"],
     "expected index:coefficient pairs like '0:1.5,3:-2', got '0:1,2'"),
    (["run", "--k", "1", "--instance", "0:x"],
     "expected index:coefficient pairs like '0:1.5,3:-2', got '0:x'"),
    (["run", "--k", "1", "--instance", "0:1", "--truth", "0;1"],
     "expected a comma-separated index list, got '0;1'"),
    (["certify", "--qstar", "0,a"], "expected a comma-separated index list, got '0,a'"),
])
def test_unparsable_index_lists_exit_1(wc_dict, capsys, argv, line):
    assert main(argv + ["--dict", wc_dict]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {line}\n"


def test_prip_reports_no_coherence_bound_outside_its_domain(tmp_path, capsys):
    # coherence 0.91 with l = 3: the closed form needs mu < 1/(l-1) = 0.5
    v = np.array([0.9, 0.3, 0.2, 0.2]) / np.sqrt(0.98)
    path = tmp_path / "tight.csv"
    save_dictionary(Dictionary(np.column_stack([np.eye(4), v])), path)
    assert main(["prip", "--dict", str(path), "--q", "1", "--l", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["coherence"] > 0.5 and blob["coherence_bound"] is None
    assert blob["exact"]["q"] == 1 and blob["exact"]["l"] == 3


def test_prip_command(wc_dict, capsys):
    assert main(["prip", "--dict", wc_dict, "--q", "2", "--l", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["exact"]["q"] == 2 and blob["exact"]["l"] == 1
    assert blob["exact"]["upper"] <= blob["coherence_bound"]["upper"] + 1e-10
    assert main(["prip", "--dict", wc_dict, "--q", "9", "--l", "1"]) == 1


def test_prip_reports_no_coherence_bound_at_coherence_one(tmp_path, capsys):
    # two equal atoms: the exact constants exist, the closed form needs mu < 1
    path = tmp_path / "dup.csv"
    path.write_text("1,1,0\n0,0,1\n")
    assert main(["prip", "--dict", str(path), "--q", "1", "--l", "0"]) == 0
    out = capsys.readouterr()
    blob = json.loads(out.out)
    assert blob["coherence"] == 1.0 and blob["coherence_bound"] is None and out.err == ""
    assert blob["exact"] == {"q": 1, "l": 0, "lower": 0.0, "upper": 0.0, "kind": "exact"}
    assert main(["prip", "--dict", str(path), "--q", "1", "--l", "0", "--format", "csv"]) == 0
    out = capsys.readouterr()
    assert out.out == "kind,q,l,lower,upper\nexact,1,0,0,0\n" and out.err == ""


# the exact stdout of the README's certify, prip and coherence examples, on the
# dictionary of `worstcase --k 3 --l 1`

README_CERTIFY_JSON = """\
{
  "coherence": 0.2500000000000001,
  "k": 3,
  "l": 1,
  "threshold_full": 0.2,
  "threshold_partial": 0.25,
  "conditions": {
    "coherence_below_full_threshold": false,
    "coherence_below_partial_threshold": false,
    "erc_satisfied": false,
    "partial_erc_satisfied": true
  },
  "erc": {
    "variant": null,
    "lhs": 1.5000000000000002,
    "binding_atom": 1,
    "satisfied": false,
    "partial_support": null
  },
  "partial_erc": {
    "variant": "omp",
    "lhs": 0.9999999999999999,
    "binding_atom": 1,
    "satisfied": true,
    "partial_support": [
      0
    ]
  }
}
"""

README_PRIP_JSON = """\
{
  "coherence": 0.2500000000000001,
  "exact": {
    "q": 2,
    "l": 1,
    "lower": 0.375,
    "upper": 0.25000000000000044,
    "kind": "exact"
  },
  "coherence_bound": {
    "q": 2,
    "l": 1,
    "lower": 0.3750000000000002,
    "upper": 0.2500000000000001,
    "kind": "coherence_bound"
  }
}
"""

README_COHERENCE_JSON = """\
{
  "m": 4,
  "n": 5,
  "coherence": 0.2500000000000001,
  "spark": 5
}
"""

README_OUTPUTS = {
    ("certify", "json"): README_CERTIFY_JSON,
    ("certify", "csv"): (
        "coherence,threshold_full,threshold_partial,erc_lhs,erc_satisfied,partial_lhs,"
        "partial_satisfied\n"
        "0.25000000000000011,0.20000000000000001,0.25,1.5000000000000002,False,"
        "0.99999999999999989,True\n"),
    ("prip", "json"): README_PRIP_JSON,
    ("prip", "csv"): ("kind,q,l,lower,upper\n"
                      "exact,2,1,0.375,0.25000000000000044\n"
                      "coherence_bound,2,1,0.37500000000000022,0.25000000000000011\n"),
    ("coherence", "json"): README_COHERENCE_JSON,
    ("coherence", "csv"): "m,n,coherence,spark\n4,5,0.25000000000000011,5\n",
}
README_ARGS = {
    "certify": ["--qstar", "0,3,4", "--q", "0", "--variant", "omp"],
    "prip": ["--q", "2", "--l", "1"],
    "coherence": ["--spark"],
}


@pytest.mark.parametrize("command,fmt", sorted(README_OUTPUTS))
def test_report_stdout_is_pinned(tmp_path, capsys, command, fmt):
    path = tmp_path / "wc31.csv"
    save_dictionary(build_worst_case(3, 1), path)
    argv = [command, "--dict", str(path), *README_ARGS[command], "--format", fmt]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == README_OUTPUTS[command, fmt]
    assert captured.err == ""


README_WORSTCASE = """\
coherence = 0.25000000000000011 (threshold 0.25)
prefix selections = [0]
truth = [0, 3, 4]; predicted wrong atom = 1
failure iteration = 2 (1-based), kind = tie_with_wrong_atom
wrote dictionary.csv, y.csv, scenario.json to wc31
"""


def test_readme_worstcase_and_run_examples_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["worstcase", "--k", "3", "--l", "1", "--variant", "omp", "--out", "wc31"]) == 0
    captured = capsys.readouterr()
    assert captured.out == README_WORSTCASE and captured.err == ""
    assert main(["run", "--dict", "wc31/dictionary.csv", "--y", "wc31/y.csv", "--variant", "omp",
                 "--k", "3", "--truth", "0,3,4"]) == 2
    trace = json.loads(capsys.readouterr().out)
    assert trace["selected"] == [0, 1, 2]
    assert trace["tie_at"] == 1 and trace["early_stop"] is None
    assert trace["outcome"] == {"kind": "tie_with_wrong_atom", "iteration": 1, "atom": None}
    norms = trace["residual_norms"]  # to the digits the README prints
    assert norms[0] == 1.5 and [str(x)[:5] for x in norms[1:3]] == ["1.118", "0.912"]
    assert f"{norms[3]:.3e}" == "1.241e-16"


def test_console_script_installed(tmp_path):
    # one end-to-end check through the real entry point
    proc = subprocess.run([sys.executable, "-m", "greedycert.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "greedycert" in proc.stdout


# a fuzz of main over all six subcommands on small generated files: every call returns
# a documented exit code, with one stderr line of the documented prefix for codes 1 and
# 3 and strict JSON on stdout in JSON mode

_NUMBERS = st.one_of(st.floats(-2.0, 2.0).map(repr),
                     st.sampled_from(["0", "1e-300", "1e200", "nan", "inf", "x", ""]))
_PREFIXES = {1: ("usage error: ", "error: "), 3: ("rank deficiency: ",)}


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def _mostly(valid, invalid):
    """valid three times in four, invalid otherwise."""
    return st.integers(0, 3).flatmap(lambda i: invalid if i == 3 else valid)


def _indices(n: int):
    """Comma-separated atom indices: mostly distinct ones inside a dictionary of n atoms."""
    return _mostly(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
                   st.lists(st.integers(-1, n), max_size=3)).map(
        lambda v: ",".join(map(str, v)))


@st.composite
def _dictionary_csv(draw, path):
    """Writes m x n numbers to path, mostly Gaussian ones (a duplicated column makes
    the dictionary rank deficient), and returns n."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    if draw(st.integers(0, 3)) < 3:
        a = np.random.default_rng(draw(st.integers(0, 99))).normal(size=(m, max(n, 2)))
        if draw(st.integers(0, 3)) == 3:
            a[:, -1] = a[:, 0]
        rows = [[repr(x) for x in row] for row in a.tolist()]
    else:
        rows = [draw(st.lists(_NUMBERS, min_size=n, max_size=n)) for _ in range(m)]
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(row) for row in rows) + "\n")
    return m, len(rows[0])


@st.composite
def _argv(draw, tmp):
    """A subcommand's argument list over files written to tmp."""
    path = os.path.join(tmp, "d.csv")
    m, n = draw(_dictionary_csv(path))
    command = draw(st.sampled_from(["run", "certify", "worstcase", "sweep", "prip", "coherence"]))
    fmt = draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    variant = draw(st.sampled_from([[], ["--variant", "omp"], ["--variant", "ols"]]))
    if command == "run":
        vector = os.path.join(tmp, "y.csv")
        with open(vector, "w") as fh:
            fh.write(",".join(draw(_mostly(st.lists(st.floats(-2.0, 2.0).map(repr),
                                                   min_size=m, max_size=m),
                                          st.lists(_NUMBERS, max_size=5)))) + "\n")
        observed = draw(st.one_of(st.just(["--y", vector]), st.lists(
            st.tuples(st.integers(-1, n), st.floats(-2.0, 2.0)), min_size=1, max_size=3).map(
            lambda pairs: ["--instance", ",".join(f"{i}:{c!r}" for i, c in pairs)])))
        extra = [[flag, draw(_indices(n))] for flag in ("--truth", "--seed-support")
                 if draw(st.booleans())]
        k = draw(_mostly(st.integers(1, min(m, n)), st.sampled_from([-1, 0, 9, "x"])))
        return [command, "--dict", path, *observed, "--k", str(k), *variant, *sum(extra, [])]
    if command == "certify":
        q = ["--q", draw(_indices(n))] if draw(st.booleans()) else []
        return [command, "--dict", path, "--qstar", draw(_indices(n)), *q, *variant, *fmt]
    if command == "worstcase":
        k = draw(st.integers(0, 4))
        return [command, "--k", str(k), "--l", str(draw(st.integers(-1, k))), *variant,
                "--out", os.path.join(tmp, "out")]
    if command == "sweep":
        m = draw(st.integers(1, 4))
        config = {"m": m, "n": draw(_mostly(st.integers(2, 6), st.just(1))),
                  "trials": draw(_mostly(st.integers(1, 3), st.just(0))),
                  "k_range": sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2))),
                  "l_range": sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))),
                  "coherence_target": draw(st.sampled_from([None, 0.3, 0.9, "threshold", "x"])),
                  "variant": draw(st.sampled_from(["omp", "ols", "both"])),
                  "seed_partial": draw(st.booleans())}
        config_path = os.path.join(tmp, "sweep.json")
        with open(config_path, "w") as fh:
            fh.write(draw(_mostly(st.just(json.dumps(config)), st.just("{"))))
        out = ["--out", os.path.join(tmp, "out")] if draw(st.booleans()) else []
        seed = ["--seed", str(draw(_mostly(st.integers(0, 9), st.sampled_from([-1, "x"]))))]
        return [command, "--config", config_path, *out, *seed[:2 * draw(st.integers(0, 1))],
                *draw(_mostly(st.just([]), st.just(["--jobs", "2"]))), *fmt]  # --jobs is retired
    if command == "prip":
        return [command, "--dict", path, "--q", str(draw(st.integers(0, 2))),
                "--l", str(draw(st.integers(-1, 2))), *fmt]
    spark = ["--spark"] if draw(st.booleans()) else []
    return [command, "--dict", path, *spark, *fmt]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_main_returns_a_documented_code_on_generated_input(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(_argv(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(5), argv
    lines = [line for line in err.getvalue().splitlines()
             if not (line.startswith("warning: ") and line.endswith("re-normalized to unit length"))]
    if code in _PREFIXES:
        assert len(lines) == 1 and lines[0].startswith(_PREFIXES[code]), (argv, lines)
    json_mode = argv[0] == "run" or (argv[0] in ("certify", "prip", "coherence")
                                     and argv[-2:] != ["--format", "csv"])
    if code in (0, 2) and json_mode:
        json.loads(out.getvalue(), parse_constant=_refuse)
