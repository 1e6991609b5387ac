import json
import subprocess
import sys

import numpy as np
import pytest

from greedycert import (build_scenario, build_worst_case, load_dictionary, load_vector, random_dictionary,
                        save_dictionary, save_vector)
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
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2),
                 "--jobs", "3"]) == 0
    capsys.readouterr()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    blob = json.loads((out1 / "sweep.json").read_text())
    assert blob["config"]["seed"] == 9

    # stdout modes
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("variant,k,l,")
    assert main(["sweep", "--config", str(cfg_path), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)



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


def test_console_script_installed(tmp_path):
    # one end-to-end check through the real entry point
    proc = subprocess.run([sys.executable, "-m", "greedycert.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "greedycert" in proc.stdout
