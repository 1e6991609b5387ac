import json
import subprocess
import sys

import numpy as np
import pytest

from greedycert import build_worst_case, load_dictionary, load_vector, random_dictionary, save_dictionary, save_vector
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


def test_run_seed_support_flag(ortho_dict, capsys):
    code = main(["run", "--dict", ortho_dict, "--instance", "0:1,3:1,5:1", "--k", "3",
                 "--seed-support", "3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["selected"][0] == 3


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
])
@pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
def test_sweep_malformed_config_exits_1(tmp_path, capsys, raw, seed):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(p)] + seed) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_prip_command(wc_dict, capsys):
    assert main(["prip", "--dict", wc_dict, "--q", "2", "--l", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["exact"]["q"] == 2 and blob["exact"]["l"] == 1
    assert blob["exact"]["upper"] <= blob["coherence_bound"]["upper"] + 1e-10
    assert main(["prip", "--dict", wc_dict, "--q", "9", "--l", "1"]) == 1


def test_console_script_installed(tmp_path):
    # one end-to-end check through the real entry point
    proc = subprocess.run([sys.executable, "-m", "greedycert.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "greedycert" in proc.stdout
