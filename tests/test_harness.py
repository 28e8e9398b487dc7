"""Config parsing, CLI exit codes, determinism, and resumability."""

import json
import os

import pytest

from pinlab.cli import main
from pinlab.harness import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    config_from_mapping,
    parse_config_text,
    run_experiment,
)


def _tiny_convergence(out_dir, seed=3):
    return ExperimentConfig(
        experiment="convergence", N_list=(16, 32), k_list=(16,), replicas=6,
        seed=seed, out_dir=str(out_dir),
    )


def test_parse_json_and_flat():
    cfg1 = parse_config_text(json.dumps({
        "experiment": "convergence", "alpha": 0.4, "N_list": [16, 32],
        "k_list": [8], "replicas": 3, "seed": 9, "out_dir": "x",
    }))
    assert cfg1.alpha == 0.4 and cfg1.N_list == (16, 32)
    cfg2 = parse_config_text(
        "experiment = convergence\nalpha = 0.4\nN_list = 16, 32\n"
        "k_list = 8\nreplicas = 3\nseed = 9\nout_dir = x\n# comment\n"
    )
    assert cfg2 == cfg1


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config_text("{not json")
    with pytest.raises(ConfigError):
        parse_config_text("alpha = 0.4\n")  # no experiment
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "convergence", "bogus_key": 1})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "convergence", "replicas": "many"})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "no-such-thing"})


def test_validation_names_module_preconditions():
    with pytest.raises(ConfigError, match="geometry.set_entropy"):
        config_from_mapping({"experiment": "convergence", "gamma": 1.2})
    with pytest.raises(ConfigError, match="disorder.DisorderLaw"):
        config_from_mapping({"experiment": "convergence", "alpha": 1.2})
    with pytest.raises(ConfigError, match="renewal.tilt"):
        config_from_mapping({"experiment": "concentration", "h": 0.0})
    with pytest.raises(ConfigError, match="subordinator.growth_check"):
        config_from_mapping({"experiment": "subordinator-growth", "q": 0.5})
    with pytest.raises(ConfigError, match="renewal.subexp_diagnostics"):
        config_from_mapping({"experiment": "renewal-asymptotics", "n_eval": 2, "n_max": 2000})
    # polymer admits alpha up to 2
    cfg = config_from_mapping({"experiment": "threshold-polymer", "alpha": 1.5})
    assert cfg.alpha == 1.5


def test_defaults_fill_only_when_unset():
    cfg = config_from_mapping({"experiment": "threshold-pinning"})
    assert cfg.k_list == (128, 512) and cfg.replicas == 500
    cfg2 = config_from_mapping({"experiment": "threshold-pinning", "replicas": 7})
    assert cfg2.replicas == 7


def test_run_writes_cells_and_summary(tmp_path):
    rep = run_experiment(_tiny_convergence(tmp_path))
    for cell in rep.cells:
        assert os.path.exists(cell)
        with open(cell) as fh:
            header = fh.readline().strip()
        assert header == "N,replica,d_H"
    sdir = os.path.dirname(rep.cells[0])
    with open(os.path.join(sdir, "summary.json")) as fh:
        payload = json.load(fh)
    assert payload["version"]
    assert payload["config"]["experiment"] == "convergence"
    assert "medians" in payload["summary"]


def test_determinism_across_directories(tmp_path):
    rep_a = run_experiment(_tiny_convergence(tmp_path / "a"))
    rep_b = run_experiment(_tiny_convergence(tmp_path / "b"))
    assert len(rep_a.cells) == len(rep_b.cells)
    for ca, cb in zip(rep_a.cells, rep_b.cells):
        assert open(ca, "rb").read() == open(cb, "rb").read()
    assert rep_a.summary == rep_b.summary


def test_different_config_different_cells(tmp_path):
    rep_a = run_experiment(_tiny_convergence(tmp_path, seed=3))
    rep_b = run_experiment(_tiny_convergence(tmp_path, seed=4))
    assert set(rep_a.cells).isdisjoint(rep_b.cells)
    assert rep_a.summary != rep_b.summary


def test_resumability_skips_completed_cells(tmp_path):
    cfg = _tiny_convergence(tmp_path)
    rep1 = run_experiment(cfg)
    kept, removed = rep1.cells[0], rep1.cells[1]
    first_bytes = {c: open(c, "rb").read() for c in rep1.cells}
    kept_mtime = os.path.getmtime(kept)
    os.unlink(removed)
    rep2 = run_experiment(cfg)
    assert rep2.summary == rep1.summary
    assert os.path.getmtime(kept) == kept_mtime  # untouched, not rewritten
    for c in rep2.cells:
        assert open(c, "rb").read() == first_bytes[c]


def test_thread_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("PINLAB_THREADS", "1")
    rep1 = run_experiment(_tiny_convergence(tmp_path / "one"))
    monkeypatch.setenv("PINLAB_THREADS", "4")
    rep2 = run_experiment(_tiny_convergence(tmp_path / "four"))
    assert rep1.summary == rep2.summary  # worker count never changes results


def test_all_experiments_run_small(tmp_path):
    configs = {
        "convergence": dict(N_list=(16, 32), k_list=(8,), replicas=4),
        "concentration": dict(N_list=(16, 32, 64), n_samples=200, n_max=2000),
        "threshold-pinning": dict(k_list=(8, 16), replicas=6),
        "threshold-polymer": dict(k_list=(4, 8), replicas=6),
        "renewal-asymptotics": dict(n_eval=300, n_max=2000),
        "subordinator-growth": dict(k_list=(64,), replicas=12, t_points=10),
    }
    for name in EXPERIMENTS:
        cfg = ExperimentConfig(experiment=name, seed=1, out_dir=str(tmp_path), **configs[name])
        rep = run_experiment(cfg)
        assert rep.cells
        assert isinstance(rep.summary, dict) and rep.summary


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out

    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "experiment": "renewal-asymptotics", "n_eval": 100, "n_max": 2000,
        "out_dir": str(tmp_path / "out"),
    }))
    assert main(["validate", "--config", str(good)]) == 0
    assert main(["run", "--config", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "convergence", "gamma": 2.0}))
    assert main(["validate", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(bad)]) == 2

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 3

    unwritable = tmp_path / "unwritable.json"
    unwritable.write_text(json.dumps({
        "experiment": "renewal-asymptotics", "n_eval": 100, "n_max": 2000,
        "out_dir": "/proc/definitely/not/writable",
    }))
    assert main(["run", "--config", str(unwritable)]) == 3


def test_bad_input_exits_2(tmp_path, monkeypatch):
    pooled = tmp_path / "pooled.json"
    pooled.write_text(json.dumps({
        "experiment": "threshold-pinning", "k_list": [4], "replicas": 2,
        "out_dir": str(tmp_path / "pooled"),
    }))
    monkeypatch.setenv("PINLAB_THREADS", "abc")
    assert main(["run", "--config", str(pooled)]) == 2
    monkeypatch.delenv("PINLAB_THREADS")

    short = tmp_path / "short.json"
    short.write_text(json.dumps({
        "experiment": "renewal-asymptotics", "n_eval": 2, "n_max": 2000,
        "out_dir": str(tmp_path / "short"),
    }))
    assert main(["validate", "--config", str(short)]) == 2
    assert main(["run", "--config", str(short)]) == 2
    assert not (tmp_path / "short").exists()  # rejected before any cell is written


def test_gibbs_sample_serialization_contract(tmp_path):
    # harness-facing samples serialize as JSON arrays of integer indices
    from pinlab.gibbs import GibbsSample

    s = GibbsSample(indices=(0, 2, 5, 8), N=8)
    assert json.loads(json.dumps(s.to_index_list())) == [0, 2, 5, 8]
