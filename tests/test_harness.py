"""Config parsing, CLI exit codes, determinism, and resumability."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import pinlab
from pinlab import harness
from pinlab.cli import main
from pinlab.disorder import BUFFER_MIN, DisorderLaw, couple, draw_base
from pinlab.geometry import hausdorff
from pinlab.harness import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    config_from_mapping,
    parse_config_text,
    run_experiment,
)
from pinlab.renewal import _convolve_head, build_law, renewal_function
from pinlab.streams import substream
from pinlab.varmax import EnergyLandscape, solve_dp


#: small configs of every experiment, with at least three cells where the
#: experiment has more than one
_SMALL = {
    "convergence": dict(N_list=(16, 32, 64), k_list=(16,), replicas=5),
    "concentration": dict(N_list=(16, 32, 64), n_samples=200, n_max=2000),
    "threshold-pinning": dict(k_list=(8, 16, 32), replicas=6),
    "threshold-polymer": dict(k_list=(4, 8, 16), replicas=6),
    "renewal-asymptotics": dict(n_eval=300, n_max=2000),
    "subordinator-growth": dict(k_list=(64,), replicas=12, t_points=10),
}


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


def test_malformed_cells_are_recomputed(tmp_path, caplog):
    # a cell with a foreign header, a short row, a missing row or a value that
    # is not a float is not reused: a rerun rewrites each with the fresh bytes
    # and logs its path
    cfg = dataclasses.replace(_tiny_convergence(tmp_path), N_list=(16, 32, 48, 64))
    rep1 = run_experiment(cfg)
    fresh = {c: open(c, "rb").read() for c in rep1.cells}

    def foreign_header(lines):
        lines[0] = lines[0].replace("d_H", "beta_c")

    def short_row(lines):
        lines[2] = lines[2].rsplit(",", 1)[0]

    def missing_row(lines):
        del lines[3]

    def not_a_float(lines):
        lines[4] = lines[4].rsplit(",", 1)[0] + ",0.5x"

    corruptions = (foreign_header, short_row, missing_row, not_a_float)
    for cell, corrupt in zip(rep1.cells, corruptions):
        lines = fresh[cell].decode().splitlines()
        corrupt(lines)
        with open(cell, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    with caplog.at_level("WARNING", logger="pinlab.harness"):
        rep2 = run_experiment(cfg)
    assert rep2.summary == rep1.summary
    for c in rep2.cells:
        assert open(c, "rb").read() == fresh[c]
    logged = " ".join(r.getMessage() for r in caplog.records)
    assert all(c in logged for c in rep1.cells)


def _cell_bytes(report):
    return [open(c, "rb").read() for c in report.cells]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_resumed_run_matches_fresh_run(tmp_path, name):
    # a resumed run recomputes one deleted cell (for convergence, with the
    # reference maximizers computed lazily from the replicas) and writes the
    # same bytes; summaries agree whether their columns were computed or
    # parsed back from the cells on disk
    cfg = ExperimentConfig(experiment=name, seed=11, out_dir=str(tmp_path / "resumed"),
                           **_SMALL[name])
    first = run_experiment(cfg)
    os.unlink(first.cells[len(first.cells) // 2])
    resumed = run_experiment(cfg)
    fresh = run_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "fresh")))
    assert _cell_bytes(resumed) == _cell_bytes(fresh)
    assert resumed.summary == fresh.summary == first.summary
    assert run_experiment(cfg).summary == fresh.summary  # every cell parsed back


def _renewal_cell_by_rows(cfg):
    # the row-by-row cell: one scalar division per value, written value by
    # value; the convolutions themselves are checked against np.convolve and
    # exact sums in test_renewal.py
    law = build_law(cfg.gamma, cfg.c, cfg.rho, cfg.k_inf, n_max=cfg.n_max)
    n_eval = cfg.n_eval
    u = renewal_function(law, n_eval)
    q = law.q[1 : n_eval + 1]
    conv2 = _convolve_head(q, q, n_eval - 1)
    conv3 = _convolve_head(conv2, q, n_eval - 2)
    text = "n,K,u,u_over_K,q2_over_q,q3_over_q\n"
    for n in range(1, n_eval + 1):
        q2 = conv2[n - 2] if n >= 2 else 0.0
        q3 = conv3[n - 3] if n >= 3 else 0.0
        qn = q[n - 1]
        row = [n, law.K[n], u[n], u[n] / law.K[n], q2 / qn, q3 / qn]
        text += ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                         for v in row) + "\n"
    return text.encode()


@pytest.mark.parametrize("n_eval", [3, 300, 2000])
def test_renewal_cell_matches_row_loop(tmp_path, n_eval):
    cfg = ExperimentConfig(experiment="renewal-asymptotics", n_eval=n_eval, n_max=4000,
                           out_dir=str(tmp_path))
    rep = run_experiment(cfg)
    assert _cell_bytes(rep) == [_renewal_cell_by_rows(rep.config)]


def test_schema_version_keys_renewal_cells_apart(tmp_path, monkeypatch):
    # a cell written under an older schema version sits in another directory,
    # so a run at the new version recomputes it instead of reading it back
    cfg = ExperimentConfig(experiment="renewal-asymptotics", out_dir=str(tmp_path),
                           **_SMALL["renewal-asymptotics"])
    spec = harness.SPECS["renewal-asymptotics"]
    assert spec.schema == 1
    with monkeypatch.context() as m:
        m.setitem(harness.SPECS, "renewal-asymptotics", spec._replace(schema=0))
        old = run_experiment(cfg)
    (old_cell,) = old.cells
    with open(old_cell) as fh:
        stale = fh.read().replace("0.", "1.", 1)  # well formed, but not what version 1 writes
    with open(old_cell, "w") as fh:
        fh.write(stale)
    calls, ratio_table = [], harness.ratio_table
    monkeypatch.setattr(harness, "ratio_table",
                        lambda *args: calls.append(args) or ratio_table(*args))
    new = run_experiment(cfg)
    assert os.path.dirname(new.cells[0]) != os.path.dirname(old_cell)
    assert len(calls) == 1
    assert _cell_bytes(new) == [_renewal_cell_by_rows(new.config)]


def test_schema_version_0_keeps_the_config_keys():
    # the experiments at schema version 0 keep the directory names they had
    # before versions existed
    keys = {name: harness._config_key(
        ExperimentConfig(experiment=name, seed=1, **_SMALL[name]).with_defaults())
        for name in EXPERIMENTS}
    assert keys == {
        "convergence": "38003cbb5012",
        "concentration": "9d5b384bb1f5",
        "threshold-pinning": "72306fb29b0b",
        "threshold-polymer": "b730a4ade456",
        "renewal-asymptotics": "c24112965f62",  # 124ab4d99815 before version 1
        "subordinator-growth": "a0b896f30361",
    }
    assert [name for name in EXPERIMENTS if harness.SPECS[name].schema] == [
        "renewal-asymptotics"]


def test_all_experiments_run_small(tmp_path):
    for name in EXPERIMENTS:
        cfg = ExperimentConfig(experiment=name, seed=1, out_dir=str(tmp_path), **_SMALL[name])
        rep = run_experiment(cfg)
        assert rep.cells
        assert isinstance(rep.summary, dict) and rep.summary


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"{name}: " in out
        assert f"keys: {' '.join(harness.SPECS[name].keys)} seed out_dir" in out

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

    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe" + json.dumps({"experiment": "convergence"}).encode())
    assert main(["validate", "--config", str(not_utf8)]) == 2
    assert main(["run", "--config", str(not_utf8)]) == 2

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 3

    unwritable = tmp_path / "unwritable.json"
    unwritable.write_text(json.dumps({
        "experiment": "renewal-asymptotics", "n_eval": 100, "n_max": 2000,
        "out_dir": "/proc/definitely/not/writable",
    }))
    assert main(["run", "--config", str(unwritable)]) == 3


_CONV = {"experiment": "convergence", "N_list": [16, 32], "k_list": [8], "replicas": 3}


def test_bad_input_exits_2(tmp_path):
    # each is rejected before its out_dir is made.  Rows 2-7 pass the
    # per-field checks and are caught by building the renewal law (validate
    # builds it) or by growth_check on an empty grid; the rest are non-finite numbers
    # (json.dumps writes NaN and Infinity), deltas outside [0, 1/2), size
    # lists that do not strictly increase, a second k where one is read and a
    # subordinator run with one replica (its z-scores need a spread)
    bad = [
        {"experiment": "renewal-asymptotics", "n_eval": 2, "n_max": 2000},
        {"experiment": "renewal-asymptotics", "n_eval": 5, "n_max": 20},  # tail budget
        {"experiment": "renewal-asymptotics", "n_eval": 4, "n_max": 6},  # n_max < 10
        {"experiment": "renewal-asymptotics", "n_eval": 100, "n_max": 2000, "rho": 5},
        {"experiment": "concentration", "N_list": [16], "n_max": 16},  # tail budget
        {"experiment": "concentration", "h": 800},  # the tilt underflows
        {"experiment": "subordinator-growth", "t_points": 0},  # empty grid
        dict(_CONV, beta_hat=math.nan),
        dict(_CONV, beta_hat=math.inf),
        {"experiment": "threshold-pinning", "k_list": [8], "replicas": 2, "c": math.nan},
        {"experiment": "threshold-pinning", "k_list": [8], "replicas": 2, "c": math.inf},
        {"experiment": "subordinator-growth", "k_list": [64], "replicas": 2, "q": math.nan},
        {"experiment": "subordinator-growth", "k_list": [64], "replicas": 2, "q": math.inf},
        "experiment = threshold-pinning\nk_list = 8\nreplicas = 2\nc = nan\n",
        {"experiment": "concentration", "N_list": [16, 32], "n_samples": 10, "delta": -1},
        {"experiment": "concentration", "N_list": [16, 32], "n_samples": 10, "delta": 0.5},
        {"experiment": "concentration", "N_list": [16, 32], "n_samples": 10, "delta": math.nan},
        {"experiment": "concentration", "N_list": [16, 16, 16], "n_samples": 10},
        {"experiment": "concentration", "N_list": [32, 16], "n_samples": 10},
        dict(_CONV, k_list=[8, 64]),
        {"experiment": "subordinator-growth", "k_list": [64, 128], "replicas": 2},
        {"experiment": "subordinator-growth", "k_list": [64], "replicas": 1},
    ]
    for i, data in enumerate(bad):
        path = tmp_path / f"bad{i}.json"
        out = str(tmp_path / f"out{i}")
        if isinstance(data, str):
            path.write_text(f"{data}out_dir = {out}\n")
        else:
            path.write_text(json.dumps(dict(data, out_dir=out)))
        assert main(["validate", "--config", str(path)]) == 2, data
        assert main(["run", "--config", str(path)]) == 2, data
        assert not (tmp_path / f"out{i}").exists(), data


@pytest.mark.parametrize("data", [{"alpha": 0.01}, {"q": 1e300}], ids=["alpha", "q"])
def test_growth_envelope_that_underflows_or_overflows_exits_2(tmp_path, data):
    # t^(1/alpha) underflows to 0 at t_lo = 1e-4 when alpha = 0.01, and
    # log^(q/alpha)(1/t) overflows when q = 1e300; either would fill the cells
    # with nan or 0.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(data, experiment="subordinator-growth",
                                    out_dir=str(tmp_path / "out"))))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data", [
    {"experiment": "threshold-pinning", "k_list": [8, 512], "replicas": 2},
    {"experiment": "convergence", "N_list": [64], "k_list": [64], "replicas": 2},
    {"experiment": "threshold-polymer", "k_list": [32], "replicas": 2},
], ids=["threshold-pinning", "convergence", "threshold-polymer"])
@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_weights_that_underflow_exit_2(tmp_path, capsys, data):
    # at alpha = 1e-3 the weights T^(-1/alpha) underflow to 0 once T > 2.1;
    # validate cannot see the random T, so the run stops with a config error
    # that names alpha (convergence is caught earlier, by validate: its scale
    # N^(1/alpha) overflows).  alpha = 0.01 runs.
    for alpha, code in ((1e-3, 2), (0.01, 0)):
        path = tmp_path / f"cfg{alpha}.json"
        path.write_text(json.dumps(dict(data, alpha=alpha, out_dir=str(tmp_path / "out"))))
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == code, alpha
        err = capsys.readouterr().err
        assert ("config error: alpha = 0.001 is too small" in err) == (code == 2), err
        assert "Traceback" not in err


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("data, undefined", [
    # no draw exceeds delta, so log p is constant and the fit has no error term
    ({"experiment": "concentration", "N_list": [8, 16, 32], "n_samples": 5, "n_max": 2000,
      "delta": 0.49}, [("stderr",), ("slope_ci95", 0), ("slope_ci95", 1)]),
    # a proper law has no limit 1/K_inf^2
    ({"experiment": "renewal-asymptotics", "k_inf": 0.0, "n_eval": 50, "n_max": 2000},
     [("u_over_K_target",), ("u_over_K_rel_err",)]),
    # 1/K_inf^2 overflows (K_inf^2 subnormal) or divides by zero (K_inf^2 underflows)
    ({"experiment": "renewal-asymptotics", "k_inf": 1e-160, "n_eval": 50, "n_max": 2000},
     [("u_over_K_target",), ("u_over_K_rel_err",)]),
    ({"experiment": "renewal-asymptotics", "k_inf": 1e-170, "n_eval": 50, "n_max": 2000},
     [("u_over_K_target",), ("u_over_K_rel_err",)]),
    # one mark, never within t_hi of an end: both 95th percentiles are 0
    ({"experiment": "subordinator-growth", "k_list": [1], "replicas": 2},
     [("refinement_ratio",)]),
], ids=["concentration", "renewal-proper", "renewal-1e-160", "renewal-1e-170",
        "subordinator-growth"])
def test_undefined_summary_values_are_json_null(tmp_path, capsys, data, undefined):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(data, out_dir=str(tmp_path / "out"))))
    assert main(["run", "--config", str(cfg)]) == 0
    printed = _strict_json(capsys.readouterr().out)
    (summary_file,) = (tmp_path / "out" / data["experiment"]).glob("*/summary.json")
    written = _strict_json(summary_file.read_text())["summary"]
    for summary in (printed, written):
        for path in undefined:
            value = summary
            for key in path:
                value = value[key]
            assert value is None, path


def test_signed_zeros_share_one_directory(tmp_path):
    # json.dumps writes -0.0 apart from 0.0; the config holds +0.0 for both,
    # so a run at rho = -0.0 reuses the cells of the run at rho = 0.0
    base = dict(experiment="renewal-asymptotics", n_eval=50, n_max=2000, out_dir=str(tmp_path))
    want = run_experiment(ExperimentConfig(**base, rho=0.0)).cells
    for cfg in (ExperimentConfig(**base, rho=-0.0),
                config_from_mapping(dict(base, rho=-0.0)),
                parse_config_text(json.dumps(dict(base, rho=-0.0))),
                parse_config_text("".join(f"{k} = {v}\n" for k, v in base.items()) + "rho = -0.0\n")):
        assert math.copysign(1.0, cfg.rho) == 1.0
        assert run_experiment(cfg).cells == want
    assert len(list((tmp_path / "renewal-asymptotics").iterdir())) == 1


@pytest.mark.parametrize("field", [
    key for key, kind in typing.get_type_hints(ExperimentConfig).items() if kind is float])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_direct_config_rejects_non_finite_floats(tmp_path, field, value):
    cfg = ExperimentConfig(experiment="concentration", out_dir=str(tmp_path / "out"),
                           **{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        cfg.with_defaults().validate()
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


class _Reads:
    """A config that records the names of the fields read from it."""

    def __init__(self, cfg):
        self._cfg, self.names = cfg, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._cfg, name)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_spec_keys_are_the_fields_read(name):
    # _SMALL reaches every branch that reads the config: three sizes give
    # the concentration slope fit and the threshold changes between sizes
    spec = harness.SPECS[name]
    cfg = _Reads(ExperimentConfig(experiment=name, seed=1, **_SMALL[name]).with_defaults())
    tables = [{h: np.asarray(col, dtype=float) for h, col in zip(cell.header, cell.compute())}
              for cell in spec.cells(cfg)]
    spec.summarize(cfg, tables)
    assert cfg.names - {"experiment", "seed", "out_dir"} == set(spec.keys)


def _changed(value):
    """A value of value's type that differs from it."""
    if isinstance(value, tuple):
        return (*value, 2 * value[-1]) if value else (16,)
    return value + (1 if isinstance(value, int) else 0.25)


_UNREAD = [
    (name, key, _changed(getattr(ExperimentConfig(name).with_defaults(), key)))
    for name in EXPERIMENTS for key in typing.get_type_hints(ExperimentConfig)
    if key not in (*harness.SPECS[name].keys, "experiment", "seed", "out_dir")
] + [("threshold-pinning", "h", 0.7)]  # once keyed apart from h = 0.5 with the same cells


@pytest.mark.parametrize("name, key, value", _UNREAD)
def test_unread_field_exits_2(tmp_path, name, key, value):
    out = tmp_path / "out"
    cfg = ExperimentConfig(experiment=name, out_dir=str(out), **{key: value})
    for call in (lambda: cfg.with_defaults().validate(), lambda: run_experiment(cfg)):
        with pytest.raises(ConfigError, match=f"{name} does not read {key}"):
            call()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": name, key: value, "out_dir": str(out)}))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path)]) == 2
    assert not out.exists()


#: each experiment at its smallest accepted replica count and a single size
_LEAST = {
    "convergence": dict(N_list=(16,), k_list=(16,), replicas=1),
    "concentration": dict(N_list=(16,), n_samples=1, n_max=2000),
    "threshold-pinning": dict(k_list=(8,), replicas=1),
    "threshold-polymer": dict(k_list=(4,), replicas=1),
    "renewal-asymptotics": dict(n_eval=3, n_max=2000),
    "subordinator-growth": dict(k_list=(64,), replicas=2, t_points=10),
}


@pytest.mark.parametrize("configs", [_SMALL, _LEAST], ids=["small", "least"])
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_runs_raise_no_warning(tmp_path, name, configs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_experiment(ExperimentConfig(experiment=name, seed=1, out_dir=str(tmp_path),
                                        **configs[name]))


def test_threshold_pinning_scales_with_the_entropy_constant(tmp_path):
    # every chain's ratio c * (entropy) / weight doubles exactly at c = 2
    base = ExperimentConfig(experiment="threshold-pinning", k_list=(8, 16, 64),
                            replicas=10, seed=5, out_dir=str(tmp_path))
    unit = run_experiment(base)
    twice = run_experiment(dataclasses.replace(base, c=2.0))
    for a, b in zip(unit.cells, twice.cells, strict=True):
        beta_1 = np.loadtxt(a, delimiter=",", skiprows=1)[:, 2]
        beta_2 = np.loadtxt(b, delimiter=",", skiprows=1)[:, 2]
        assert np.array_equal(beta_2, 2.0 * beta_1)


def test_convergence_uses_the_entropy_constant(tmp_path):
    cfg = ExperimentConfig(experiment="convergence", N_list=(16, 64), k_list=(32,),
                           replicas=20, c=3.0, seed=2, out_dir=str(tmp_path))
    rep = run_experiment(cfg)
    law = DisorderLaw(cfg.alpha)
    for N, path in zip(cfg.N_list, rep.cells, strict=True):
        got = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
        for r in range(cfg.replicas):
            T, Y = draw_base(BUFFER_MIN, substream(cfg.seed, "convergence", r))
            ref = solve_dp(EnergyLandscape.from_marks(
                Y[:32], T[:32] ** (-1.0 / cfg.alpha), cfg.beta_hat, cfg.gamma, 3.0)).maximizer
            d = couple(law, T, Y, N)
            want = solve_dp(EnergyLandscape.from_marks(
                d.Y_disc, d.M_disc, cfg.beta_hat, cfg.gamma, 3.0)).maximizer
            assert got[r] == hausdorff(want, ref)
    unit = run_experiment(dataclasses.replace(cfg, c=1.0))
    assert _cell_bytes(unit) != _cell_bytes(rep)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_flat_config_values_take_the_annotated_type(field):
    base = ExperimentConfig(experiment="convergence").with_defaults()
    value = getattr(base, field)
    text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
    cfg = parse_config_text(f"experiment = convergence\n{field} = {text}\n")
    got = getattr(cfg, field)
    assert got == value
    kind = typing.get_type_hints(ExperimentConfig)[field]
    if typing.get_origin(kind) is tuple:
        assert type(got) is tuple and all(type(v) is typing.get_args(kind)[0] for v in got)
    else:
        assert type(got) is kind
    if int in (kind, *typing.get_args(kind)):
        with pytest.raises(ConfigError, match=field):
            parse_config_text(f"experiment = convergence\n{field} = 1.5\n")


def test_fresh_renewal_run_builds_the_law_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_law(*args, **kwargs)

    monkeypatch.setattr(harness, "build_law", counting)
    # parameters no other test uses, so no law built earlier can be reused
    cfg = config_from_mapping({"experiment": "renewal-asymptotics", "gamma": 0.4375,
                               "n_eval": 50, "n_max": 3000, "out_dir": str(tmp_path)})
    run_experiment(cfg)
    assert len(calls) == 1


def test_failed_summary_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    real_replace = os.replace

    def failing(src, dst):
        if os.path.basename(dst) == "summary.json":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", failing)
    cfg = ExperimentConfig(experiment="renewal-asymptotics", n_eval=50, n_max=2000,
                           out_dir=str(tmp_path))
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg)
    (run_dir,) = (tmp_path / "renewal-asymptotics").iterdir()
    assert sorted(p.name for p in run_dir.iterdir()) == ["renewal_asymptotics.csv"]


def test_concentration_reference_uses_the_entropy_constant(tmp_path, monkeypatch):
    # the Gibbs exponent is N^gamma (beta_hat pi(I) - c E(I)), so the favorite
    # set must maximize the variational energy with c_entropy = c
    refs = []
    real = harness.concentration_probability

    def capturing(model, ref, *args):
        refs.append(ref)
        return real(model, ref, *args)

    monkeypatch.setattr(harness, "concentration_probability", capturing)
    cfg = ExperimentConfig(experiment="concentration", N_list=(16, 32), n_samples=10,
                           n_max=2000, c=3.0, seed=1, out_dir=str(tmp_path))
    run_experiment(cfg)
    T, Y = draw_base(max(32, BUFFER_MIN), substream(1, "concentration", "disorder"))
    for N, ref in zip(cfg.N_list, refs, strict=True):
        d = couple(DisorderLaw(cfg.alpha), T, Y, N)
        want, unit = (solve_dp(EnergyLandscape.from_marks(
            d.Y_disc, d.M_disc, cfg.beta_hat, cfg.gamma, c)).maximizer for c in (3.0, 1.0))
        assert not np.array_equal(want.points, unit.points)  # the constant matters here
        assert np.array_equal(ref.points, want.points)


def test_gibbs_sample_serialization_contract(tmp_path):
    # harness-facing samples serialize as JSON arrays of integer indices
    from pinlab.gibbs import GibbsSample

    s = GibbsSample(indices=(0, 2, 5, 8), N=8)
    assert json.loads(json.dumps(list(s.indices))) == [0, 2, 5, 8]


@pytest.mark.parametrize("data", [
    {"replicas": 3.7},
    {"N_list": [16.9, 32]},
    {"beta_hat": True},
    {"replicas": True},
])
def test_non_integral_and_boolean_numbers_are_rejected(tmp_path, data):
    data = dict(data, experiment="convergence", out_dir=str(tmp_path / "out"))
    key = next(iter(data))
    with pytest.raises(ConfigError, match=key):
        config_from_mapping(data)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_integral_floats_and_numeric_strings_are_accepted():
    cfg = config_from_mapping({"experiment": "convergence", "replicas": 3.0,
                               "N_list": [16.0, "32"], "seed": "7", "beta_hat": 2})
    assert (cfg.replicas, cfg.N_list, cfg.seed, cfg.beta_hat) == (3, (16, 32), 7, 2.0)
    assert type(cfg.replicas) is int and type(cfg.beta_hat) is float


def test_run_path_loads_no_scipy(tmp_path):
    # a fresh interpreter: validate every experiment and run three small ones,
    # covering the median intervals, the slope fit and the renewal tail bound
    code = f"""
import sys
from pinlab.harness import EXPERIMENTS, config_from_mapping, run_experiment
for name in EXPERIMENTS:
    config_from_mapping({{"experiment": name}})
runs = [
    {{"experiment": "concentration", "N_list": [16, 24, 32], "n_samples": 20,
      "n_max": 2000}},
    {{"experiment": "convergence", "N_list": [16, 32], "k_list": [8], "replicas": 5}},
    {{"experiment": "renewal-asymptotics", "n_eval": 50, "n_max": 2000}},
]
for i, data in enumerate(runs):
    run_experiment(config_from_mapping(dict(data, out_dir={str(tmp_path)!r} + f"/run{{i}}")))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pinlab.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    assert len(list(tmp_path.glob("run*/*/*/summary.json"))) == 3


@pytest.mark.parametrize("level", [0.95, 0.9, 0.99])
def test_binomial_quantile_matches_scipy_up_to_400(level):
    for q in ((1 - level) / 2, 1 - (1 - level) / 2):
        got = [harness._binom_half_ppf(q, n) for n in range(1, 401)]
        assert got == stats.binom.ppf(q, np.arange(1, 401), 0.5).tolist()


@given(n=st.integers(1, 5000), level=st.sampled_from([0.95, 0.9, 0.99, 0.5]))
def test_binomial_quantile_matches_scipy(n, level):
    for q in ((1 - level) / 2, 1 - (1 - level) / 2):
        assert harness._binom_half_ppf(q, n) == stats.binom.ppf(q, n, 0.5)


_finite = st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=False)


@given(st.lists(st.tuples(st.floats(0.5, 200.0), _finite), min_size=3, max_size=12,
                unique_by=lambda p: p[0]))
def test_slope_fit_matches_linregress_bitwise(points):
    x, y = (np.array(v) for v in zip(*points))
    fit = stats.linregress(x, y)
    slope, stderr = harness._slope_fit(x, y)
    assert np.array_equal([slope, stderr], [fit.slope, fit.stderr], equal_nan=True)


def test_slope_fit_matches_linregress_on_constant_and_collinear_data():
    x = np.array([16.0, 32.0, 64.0]) ** 0.5
    for y in (np.full(3, np.log(0.5 / 200)), 3.0 - 0.25 * x):
        fit = stats.linregress(x, y)
        assert np.array_equal(harness._slope_fit(x, y), [fit.slope, fit.stderr], equal_nan=True)


def test_t_quantiles_match_scipy_bitwise():
    assert len(harness._T975) == 30
    for df in range(1, 41):
        assert harness._t975(df) == stats.t.ppf(0.975, df), df
