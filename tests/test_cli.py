import json
import math

import pytest

from smalltime.cli import (ConfigError, RunConfig, list_catalog, load_config,
                           main, run)


def _write_cfg(tmp_path, text):
    f = tmp_path / "exp.cfg"
    f.write_text(text)
    return str(f)


# -------------------------------------------------------------- configuration

def test_load_config_with_overrides(tmp_path):
    cfg_file = _write_cfg(tmp_path, """
# moment check
experiment = moment
lam = 0.4
paths = 1000
""")
    cfg = load_config(cfg_file, ["--lam=0.45", "--steps=50"])
    assert cfg.experiment == "moment"
    assert cfg.params["lam"] == 0.45
    assert cfg.params["steps"] == 50
    assert cfg.params["paths"] == 1000
    assert cfg.seed == 20240  # default


def test_unknown_key_is_named(tmp_path):
    cfg_file = _write_cfg(tmp_path, "experiment = moment\nthetaa = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg_file, [])
    assert "thetaa" in str(err.value)
    assert err.value.key == "thetaa"


def test_unknown_experiment_and_missing_experiment(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path, "experiment = nope\n"), [])
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path, "lam = 0.5\n"), [])


def test_bad_value_type(tmp_path):
    cfg_file = _write_cfg(tmp_path, "experiment = moment\npaths = many\n")
    with pytest.raises(ConfigError):
        load_config(cfg_file, [])


def test_float_list_and_inf_parsing(tmp_path):
    cfg_file = _write_cfg(tmp_path,
                          "experiment = tail-bound\nalphas = 0.5, 1, 2\n")
    cfg = load_config(cfg_file, [])
    assert cfg.params["alphas"] == [0.5, 1.0, 2.0]
    cfg2 = load_config(_write_cfg(tmp_path, "experiment = dpe-price\nupper = inf\n"), [])
    assert math.isinf(cfg2.params["upper"])


def _assert_size_key_rejected(tmp_path, capsys, experiment, key, value):
    args = [f"--experiment={experiment}", f"--{key}={value}",
            f"--out={tmp_path}/never"]
    with pytest.raises(ConfigError) as err:
        load_config(None, args)
    assert err.value.key == key
    for command in ("run", "validate-config"):
        assert main([command] + args) == 2
        assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_paths_below_one_is_a_config_error(tmp_path, capsys):
    _assert_size_key_rejected(tmp_path, capsys, "moment", "paths", 0)


def test_chunk_below_one_is_a_config_error(tmp_path, capsys):
    _assert_size_key_rejected(tmp_path, capsys, "tail-bound", "chunk", 0)


def test_nx_below_sixteen_is_a_config_error(tmp_path, capsys):
    _assert_size_key_rejected(tmp_path, capsys, "dpe-price", "nx", 8)
    cfg = load_config(None, ["--experiment=dpe-price", "--nx=16"])
    assert cfg.params["nx"] == 16


def test_cli_import_leaves_scipy_stats_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import smalltime
    env = dict(os.environ, PYTHONPATH=str(Path(smalltime.__file__).parents[1]))
    code = "import sys, smalltime.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"


# --------------------------------------------------------------------- runs

def test_moment_run_writes_summary_and_checks(tmp_path):
    cfg = load_config(None, ["--experiment=moment", "--paths=5000",
                             "--steps=50", f"--out={tmp_path}/m"])
    status = run(cfg)
    assert status == 0
    summary = json.loads((tmp_path / "m" / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["references"]["closed_form"] == pytest.approx(1.10136, abs=5e-5)
    z = summary["checks"]["mc_within_tolerance"]["z"]
    assert abs(z) <= 3.0
    assert (tmp_path / "m" / "moment.csv").exists()
    assert "config_hash" in summary and "version" in summary


def test_rerun_artifacts_byte_identical_across_workers(tmp_path):
    base = ["--experiment=moment", "--paths=4000", "--steps=40", "--chunk=1000"]
    run(load_config(None, base + [f"--out={tmp_path}/a", "--workers=1"]))
    run(load_config(None, base + [f"--out={tmp_path}/b", "--workers=3"]))
    for name in ("summary.json", "moment.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_dpe_price_run_matches_bs(tmp_path):
    cfg = load_config(None, ["--experiment=dpe-price", f"--out={tmp_path}/d",
                             "--nx=200"])
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "d" / "summary.json").read_text())
    assert summary["checks"]["matches_bs"]["pass"] is True
    assert (tmp_path / "d" / "surface.csv").exists()


def test_failing_check_exits_one(tmp_path):
    # an absurdly tight tolerance forces the BS check to fail
    cfg = load_config(None, ["--experiment=dpe-price", f"--out={tmp_path}/f",
                             "--nx=200", "--bs_tol=1e-12"])
    assert run(cfg) == 1
    summary = json.loads((tmp_path / "f" / "summary.json").read_text())
    assert summary["pass"] is False


def test_main_exit_codes(tmp_path, capsys):
    assert main(["run", "--experiment=moment", "--paths=2000", "--steps=20",
                 f"--out={tmp_path}/x"]) == 0
    assert main(["run", "--experiment=moment", "--thetaa=1",
                 f"--out={tmp_path}/y"]) == 2
    err = capsys.readouterr().err
    assert "thetaa" in err


def test_validate_config_command(tmp_path, capsys):
    cfg_file = _write_cfg(tmp_path, "experiment = ergodic\nlevels = 10\n")
    assert main(["validate-config", "--config", cfg_file]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out and "levels = 10" in out
    assert main(["validate-config", "--config", cfg_file, "--levls=3"]) == 2


# ------------------------------------------------------------------- catalog

def test_list_catalog_contents_and_stability(capsys):
    listing = list_catalog()
    assert listing == list_catalog()  # stable
    lines = listing.splitlines()
    assert lines == sorted(lines, key=lambda s: (not s.startswith("integrand"), s))
    assert any(line.startswith("integrand example36") and "anomalous" in line
               for line in lines)
    assert any(line.startswith("integrand identity") and "exponential-moment" in line
               for line in lines)
    assert main(["list-catalog"]) == 0
    assert "example36" in capsys.readouterr().out


def test_default_out_uses_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SMALLTIME_OUT", str(tmp_path / "envroot"))
    cfg = load_config(None, ["--experiment=bs-price"])
    assert cfg.out == str(tmp_path / "envroot" / "bs-price")
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "envroot" / "bs-price" / "summary.json").read_text())
    assert summary["results"]["price"] == pytest.approx(7.9656, abs=5e-4)
