"""Examples smoke test: the runnable walkthroughs must actually run.

Executes selected ``examples/`` scripts in-process against hermetic
cache/model-store directories and pins their printed answers line by
line.  Only the fast, smoke-sized examples belong here; the
simulation-heavy walkthroughs are exercised through the experiment
modules they share code with.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def hermetic_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_MODEL_STORE_DIR", str(tmp_path / "models"))
    return tmp_path


def test_two_stage_estimate_example(hermetic_dirs, capsys):
    module = _load("two_stage_estimate")
    module.main()
    out = capsys.readouterr().out
    assert "two-stage: analytic screen -> badco refine" in out
    assert "budget accounting:" in out
    assert "refined 12" in out  # round(0.2 * 60)


def test_full_scale_estimate_example(hermetic_dirs, capsys):
    module = _load("full_scale_estimate")
    module.main()
    out = capsys.readouterr().out
    # The walkthrough's three acts: cold pipeline, warm zero-training
    # reuse, and a pair with an actual verdict.
    assert "population frame" in out
    assert "training runs: 0" in out
    assert "bit-identical 1/cv: True" in out
    assert "RND vs LRU" in out


def test_new_policy_ship_example(hermetic_dirs, capsys):
    module = _load("new_policy_ship")
    module.main()
    out = capsys.readouterr().out
    assert "guideline: declare-equivalent" in out
    # Exact verdicts: the strata come from study.delta_column.
    assert "            random: 0.302" in out
    assert "   workload-strata: 0.352" in out


@pytest.fixture(scope="module")
def shared_dirs(tmp_path_factory):
    """One hermetic cache and model store shared by the walkthroughs
    below, which all score the same 2-core SMALL BADCO population."""
    base = tmp_path_factory.mktemp("examples")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(base / "cache"))
        patch.setenv("REPRO_MODEL_STORE_DIR", str(base / "models"))
        yield base


def test_sample_size_planning_example(shared_dirs, capsys):
    _load("sample_size_planning").main()
    lines = capsys.readouterr().out.splitlines()
    assert "     LRU>RND      81      43      71" in lines
    assert "     LRU>DIP      91      75      82" in lines
    assert "   LRU>DRRIP     399     213     563" in lines
    assert "   DIP>DRRIP     128     145     149" in lines
    assert "   LRU>DRRIP     563      2553.3" in lines


def test_sampling_method_comparison_example(shared_dirs, capsys):
    _load("sampling_method_comparison").main()
    lines = capsys.readouterr().out.splitlines()
    assert ("    W            random      bench-strata   workload-strata"
            in lines)
    assert "    5             0.144             0.214             0.020" \
        in lines
    assert "   10             0.126             0.102             0.000" \
        in lines
    assert "   40             0.004             0.000             0.000" \
        in lines


def test_replacement_policy_study_example(shared_dirs, capsys):
    _load("replacement_policy_study").main()
    lines = capsys.readouterr().out.splitlines()
    assert "  1/cv = -0.460  ->  workload-stratification" in lines
    assert "Detailed-simulation verdict on D = mean d(w): -0.00162" in lines
    assert ("=> NRU does not outperform LRU (judged on 12 detailed "
            "workloads instead of 60).") in lines
    # 12 workloads x 2 policies plus 22 reference IPCs.
    assert any(line.startswith("   detailed simulations: 46 (1 M uops at ")
               for line in lines)
