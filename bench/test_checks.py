"""Tests that the benchmark's correctness checks accept genuine outputs and
reject corrupted ones.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/test_checks.py
"""

import numpy as np
import pytest

import checks
from attnga import cli, metabbo
from attnga.bbob import TaskSpec
from attnga.params import FeatureConfig, LgaParams

TASKS = [("sphere", 3), ("rastrigin", 2), ("mlp-sine", None)]
ALGOS = ["gaussian", "mr15"]
N_POP, GENERATIONS, RHO, SIGMA0, SEED, REPS = 8, 6, 0.5, 0.25, 3, 2


@pytest.fixture(scope="module")
def genuine_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval") / "eval.csv"
    rc = cli.main(["evaluate", "--tasks", "sphere:3,rastrigin:2,mlp-sine",
                   "--algorithms", ",".join(ALGOS), "--n-pop", str(N_POP),
                   "--generations", str(GENERATIONS), "--rho", str(RHO),
                   "--sigma0", str(SIGMA0), "--repetitions", str(REPS),
                   "--seed", str(SEED), "--out", str(out)])
    assert rc == 0
    return out.read_text()


def _check_csv(text):
    return checks.check_evaluate_csv(text, TASKS, ALGOS, REPS, N_POP,
                                     GENERATIONS, RHO, SIGMA0, SEED)


def test_genuine_csv_passes(genuine_csv):
    assert _check_csv(genuine_csv) == []


def _replace_field(text, row, col, value):
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt, message", [
    (lambda t: _replace_field(t, 1, 3, repr(float(t.splitlines()[1]
                                                  .split(",")[3]) * 1.001)),
     "reference"),
    (lambda t: _replace_field(t, 2, 4, "0.5"), "normalized"),
    (lambda t: _replace_field(t, 3, 1, "samr"), "is not"),
    (lambda t: _replace_field(t, 4, 3, "nan"), "finite"),
    (lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "rows, expected"),
    (lambda t: t.replace("best_final", "best"), "header"),
    (lambda t: t[:len(t) // 2], "rows, expected"),
], ids=["wrong-gaussian-score", "wrong-normalized", "wrong-algo",
        "nan-score", "missing-row", "bad-header", "truncated"])
def test_corrupted_csv_is_rejected(genuine_csv, corrupt, message):
    failures = _check_csv(corrupt(genuine_csv))
    assert any(message in f for f in failures), failures


def _captured_sweeps():
    cfg = FeatureConfig()
    rng = np.random.default_rng(5)
    theta = (0.1 * rng.standard_normal((4, LgaParams.zeros().n_params))
             ).astype(np.float32)
    task = TaskSpec(function="sphere", dim=2, offset=np.array([1.0, -2.0]),
                    sigma0=0.2)
    seed = [5, 0, 0x1AEA, 0]
    scores = metabbo.evaluate_candidates_on_task(theta, cfg, task, seed, 8,
                                                 6, "minN-finalT")
    return [(theta, task, seed, scores)]


def _check_sweeps(sweeps):
    return checks.check_sweeps(sweeps, FeatureConfig(), 8, 6, "minN-finalT",
                               np.random.default_rng(0))


def test_genuine_sweep_passes():
    assert _check_sweeps(_captured_sweeps()) == []


@pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
def test_captured_score_out_of_range_is_rejected(bad):
    sweeps = _captured_sweeps()
    sweeps[0][3][2] = bad
    assert _check_sweeps(sweeps) != []


def test_sweep_returning_a_wrong_score_is_rejected(monkeypatch):
    sweeps = _captured_sweeps()
    original = metabbo.evaluate_candidates_on_task

    def off_by_one_ulp(*args):
        return np.nextafter(original(*args), np.inf)

    monkeypatch.setattr(metabbo, "evaluate_candidates_on_task",
                        off_by_one_ulp)
    assert any("engine.run" in f for f in _check_sweeps(sweeps))


def test_duplicates_scoring_differently_are_rejected(monkeypatch):
    sweeps = _captured_sweeps()
    original = metabbo.evaluate_candidates_on_task

    def row_dependent(theta, *args):
        scores = original(theta, *args)
        return scores + np.arange(scores.size) * (theta.shape[0] > 1)

    monkeypatch.setattr(metabbo, "evaluate_candidates_on_task",
                        row_dependent)
    assert any("duplicated" in f for f in _check_sweeps(sweeps))


def test_sweep_mixing_candidate_rows_is_rejected(monkeypatch):
    original = metabbo.evaluate_candidates_on_task

    def row_mixing(theta, *args):
        # Leaves M=1 alone and gives duplicated rows the same score, but
        # every row's score depends on which candidate is in row 0.
        scores = original(theta, *args)
        return scores + scores[0] * (theta.shape[0] > 1)

    monkeypatch.setattr(metabbo, "evaluate_candidates_on_task", row_mixing)
    failures = _check_sweeps(_captured_sweeps())
    assert failures and all("permuted" in f for f in failures), failures
