"""Unit tests for the command-line front end."""

import argparse
import csv

import numpy as np
import pytest

from attnga import cli
from attnga import operators as ops
from attnga.params import FeatureConfig, LgaParams


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "params.txt"
    LgaParams.random(FeatureConfig(), np.random.default_rng(70)).save(path)
    return str(path)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_task_list():
    assert cli.parse_task_list("sphere:20, rastrigin:10,mlp-sine") == [
        ("sphere", 20), ("rastrigin", 10), ("mlp-sine", None)]
    with pytest.raises(ValueError):
        cli.parse_task_list(" , ")


def test_evaluate_writes_normalized_csv(tmp_path):
    out = tmp_path / "eval.csv"
    rc = cli.main(["evaluate", "--tasks", "sphere:3",
                   "--algorithms", "gaussian,mr15", "--n-pop", "8",
                   "--generations", "10", "--repetitions", "3",
                   "--seed", "4", "--out", str(out)])
    assert rc == 0
    rows = _read(out)
    assert rows[0] == ["task", "algo", "seed", "best_final", "normalized"]
    assert len(rows) == 1 + 2 * 3
    gaussian = {int(r[2]): float(r[3]) for r in rows[1:]
                if r[1] == "gaussian"}
    denom = np.mean(list(gaussian.values()))
    for r in rows[1:]:
        assert r[0] == "sphere:3"
        np.testing.assert_allclose(float(r[4]), float(r[3]) / denom)


def test_evaluate_lga_requires_checkpoint(tmp_path, capsys):
    rc = cli.main(["evaluate", "--tasks", "sphere:2", "--algorithms", "lga",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err


def test_evaluate_with_lga_checkpoint(tmp_path, checkpoint):
    out = tmp_path / "eval.csv"
    rc = cli.main(["evaluate", "--tasks", "sphere:2", "--algorithms", "lga",
                   "--checkpoint", checkpoint, "--n-pop", "8",
                   "--generations", "5", "--repetitions", "2",
                   "--out", str(out)])
    assert rc == 0
    rows = _read(out)
    assert [r[1] for r in rows[1:]] == ["lga", "lga"]


def test_sweep_covers_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--tasks", "sphere:2", "--algorithms",
                   "gaussian", "--rho-grid", "0.25,1.0", "--sigma0-grid",
                   "0.1,0.5", "--n-pop", "6", "--generations", "5",
                   "--repetitions", "2", "--out", str(out)])
    assert rc == 0
    rows = _read(out)
    assert rows[0] == ["task", "algo", "rho", "sigma0", "seed", "best_final"]
    combos = {(r[2], r[3], r[4]) for r in rows[1:]}
    assert len(rows) == 1 + 2 * 2 * 2 and len(combos) == 8


def test_transfer_covers_compositions(tmp_path, checkpoint):
    out = tmp_path / "transfer.csv"
    rc = cli.main(["transfer", "--tasks", "sphere:2", "--checkpoint",
                   checkpoint, "--n-pop", "6", "--generations", "5",
                   "--repetitions", "1", "--out", str(out)])
    assert rc == 0
    rows = _read(out)
    assert rows[0] == ["task", "selection", "mra", "seed", "best_final"]
    assert {(r[1], r[2]) for r in rows[1:]} \
        == set(cli.TRANSFER_COMPOSITIONS)


def test_analyze_prints_the_folded_operators(tmp_path, checkpoint, capsys):
    out = tmp_path / "analyze.csv"
    argv = ["analyze", "--tasks", "sphere:2", "--checkpoint", checkpoint,
            "--n-pop", "4", "--rho", "0.5", "--generations", "2"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if not line.startswith(" ")] == [
        "selection A[0] (3x3):", "selection B (3x3):", "mra A'[0] (5x5):",
        "mra u^T (1x5):"]
    numbers = [float(v) for line in printed if line.startswith(" ")
               for v in line.split()]
    params = LgaParams.load(checkpoint)
    sel = ops.fold(params.weights, "sel")
    mra = ops.fold(params.weights, "mra")
    expected = np.concatenate([sel.forms[0].ravel(), sel.value.ravel(),
                               mra.forms[0].ravel(), mra.value.ravel()])
    assert len(numbers) == 48
    np.testing.assert_allclose(numbers, expected, rtol=1e-4)
    assert _read(out)[0][:4] == ["kind", "generation", "parent", "child"]


def test_analyze_dumps_operator_internals(tmp_path, checkpoint):
    out = tmp_path / "analyze.csv"
    rc = cli.main(["analyze", "--tasks", "sphere:2", "--checkpoint",
                   checkpoint, "--n-pop", "4", "--rho", "0.5",
                   "--generations", "3", "--out", str(out)])
    assert rc == 0
    rows = _read(out)
    assert rows[0][:4] == ["kind", "generation", "parent", "child"]
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"selection", "mra"}
    sel = [r for r in rows[1:] if r[0] == "selection"]
    # 3 generations x 2 parents x (4 children + keep slot).
    assert len(sel) == 3 * 2 * 5
    keep = [r for r in sel if r[3] == "4"]
    for r in keep:
        assert r[4] == "" and float(r[8]) > 0.0
    # Probabilities per (generation, parent) sum to one.
    probs = {}
    for r in sel:
        probs.setdefault((r[1], r[2]), []).append(float(r[8]))
    for values in probs.values():
        np.testing.assert_allclose(sum(values), 1.0, atol=1e-9)


def test_worker_count_does_not_change_output(tmp_path):
    args = ["evaluate", "--tasks", "sphere:2,rastrigin:3",
            "--algorithms", "gaussian,samr", "--n-pop", "6",
            "--generations", "5", "--repetitions", "2", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--workers", "1", "--out", str(a)]) == 0
    assert cli.main(args + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    ini = tmp_path / "conf.ini"
    ini.write_text("[evaluate]\nn_pop = 6\ngenerations = 4\n"
                   "algorithms = gaussian\ntasks = sphere:2\n"
                   "repetitions = 2\n")
    out = tmp_path / "out.csv"
    rc = cli.main(["evaluate", "--config", str(ini), "--repetitions", "1",
                   "--out", str(out)])
    assert rc == 0
    rows = _read(out)
    assert len(rows) == 1 + 1          # flag overrode the file's repetitions


def test_config_file_errors(tmp_path, capsys):
    assert cli.main(["evaluate", "--config",
                     str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[evaluate]\nnot_a_key = 1\n")
    assert cli.main(["evaluate", "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    bad.write_text("[evaluate]\nn_pop = eight\n")
    assert cli.main(["evaluate", "--config", str(bad)]) == 2
    assert "config key 'n_pop' in [evaluate]: invalid literal" in \
        capsys.readouterr().err


@pytest.mark.parametrize("mode", ["evaluate", "sweep", "transfer"])
@pytest.mark.parametrize("reps", ["0", "-2"])
def test_repetitions_below_one_exit_nonzero(tmp_path, capsys, checkpoint,
                                            mode, reps):
    out = tmp_path / "x.csv"
    # transfer has no --algorithms: it runs its fixed slot compositions.
    algorithms = [] if mode == "transfer" else ["--algorithms", "gaussian"]
    rc = cli.main([mode, "--tasks", "sphere:2", *algorithms,
                   "--checkpoint", checkpoint, "--n-pop", "4",
                   "--generations", "2", "--repetitions", reps,
                   "--out", str(out)])
    assert rc == 2
    assert ("repetitions must be an integer, at least 1, got "
            f"{reps}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["evaluate", "sweep", "transfer"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(tmp_path, capsys, checkpoint, mode,
                                  workers):
    out = tmp_path / "x.csv"
    algorithms = [] if mode == "transfer" else ["--algorithms", "gaussian"]
    rc = cli.main([mode, "--tasks", "sphere:2", *algorithms,
                   "--checkpoint", checkpoint, "--n-pop", "4",
                   "--generations", "2", "--repetitions", "1",
                   "--workers", workers, "--out", str(out)])
    assert rc == 2
    assert (f"workers must be an integer, at least 1, got {workers}"
            in capsys.readouterr().err)
    assert not out.exists()


# Flags each mode accepted and then ignored before it declared its options.
IGNORED_FLAGS = [
    ("sweep", "--rho", "0.01"), ("sweep", "--sigma0", "9"),
    ("transfer", "--algorithms", "bogus"),
    ("analyze", "--workers", "99"), ("analyze", "--algorithms", "bogus"),
    ("analyze", "--repetitions", "-5"),
    ("meta-train", "--checkpoint", "/nonexistent"),
    ("meta-train", "--tasks", "nonsense"),
    ("meta-train", "--algorithms", "bogus"), ("meta-train", "--rho", "9"),
    ("meta-train", "--sigma0", "-1"), ("meta-train", "--repetitions", "2"),
]


@pytest.mark.parametrize("mode,flag,value", IGNORED_FLAGS)
def test_flag_a_mode_does_not_read_exits_2(tmp_path, capsys, mode, flag,
                                           value):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        cli.main([mode, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["workers", "repetitions"])
def test_config_key_a_mode_does_not_read_exits_2(tmp_path, capsys,
                                                 checkpoint, key):
    ini = tmp_path / "conf.ini"
    ini.write_text(f"[analyze]\n{key} = 2\n")
    out = tmp_path / "x.csv"
    assert cli.main(["analyze", "--config", str(ini), "--tasks", "sphere:2",
                     "--checkpoint", checkpoint, "--n-pop", "4",
                     "--generations", "2", "--out", str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_each_mode_has_the_flags_of_its_table():
    parser = cli.build_parser()
    (modes,) = [action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
    assert set(modes) == set(cli.MODES)
    for mode, sub in modes.items():
        flags = {flag for action in sub._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert flags == {"--config"} | {"--" + key.replace("_", "-")
                                        for key in cli.MODES[mode][1]}


def test_config_values_take_their_defaults_type(tmp_path):
    ini = tmp_path / "conf.ini"
    ini.write_text("[meta-train]\nnoise = 1\nmean_decay = 0.01\n")
    args = cli.build_parser().parse_args(["meta-train", "--config",
                                          str(ini)])
    opts = cli.resolve_options("meta-train", args)
    assert type(opts["noise"]) is int and opts["noise"] == 1
    assert type(opts["mean_decay"]) is float and opts["mean_decay"] == 0.01


def test_analyze_rejects_more_than_one_task(tmp_path, capsys, checkpoint):
    out = tmp_path / "analyze.csv"
    assert cli.main(["analyze", "--tasks", "sphere:2,rastrigin:3",
                     "--checkpoint", checkpoint, "--out", str(out)]) == 2
    assert "one task" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("generations", ["0", "-3"])
def test_generations_below_one_exit_2(tmp_path, capsys, generations):
    out = tmp_path / "x.csv"
    rc = cli.main(["evaluate", "--tasks", "sphere:2", "--algorithms",
                   "gaussian", "--generations", generations,
                   "--out", str(out)])
    assert rc == 2
    assert (f"generations must be an integer, at least 1, got {generations}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("algorithm, sigma0", [("gaussian", "nan"),
                                               ("mr15", "inf")])
def test_non_finite_sigma0_exits_2(tmp_path, capsys, algorithm, sigma0):
    out = tmp_path / "x.csv"
    rc = cli.main(["evaluate", "--tasks", "sphere:2", "--algorithms",
                   algorithm, "--sigma0", sigma0, "--out", str(out)])
    assert rc == 2
    assert f"sigma0 must be positive and finite, got {sigma0}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_mlp_sine_with_another_dimension_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(["evaluate", "--tasks", "mlp-sine:5", "--algorithms",
                   "gaussian", "--n-pop", "4", "--generations", "2",
                   "--repetitions", "1", "--out", str(out)])
    assert rc == 2
    assert "mlp-sine has 33 dimensions, not 5" in capsys.readouterr().err
    assert not out.exists()


def test_truncated_checkpoint_exits_2(tmp_path, capsys):
    path, out = tmp_path / "ckpt.txt", tmp_path / "x.csv"
    path.write_text("format-version: 1\n")
    rc = cli.main(["analyze", "--checkpoint", str(path), "--tasks",
                   "sphere:2", "--out", str(out)])
    assert rc == 2
    assert f"{path}: expected [config] block" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["evaluate", "sweep", "transfer"])
def test_bad_task_spec_fails_before_any_job(tmp_path, capsys, monkeypatch,
                                            checkpoint, mode):
    jobs = []
    monkeypatch.setattr(cli, "_run_job", lambda job: jobs.append(job) or [])
    out = tmp_path / "x.csv"
    algorithms = [] if mode == "transfer" else ["--algorithms", "gaussian"]
    rc = cli.main([mode, "--tasks", "mlp-sine,sphere", *algorithms,
                   "--checkpoint", checkpoint, "--n-pop", "4",
                   "--generations", "2", "--repetitions", "2",
                   "--out", str(out)])
    assert rc == 2
    assert "needs an explicit dimension" in capsys.readouterr().err
    assert not out.exists()
    assert len(jobs) == 0


@pytest.mark.parametrize("mode, flag, value, named", [
    ("sweep", "--tasks", "sphere:x", "task 'sphere:x'"),
    ("sweep", "--tasks", "sphere:-1", "task 'sphere:-1': dim must be"),
    ("sweep", "--tasks", "sphere:0", "task 'sphere:0': dim must be"),
    ("sweep", "--tasks", "sphere:2,schaffers_f7:1",
     "task 'schaffers_f7:1': schaffers_f7 needs at least two dimensions"),
    ("sweep", "--tasks", "griewank_rosenbrock:1",
     "task 'griewank_rosenbrock:1': griewank_rosenbrock needs"),
    ("sweep", "--rho-grid", "0.1,x", "rho grid value 'x'"),
    ("sweep", "--sigma0-grid", "y,0.5", "sigma0 grid value 'y'"),
    ("meta-train", "--functions", "sphere,bogus",
     "got ('sphere', 'bogus')"),
])
def test_bad_list_entry_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                          mode, flag, value, named):
    jobs = []
    monkeypatch.setattr(cli, "_run_job", lambda job: jobs.append(job) or [])
    out = tmp_path / "x.csv"
    argv = [mode, flag, value, "--out", str(out)]
    if mode == "sweep":
        argv += ["--algorithms", "gaussian"]
    assert cli.main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
    assert len(jobs) == 0


def test_unknown_algorithm_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["evaluate", "--tasks", "sphere:2", "--algorithms",
                   "gaussian,foo", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "algorithm 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["evaluate", "sweep"])
def test_repeated_algorithm_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                              mode):
    jobs = []
    monkeypatch.setattr(cli, "_run_job", lambda job: jobs.append(job) or [])
    out = tmp_path / "x.csv"
    rc = cli.main([mode, "--tasks", "sphere:2", "--algorithms",
                   "gaussian,mr15, gaussian", "--repetitions", "2",
                   "--out", str(out)])
    assert rc == 2
    assert "algorithm 'gaussian' is listed twice" in capsys.readouterr().err
    assert not out.exists()
    assert len(jobs) == 0


def test_meta_train_bad_setting_exits_2_before_out(tmp_path, capsys):
    out = tmp_path / "meta"
    rc = cli.main(["meta-train", "--meta-popsize", "0", "--n-tasks", "2",
                   "--n-pop", "8", "--generations", "3", "--out", str(out)])
    assert rc == 2
    assert "meta_popsize" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--n-pop", "0", "n_pop must be an integer, at least 1, got 0"),
    ("--generations", "0", "generations must be an integer, at least 1, "
     "got 0"),
    ("--dim-min", "0", "dim_min must be an integer, at least 1, got 0"),
    ("--dim-max", "-1", "dim_max must be an integer, at least 1, got -1"),
    ("--workers", "0", "workers must be an integer, at least 1, got 0"),
    ("--workers", "-2", "workers must be an integer, at least 1, got -2")])
def test_meta_train_bad_inner_ga_or_workers_exits_2_before_out(
        tmp_path, capsys, flag, value, message):
    out = tmp_path / "meta"
    rc = cli.main(["meta-train", "--meta-popsize", "4", "--n-tasks", "2",
                   "--n-pop", "8", "--generations", "3",
                   "--meta-generations", "1", flag, value, "--out", str(out)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["2", "-1"])
def test_meta_train_noise_other_than_0_or_1_exits_2(tmp_path, capsys, noise):
    """Any non-zero --noise used to train on noisy tasks."""
    out = tmp_path / "meta"
    rc = cli.main(["meta-train", "--meta-popsize", "2", "--n-tasks", "1",
                   "--n-pop", "2", "--generations", "1",
                   "--meta-generations", "0", "--noise", noise,
                   "--out", str(out)])
    assert rc == 2
    assert (f"noise must be one of False, True, got {noise}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_meta_train_subcommand_smoke(tmp_path):
    out = tmp_path / "meta"
    rc = cli.main(["meta-train", "--meta-popsize", "8", "--n-tasks", "2",
                   "--n-pop", "8", "--generations", "5",
                   "--meta-generations", "2", "--functions", "sphere",
                   "--dim-min", "2", "--dim-max", "2", "--eval-every", "0",
                   "--checkpoint-every", "0", "--out", str(out)])
    assert rc == 0
    assert (out / "checkpoint_final.txt").exists()
    assert (out / "meta_log.csv").exists()
