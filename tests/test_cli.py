import builtins
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mimicrl
from mimicrl import actor, cli, objectives, trainer
from mimicrl.data import load_dataset
from mimicrl.envs import env_spec


# Python refuses to read an integer literal of more than 4,300 digits, and
# json.dumps refuses to write one: a test writes the string LONG_INT where
# it wants such a literal, and with_long_int swaps the digits in
LONG_INT = "<a 4,401-digit integer>"


def with_long_int(text):
    return text.replace(json.dumps(LONG_INT), "1" + "0" * 4400)


try:
    json.loads(with_long_int(json.dumps(LONG_INT)))
except ValueError as e:
    DIGIT_LIMIT = str(e)   # the message of Python's digit limit


@pytest.fixture(scope="module")
def expert_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "expert.jsonl"
    rc = cli.main(["gen-expert", "--env", "linereacher-v0", "--n", "5",
                   "--threshold", "-100", "--seed", "11", "--out", str(path)])
    assert rc == 0
    return path


def test_gen_expert_writes_dataset_and_config_echo(expert_file):
    ds = load_dataset(expert_file)
    assert ds.n_trajectories == 5
    assert ds.filter_threshold == -100.0
    echo = json.loads(open(str(expert_file) + ".config.json").read())
    assert echo["env_id"] == "linereacher-v0"
    assert echo["n"] == 5
    assert echo["seed"] == 11


def test_gen_expert_default_n_mirrors_dataset_size(tmp_path):
    # --n defaults to 100 kept trajectories
    path = tmp_path / "big.jsonl"
    rc = cli.main(["gen-expert", "--env", "linereacher-v0",
                   "--threshold", "-1000", "--seed", "0", "--out", str(path)])
    assert rc == 0
    meta = json.loads(open(path).readline())
    assert meta["n_trajectories"] == 100


def test_gen_expert_missing_out_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-expert", "--env", "linereacher-v0", "--threshold", "-100"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--n", "0", "need at least one trajectory, got 0"),
    ("--threshold", "nan", "threshold must be a number, got nan"),
])
def test_gen_expert_no_trajectory_or_nan_threshold_exit_1_writes_nothing(
        tmp_path, capsys, monkeypatch, flag, value, message):
    rolled = []
    monkeypatch.setattr(trainer, "rollout", lambda *a: rolled.append(a))
    args = {"--n": "2", "--threshold": "-100", flag: value}
    argv = ["gen-expert", "--env", "linereacher-v0", "--seed", "0",
            "--out", str(tmp_path / "e.jsonl")]
    rc = cli.main(argv + [f"{k}={v}" for k, v in args.items()])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert rolled == []
    assert list(tmp_path.iterdir()) == []


def test_gen_expert_reads_a_separate_negative_exponent_as_the_threshold(tmp_path):
    # argparse alone reads a separate "-1e6" as an option and exits 2
    written = []
    for i, threshold in enumerate((["--threshold", "-1e6"], ["--threshold=-1e6"],
                                   ["--threshold", "-1000000"])):
        path = tmp_path / f"e{i}.jsonl"
        assert cli.main(["gen-expert", "--env", "linereacher-v0", "--n", "2", *threshold,
                         "--seed", "0", "--out", str(path)]) == 0
        written.append(path.read_bytes())
    assert load_dataset(tmp_path / "e0.jsonl").filter_threshold == -1e6
    assert written[0] == written[1] == written[2]


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF"])
def test_gen_expert_reads_a_separate_negative_infinity_as_the_threshold(tmp_path, value):
    written = []
    for i, threshold in enumerate((["--threshold", value], [f"--threshold={value}"])):
        path = tmp_path / f"e{i}.jsonl"
        assert cli.main(["gen-expert", "--env", "linereacher-v0", "--n", "2", *threshold,
                         "--seed", "0", "--out", str(path)]) == 0
        written.append(path.read_bytes())
    assert load_dataset(tmp_path / "e0.jsonl").filter_threshold == float("-inf")
    assert written[0] == written[1]


@pytest.mark.parametrize("threshold", [["--threshold", "-nan"], ["--threshold=-nan"],
                                       ["--threshold", "-NaN"]])
def test_gen_expert_negative_nan_threshold_exits_1_in_either_form(tmp_path, capsys,
                                                                  threshold):
    rc = cli.main(["gen-expert", "--env", "linereacher-v0", "--n", "2", *threshold,
                   "--seed", "0", "--out", str(tmp_path / "e.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == "error: threshold must be a number, got nan\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-x", "-1e", "--1e6", "-infx", "-nan1"])
def test_gen_expert_threshold_followed_by_a_flag_is_usage_error(tmp_path, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-expert", "--env", "linereacher-v0", "--threshold", value,
                  "--out", str(tmp_path / "e.jsonl")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect", "--data", "x.jsonl", "--verbose"])
    assert exc.value.code == 2


def test_inspect_human_and_json(expert_file, capsys):
    assert cli.main(["inspect", "--data", str(expert_file)]) == 0
    out = capsys.readouterr().out
    assert "linereacher-v0" in out
    assert "threshold" in out

    assert cli.main(["inspect", "--data", str(expert_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_trajectories"] == 5
    assert doc["return_min"] > doc["filter_threshold"]
    assert doc["config"]["command"] == "inspect"


def test_inspect_json_prints_the_file_metadata(expert_file, capsys):
    assert cli.main(["inspect", "--data", str(expert_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("config") == {"command": "inspect", "data": str(expert_file)}
    assert doc.pop("n_transitions") == 5 * 200
    with open(expert_file, encoding="utf-8") as f:
        assert doc == json.loads(f.readline())


def test_inspect_corrupt_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"not": "a dataset"}\n')
    assert cli.main(["inspect", "--data", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line_no,key,value", [
    (1, "env_id", [1]),
    (1, "filter_threshold", None),
    (1, "return_mean", "x"),
    (4, "traj_id", [1]),
    (4, "reward", {}),
    (4, "obs", ["a", "b"]),
    (4, "t", "zz"),
    (1, "action_high", [True]),
    (4, "reward", "-0.5"),
    (4, "done", "no"),
    (4, "t", True),
    (4, "traj_id", "0"),
    (4, "obs", ["1", "2"]),
    (4, "obs", [True, 0.5]),
    (4, "t", 1),
    (3, "done", True),
    # json.load reads any integer as an int; one too large for a float64
    # must not pass as a number and then overflow on its way into the columns
    pytest.param(1, "filter_threshold", 10**400, id="1-filter_threshold-too-large"),
    pytest.param(2, "obs", [-10**400, 0.5], id="2-obs-too-large"),
    # and one past Python's digit limit must not fail without its line
    pytest.param(2, "obs", [LONG_INT, 0.5], id="2-obs-4401-digits"),
    # a record list of the wrong length
    pytest.param(2, "next_obs", [0.5], id="2-next_obs-short"),
    # a file with no line at all
    pytest.param(1, None, None, id="empty-file"),
])
def test_inspect_malformed_value_exit_1_names_line(expert_file, tmp_path, capsys,
                                                   line_no, key, value):
    if key is None:
        bad = tmp_path / "bad.jsonl"
        bad.write_text("")
    else:
        bad = edited_copy(expert_file, tmp_path, line_no, key, value)
    assert cli.main(["inspect", "--data", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {line_no}: ")


def edited_copy(path, tmp_path, line_no, key, value):
    """A copy of the dataset at path with line line_no's key set to value."""
    lines = path.read_text().splitlines()
    lines[line_no - 1] = with_long_int(
        json.dumps(dict(json.loads(lines[line_no - 1]), **{key: value})))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    return bad


@pytest.mark.parametrize("key,value,fault", [
    ("env_id", "other-v0", "unknown env_id 'other-v0'"),
    ("action_low", [-5.0], "action_low is [-5.0], but the env and records give [-1.0]"),
    ("action_high", [2], "action_high is [2], but the env and records give [1.0]"),
    ("obs_dim", 3, "obs_dim is 3, but the env and records give 2"),
    ("horizon", 100, "horizon is 100, but the env and records give 200"),
    ("n_trajectories", 4, "n_trajectories is 4, but the env and records give 5"),
    ("return_max", 1.0, "return_max is 1.0, but the env and records give "),
])
def test_inspect_line_1_must_match_the_env_and_records(expert_file, tmp_path, capsys,
                                                        key, value, fault):
    bad = edited_copy(expert_file, tmp_path, 1, key, value)
    assert cli.main(["inspect", "--data", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line 1: {fault}")


@pytest.mark.parametrize("key", ["obs_dim", "act_dim"])
def test_inspect_boolean_dim_exit_1_as_a_wrong_type(expert_file, tmp_path, capsys, key):
    bad = edited_copy(expert_file, tmp_path, 1, key, True)
    assert cli.main(["inspect", "--data", str(bad)]) == 1
    assert capsys.readouterr().err == \
        f"error: line 1: bad value: {key} must be an integer, got True\n"


def test_inspect_accepts_return_stats_within_tolerance(expert_file, tmp_path):
    meta = json.loads(expert_file.read_text().splitlines()[0])
    near = edited_copy(expert_file, tmp_path, 1, "return_mean", meta["return_mean"] + 1e-10)
    assert cli.main(["inspect", "--data", str(near)]) == 0


@pytest.mark.parametrize("command", [
    ["eval", "--actor", "actor.ckpt"],
    ["gen-expert", "--threshold", "0", "--out", "e.jsonl"],
])
def test_an_unknown_env_exit_1_with_the_plain_message(tmp_path, capsys, monkeypatch,
                                                      command):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*command, "--env", "other-v0"]) == 1
    assert capsys.readouterr().err == \
        "error: unknown env_id 'other-v0'; known: ('linereacher-v0', 'pendulum-v0')\n"
    assert list(tmp_path.iterdir()) == []


def test_train_bc_on_an_unregistered_env_exit_1(expert_file, tmp_path, capsys):
    bad = edited_copy(expert_file, tmp_path, 1, "env_id", "other-v0")
    cfg = tmp_path / "bc.json"
    cfg.write_text(json.dumps({"env_id": "other-v0", "seed": 0, "steps": 5}))
    out = tmp_path / "bc"
    rc = cli.main(["train-bc", "--config", str(cfg), "--expert", str(bad),
                   "--out", str(out)])
    assert rc == 1
    assert "line 1: unknown env_id 'other-v0'" in capsys.readouterr().err
    assert not out.exists()


CONFIGS = {
    "train": {"env_id": "linereacher-v0", "seed": 5, "max_episodes": 2,
              "batch_expert": 16, "batch_beta": 16, "eval_every": 2, "eval_episodes": 2},
    "train-bc": {"env_id": "linereacher-v0", "seed": 2, "steps": 5},
}


def write_config(tmp_path, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(CONFIGS["train"], **kw)))
    return path


def test_train_minimal_config_applies_defaults(tmp_path):
    # a config of just identity fields parses with documented defaults
    cfg = trainer.TrainConfig.from_dict({"env_id": "linereacher-v0", "seed": 7})
    assert cfg.max_episodes == 500 and cfg.batch_expert == 128


def test_train_runs_and_writes_run_dir(expert_file, tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg_path),
                   "--expert", str(expert_file), "--out", str(out)])
    assert rc == 0
    for name in ("config.json", "metrics.csv", "eval.csv", "actor.ckpt",
                 "critic1.ckpt", "critic2.ckpt"):
        assert (out / name).exists()
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["seed"] == 5
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "global_step,episode,critic_loss,actor_obj,q_mean_expert,q_mean_beta"
    assert (out / "eval.csv").read_text().splitlines()[0] == \
        "episode,mean_return,std_return"


def test_train_same_invocation_reproduces_bytes(expert_file, tmp_path):
    cfg_path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", str(cfg_path),
                     "--expert", str(expert_file), "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", str(cfg_path),
                     "--expert", str(expert_file), "--out", str(out_b)]) == 0
    for name in ("metrics.csv", "eval.csv", "actor.ckpt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_env_mismatch_exit_1_prints_both_ids(expert_file, tmp_path, capsys):
    cfg_path = write_config(tmp_path, env_id="pendulum-v0")
    rc = cli.main(["train", "--config", str(cfg_path),
                   "--expert", str(expert_file), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pendulum-v0" in err and "linereacher-v0" in err


def test_train_unknown_config_key_exit_1(expert_file, tmp_path, capsys):
    out = tmp_path / "x"
    for key, value in (("bogus_knob", 3), ("k_next_samples", 1),
                       ("include_gamma_in_target", True)):
        cfg_path = write_config(tmp_path, **{key: value})
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--expert", str(expert_file), "--out", str(out)])
        assert rc == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()


def test_train_zero_max_episodes_exit_1(expert_file, tmp_path, capsys):
    cfg_path = write_config(tmp_path, max_episodes=0)
    out = tmp_path / "x"
    rc = cli.main(["train", "--config", str(cfg_path),
                   "--expert", str(expert_file), "--out", str(out)])
    assert rc == 1
    assert "max_episodes" in capsys.readouterr().err
    assert not out.exists()


# faults each command's config must refuse: an edit of CONFIGS[command] or
# the whole file, and what the message holds
CONFIG_FAULTS = [
    ("syntax-error", '{"env_id": "linereacher-v0",}', "Expecting property name"),
    ("not-an-object", '[{"env_id": "linereacher-v0", "seed": 0}]',
     "expected a JSON object"),
    ("unknown-key", {"bogus_knob": 3}, "unknown config keys: ['bogus_knob']"),
    ("wrong-kind", {"seed": "0"}, "seed must be an integer, got '0'"),
    ("seed-4401-digits", {"seed": LONG_INT}, DIGIT_LIMIT),
]


@pytest.mark.parametrize("command,config,fault", [
    pytest.param("train", {"noise_dim": 1.5}, "noise_dim", id="noise_dim-1.5"),
    pytest.param("train", {"noise_dim": True}, "noise_dim", id="noise_dim-True"),
    pytest.param("train", {"seed": 1.5}, "seed", id="seed-1.5"),
    pytest.param("train", {"gamma": "0.9"}, "gamma", id="gamma-0.9"),
    pytest.param("train", {"tau": None}, "tau", id="tau-None"),
    pytest.param("train", {"early_stop_return": "abc"}, "early_stop_return",
                 id="early_stop_return-abc"),
    pytest.param("train", {"early_stop_return": 10**400}, "early_stop_return",
                 id="early_stop_return-too-large"),
    # a key of a removed estimator: refused at load, nothing written
    pytest.param("train", {"include_gamma_in_target": "no"}, "include_gamma_in_target",
                 id="include_gamma_in_target-no"),
    *[pytest.param(command, config, fault, id=f"{command}-{name}")
      for command in CONFIGS for name, config, fault in CONFIG_FAULTS],
    pytest.param("train", {"max_episodes": 0}, "max_episodes must be >= 1, got 0",
                 id="train-count-below-1"),
    pytest.param("train-bc", {"steps": 0}, "steps must be >= 1, got 0",
                 id="train-bc-count-below-1"),
    *[pytest.param("train", {"gamma": gamma}, f"gamma must be in (0, 1], got {gamma}",
                   id=f"gamma-{gamma}") for gamma in (0.0, 1.5, math.nan)],
])
def test_train_wrong_value_type_exit_1_writes_nothing(expert_file, tmp_path, capsys,
                                                      command, config, fault):
    # every config fault of train and train-bc exits 1 naming the file
    text = config if isinstance(config, str) else json.dumps(dict(CONFIGS[command], **config))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(with_long_int(text))
    out = tmp_path / "x"
    rc = cli.main([command, "--config", str(cfg_path),
                   "--expert", str(expert_file), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg_path}: ") and fault in err
    assert not out.exists()


def test_train_bc_and_eval_match_trainer_evaluate(expert_file, tmp_path, capsys):
    bc_cfg = tmp_path / "bc.json"
    bc_cfg.write_text(json.dumps({"env_id": "linereacher-v0", "seed": 2,
                                  "steps": 300}))
    out = tmp_path / "bc_run"
    rc = cli.main(["train-bc", "--config", str(bc_cfg),
                   "--expert", str(expert_file), "--out", str(out)])
    assert rc == 0
    assert (out / "bc.ckpt").exists()
    capsys.readouterr()

    rc = cli.main(["eval", "--actor", str(out / "bc.ckpt"),
                   "--env", "linereacher-v0", "--episodes", "3",
                   "--seed", "21", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)

    policy = objectives.load_bc_policy(out / "bc.ckpt", env_spec("linereacher-v0"))
    mean, std, returns = trainer.evaluate(policy, "linereacher-v0", 3, 21)
    assert doc["mean_return"] == mean
    assert doc["std_return"] == std
    assert doc["returns"] == returns


def test_train_bc_invalid_config_exit_1_writes_nothing(expert_file, tmp_path, capsys):
    bc_cfg = tmp_path / "bc.json"
    bc_cfg.write_text(json.dumps({"env_id": "linereacher-v0", "seed": 2,
                                  "steps": 0}))
    out = tmp_path / "bc_run"
    rc = cli.main(["train-bc", "--config", str(bc_cfg),
                   "--expert", str(expert_file), "--out", str(out)])
    assert rc == 1
    assert "steps" in capsys.readouterr().err
    assert not out.exists()


def test_train_bc_history_write_failure_leaves_no_partial_file(expert_file, tmp_path,
                                                               capsys, monkeypatch):
    real_open = builtins.open

    class HalfWritten:
        """Writes the first 10 characters, then fails like a full disk."""

        def __init__(self, f):
            self._f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

        def write(self, text):
            self._f.write(text[:10])
            raise OSError("disk full")

    def open_failing_history(path, *args, **kwargs):
        f = real_open(path, *args, **kwargs)
        return HalfWritten(f) if "nll_history" in str(path) else f

    monkeypatch.setattr(builtins, "open", open_failing_history)
    bc_cfg = tmp_path / "bc.json"
    bc_cfg.write_text(json.dumps({"env_id": "linereacher-v0", "seed": 2,
                                  "steps": 20}))
    out = tmp_path / "bc_run"
    rc = cli.main(["train-bc", "--config", str(bc_cfg),
                   "--expert", str(expert_file), "--out", str(out)])
    assert rc == 1
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["bc.ckpt", "config.json"]


def test_eval_actor_checkpoint_human_output(expert_file, tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run_eval"
    assert cli.main(["train", "--config", str(cfg_path),
                     "--expert", str(expert_file), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--actor", str(out / "actor.ckpt"),
                   "--env", "linereacher-v0", "--episodes", "2", "--seed", "0"])
    assert rc == 0
    assert "mean return" in capsys.readouterr().out


@pytest.mark.parametrize("episodes", ["0", "-3"])
@pytest.mark.parametrize("as_json", [True, False])
def test_eval_fewer_than_one_episode_exit_1(tmp_path, capsys, episodes, as_json):
    path = tmp_path / "actor.ckpt"
    actor.save_actor(actor.make_actor(env_spec("linereacher-v0"),
                                      np.random.default_rng(0)), path)
    argv = ["eval", "--actor", str(path), "--env", "linereacher-v0",
            f"--episodes={episodes}"] + (["--json"] if as_json else [])
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "at least one evaluation episode" in err


def test_eval_unreadable_checkpoint_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.ckpt"
    rc = cli.main(["eval", "--actor", str(missing), "--env", "linereacher-v0"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("break_doc,fault", [
    (lambda doc: {"noise_dim": 1}, "missing key 'layers'"),
    (lambda doc: dict(doc, layers=[without(l, "bias") for l in doc["layers"]]),
     "missing key 'bias'"),
    (lambda doc: without(doc, "action_center"), "missing key 'action_center'"),
    (lambda doc: dict(doc, layers=5), "layers must be a list of objects, got 5"),
    (lambda doc: dict(doc, layers=[5]), "layers must be a list of objects, got [5]"),
    (lambda doc: dict(doc, layers=[dict(l, activation=3) for l in doc["layers"]]),
     "activation must be a string, got 3"),
    (lambda doc: dict(doc, layers=[]), "'layers' holds no layer"),
    (lambda doc: dict(doc, noise_dim="1"), "noise_dim must be an integer, got '1'"),
    (lambda doc: dict(doc, noise_dim=True), "noise_dim must be an integer, got True"),
    (lambda doc: dict(doc, action_center=["0"]),
     "action_center must be a list of numbers, got ['0']"),
    (lambda doc: dict(doc, action_center=[0.0] * 3), "action_center holds 3 numbers, not 1"),
    (lambda doc: dict(doc, layers=[dict(l, weights="0") for l in doc["layers"]]),
     "weights must be a list of numbers, got '0'"),
    (lambda doc: dict(doc, layers=[dict(l, weights=[10**400] + l["weights"][1:])
                                   for l in doc["layers"]]),
     "weights: the integer 100000000000000000...0000000000000000000 is too large "
     "for a float"),
    (lambda doc: dict(doc, noise_dim=3),
     "noise_dim 3 must be in 0..2, so that the network's 3 inputs hold an observation"),
    (lambda doc: dict(doc, noise_dim=-1),
     "noise_dim -1 must be in 0..2, so that the network's 3 inputs hold an observation"),
    (lambda doc: dict(doc, env_id=5), "env_id must be a string, got 5"),
    (lambda doc: dict(doc, noise_dim=2), "the policy maps obs_dim 1 to act_dim 1, "
     "but linereacher-v0 has obs_dim 2 and act_dim 1"),
    (lambda doc: without(doc, "noise_dim"),
     "holds neither an actor's noise_dim nor a BC policy's log_std"),
    (lambda doc: dict(doc, layers=[dict(l, weights=[LONG_INT] + l["weights"][1:])
                                   for l in doc["layers"]]), DIGIT_LIMIT),
    # a BC checkpoint is layers and a log_std, one entry per network output
    (lambda doc: {"layers": doc["layers"], "log_std": [0.0] * 3},
     "log_std holds 3 numbers, not 1"),
    (lambda doc: {"layers": doc["layers"], "log_std": []},
     "log_std holds 0 numbers, not 1"),
    (lambda doc: dict(doc, layers=[dict(l, activation="softplus") for l in doc["layers"]]),
     "unknown activation 'softplus'"),
    # a layer's sizes count its inputs and outputs
    (lambda doc: dict(doc, layers=[dict(l, **{"in": -64, "out": -64}) for l in doc["layers"]]),
     "in must be >= 1, got -64"),
    (lambda doc: dict(doc, layers=[dict(l, **{"in": -1, "out": 0}) for l in doc["layers"]]),
     "in must be >= 1, got -1"),
    (lambda doc: dict(doc, layers=[dict(l, out=0) for l in doc["layers"]]),
     "out must be >= 1, got 0"),
], ids=["no-layers", "layer-without-bias", "no-action-center", "layers-not-a-list",
        "layer-not-an-object", "activation-not-a-string", "layers-empty",
        "noise-dim-string", "noise-dim-bool", "action-center-strings",
        "action-center-too-long", "weights-string",
        "weight-too-large-for-a-float",
        "noise-dim-fills-the-input", "noise-dim-negative", "env-id-not-a-string",
        "noise-dim-narrows-the-observation", "neither-actor-nor-bc",
        "weight-4401-digits", "bc-log-std-too-long", "bc-log-std-empty",
        "activation-unknown", "layer-sizes-negative", "layer-sizes-below-1",
        "layer-out-zero"])
def test_eval_malformed_checkpoint_exit_1(tmp_path, capsys, break_doc, fault):
    path = tmp_path / "actor.ckpt"
    actor.save_actor(actor.make_actor(env_spec("linereacher-v0"),
                                      np.random.default_rng(0)), path)
    path.write_text(with_long_int(json.dumps(break_doc(json.loads(path.read_text())))))
    rc = cli.main(["eval", "--actor", str(path), "--env", "linereacher-v0",
                   "--episodes", "1"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint {path}: {fault}\n"


def test_eval_actor_for_another_env_exit_1(tmp_path, capsys):
    path = tmp_path / "actor.ckpt"
    actor.save_actor(actor.make_actor(env_spec("linereacher-v0"),
                                      np.random.default_rng(0)), path)
    rc = cli.main(["eval", "--actor", str(path), "--env", "pendulum-v0"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {path}: an actor for linereacher-v0, but --env is pendulum-v0\n")


def test_eval_bc_policy_for_another_env_exit_1(tmp_path, capsys):
    path = tmp_path / "bc.ckpt"
    objectives.save_bc_policy(objectives.make_bc_policy(
        env_spec("linereacher-v0"), np.random.default_rng(0)), path)
    rc = cli.main(["eval", "--actor", str(path), "--env", "pendulum-v0"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {path}: the policy maps obs_dim 2 to act_dim 1, "
        "but pendulum-v0 has obs_dim 3 and act_dim 1\n")


def test_bare_import_loads_every_submodule_but_cli_and_binds_only_modules():
    probe = ("import sys, types, mimicrl; "
             "print(sorted(k for k in sys.modules if k.startswith('mimicrl.'))); "
             "print(sorted(k for k, v in vars(mimicrl).items() "
             "if not k.startswith('_') and not isinstance(v, types.ModuleType)))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(mimicrl.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    modules, bound = out.splitlines()
    names = ("actor", "critic", "data", "envs", "errors", "net", "objectives", "trainer")
    assert modules == str([f"mimicrl.{name}" for name in names])
    assert bound == "[]"
