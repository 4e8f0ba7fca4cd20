import csv
import hashlib
import json
import pathlib

import numpy as np
import pytest

from mimicrl import actor as actor_mod
from mimicrl import critic as critic_mod
from mimicrl import net, objectives, trainer
from mimicrl.data import ReplayBuffer, Transition, TransitionArrays, load_dataset, save_dataset
from mimicrl.envs import env_spec
from mimicrl.errors import DimensionMismatch, ExpertGenerationError, NonFiniteError
from test_critic import reference_loss_and_grads
from test_envs import _ref_rollout
from test_net import reference_adam_step, reference_forward_backward


def small_config(**kw):
    base = dict(env_id="linereacher-v0", seed=3, max_episodes=2,
                batch_expert=16, batch_beta=16, eval_every=2, eval_episodes=2)
    base.update(kw)
    return trainer.TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return trainer.generate_expert("linereacher-v0", 4, -100.0, seed=900)


def test_config_defaults_match_documented_values():
    cfg = trainer.TrainConfig.from_dict({"env_id": "linereacher-v0", "seed": 7})
    assert cfg.max_episodes == 500
    assert cfg.gamma == 0.99
    assert cfg.tau == 0.001
    assert cfg.actor_lr == 1e-4
    assert cfg.critic_lr == 1e-3
    assert cfg.batch_expert == 128 and cfg.batch_beta == 128
    assert cfg.noise_dim is None
    assert cfg.clamp_eps == 1e-6
    assert cfg.eval_every == 10 and cfg.eval_episodes == 20
    assert cfg.buffer_capacity == 1_000_000


def test_config_rejects_unknown_keys():
    # the bootstrap target has one form (one next-action draw, gamma always
    # applied), so no key selects another estimator
    for key, value in (("learning_rate", 0.1), ("k_next_samples", 1),
                       ("include_gamma_in_target", True)):
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            trainer.TrainConfig.from_dict({"env_id": "linereacher-v0", "seed": 1,
                                           key: value})


@pytest.mark.parametrize("field,value", [
    # keys of removed estimators: an old config naming one is refused at load
    ("k_next_samples", 0),
    ("eval_every", 0),
    ("eval_episodes", 0),
    ("max_episodes", 0),
    ("buffer_capacity", 0),
    ("buffer_capacity", 1e6),
    ("noise_dim", -1),
    ("clamp_eps", 0.0),
    ("clamp_eps", 0.5),
    ("clamp_eps", 0.6),
    ("noise_dim", 1.5),
    ("noise_dim", True),
    ("seed", 1.5),
    ("gamma", "0.9"),
    ("tau", None),
    ("early_stop_return", "abc"),
    ("include_gamma_in_target", "no"),
])
def test_config_rejects_invalid_values_at_load(field, value):
    with pytest.raises(ValueError, match=field):
        trainer.TrainConfig.from_dict({"env_id": "linereacher-v0", "seed": 1,
                                       field: value})


def test_config_accepts_boundary_values():
    cfg = trainer.TrainConfig.from_dict({
        "env_id": "linereacher-v0", "seed": 1, "eval_every": 1,
        "eval_episodes": 1, "max_episodes": 1, "buffer_capacity": 1, "noise_dim": 0, "clamp_eps": 0.49})
    assert cfg.noise_dim == 0 and cfg.clamp_eps == 0.49


def test_config_accepts_ints_for_floats_and_null_for_optionals():
    cfg = trainer.TrainConfig.from_dict({
        "env_id": "linereacher-v0", "seed": 1, "gamma": 1, "tau": 0,
        "early_stop_return": -50, "noise_dim": None})
    assert cfg.gamma == 1 and cfg.early_stop_return == -50
    cfg = trainer.TrainConfig.from_dict({
        "env_id": "linereacher-v0", "seed": 1, "early_stop_return": None})
    assert cfg.early_stop_return is None


def test_config_accepts_numpy_scalars():
    returns = np.array([-60.0, -40.0])
    cfg = trainer.TrainConfig(env_id="linereacher-v0", seed=np.int64(0),
                              early_stop_return=np.mean(returns))
    assert cfg.seed == 0 and cfg.early_stop_return == -50.0


def test_numpy_scalar_config_trains_and_echoes_plain_json(dataset, tmp_path):
    cfg = small_config(seed=np.int64(0), batch_expert=np.int64(16), max_episodes=1)
    trainer.train(cfg, dataset, out_dir=tmp_path)
    echo = json.loads((tmp_path / "config.json").read_text())
    assert type(echo["seed"]) is int and type(echo["batch_expert"]) is int
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "actor.ckpt", "config.json", "critic1.ckpt", "critic2.ckpt", "eval.csv",
        "metrics.csv"]


def test_config_requires_identity():
    with pytest.raises(ValueError):
        trainer.TrainConfig.from_dict({"env_id": "linereacher-v0"})


class RecordingBuffer(ReplayBuffer):
    """Replay buffer that also keeps every Transition pushed into it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pushed = []

    def push(self, tr):
        self.pushed.append(tr)
        super().push(tr)


def recorded_episode(cfg):
    """collect_episode's return value and the transitions it pushed."""
    rng = np.random.default_rng(cfg.seed)
    state = trainer.build_learner(cfg, rng)
    buf = RecordingBuffer(1000, 2, 1)
    t = trainer.collect_episode(cfg.env_id, state.actor, buf, rng, traj_id=1)
    assert len(buf) == len(buf.pushed)
    return t, buf.pushed


def test_collect_episode_full_horizon_and_done_flags():
    t, stored = recorded_episode(small_config())
    assert t == 200
    assert len(stored) == 200
    assert all(not tr.done for tr in stored[:-1])
    assert stored[-1].done
    assert [tr.t for tr in stored] == list(range(200))
    assert all(tr.traj_id == 1 for tr in stored)


def test_collect_episode_deterministic():
    def run():
        _, stored = recorded_episode(small_config())
        return np.concatenate([np.concatenate([tr.obs, tr.act]) for tr in stored])

    assert np.array_equal(run(), run())


def prepared_state(cfg, dataset):
    rng = np.random.default_rng(cfg.seed)
    state = trainer.build_learner(cfg, rng)
    buf = ReplayBuffer(cfg.buffer_capacity, 2, 1)
    trainer.collect_episode(cfg.env_id, state.actor, buf, rng)
    return state, buf, rng


def test_update_step_zero_learning_rates_change_nothing(dataset):
    cfg = small_config(actor_lr=0.0, critic_lr=0.0, tau=0.0)
    state, buf, rng = prepared_state(cfg, dataset)
    before = {
        "actor": state.actor.params.get_flat(),
        "c1": state.critic1.params.get_flat(),
        "c2": state.critic2.params.get_flat(),
        "t1": state.target1.params.get_flat(),
        "t2": state.target2.params.get_flat(),
    }
    row = trainer.update_step(state, dataset.training_arrays(), buf, cfg, rng)
    assert set(row) == set(trainer.UPDATE_COLUMNS)
    assert np.isfinite(row["critic_loss"])
    assert np.array_equal(state.actor.params.get_flat(), before["actor"])
    assert np.array_equal(state.critic1.params.get_flat(), before["c1"])
    assert np.array_equal(state.critic2.params.get_flat(), before["c2"])
    assert np.array_equal(state.target1.params.get_flat(), before["t1"])
    assert np.array_equal(state.target2.params.get_flat(), before["t2"])


def test_update_step_tau_zero_freezes_targets(dataset):
    cfg = small_config(tau=0.0)
    state, buf, rng = prepared_state(cfg, dataset)
    t1 = state.target1.params.get_flat()
    for _ in range(5):
        trainer.update_step(state, dataset.training_arrays(), buf, cfg, rng)
    assert np.array_equal(state.target1.params.get_flat(), t1)
    # while the main critics did move
    assert not np.array_equal(state.critic1.params.get_flat(), t1)


def test_update_step_targets_computed_before_critics_change(dataset, monkeypatch):
    cfg = small_config()
    state, buf, rng = prepared_state(cfg, dataset)
    c1_before = state.critic1.params.get_flat()
    seen = {}
    original = trainer._compute_targets

    def recording(*args):
        expert_targets, beta_targets = original(*args)
        # critics have not moved yet when targets are computed
        assert np.array_equal(state.critic1.params.get_flat(), c1_before)
        seen["expert"] = expert_targets.copy()
        seen["beta"] = beta_targets.copy()
        return expert_targets, beta_targets

    monkeypatch.setattr(trainer, "_compute_targets", recording)
    trainer.update_step(state, dataset.training_arrays(), buf, cfg, rng)
    assert "expert" in seen and "beta" in seen
    assert not np.array_equal(state.critic1.params.get_flat(), c1_before)
    assert np.all(seen["expert"] <= 1.0 - cfg.clamp_eps + 1e-15)
    assert np.all(seen["beta"] <= 0.5 + 1e-15)


def reference_update_step(ref, expert, replay, config, rng, episode):
    """update_step by the plain formulas: np.clip for every clamp, a fresh
    forward per use, Adam and the soft update out of place. ref is a
    LearnerState that only this function updates; expert and replay hold
    every row that the update samples from. Draws from rng in the
    library's order and multiplies matrices of the library's shapes."""
    def draw(rows, n):
        idx = rng.integers(0, rows.obs.shape[0], size=n)
        return rows.obs[idx], rows.act[idx], rows.next_obs[idx], rows.done[idx]

    def forward(params, x):
        return reference_forward_backward(params, x, np.zeros((len(x), params.n_out)))[0]

    def adam(opt, params, g):
        opt.step_count += 1
        flat, opt.first_moment, opt.second_moment = reference_adam_step(
            params.flat, opt.first_moment, opt.second_moment, opt.step_count, opt.lr, g)
        params.set_flat(flat)

    a, eps, n_e = ref.actor, ref.critic1.clamp_eps, config.batch_expert
    e_obs, e_act, e_next, e_done = draw(expert, n_e)
    b_obs, b_act, b_next, b_done = draw(replay, config.batch_beta)

    # targets: one next action per row, min of the target critics
    next_obs = np.concatenate([e_next, b_next])
    x = np.concatenate([next_obs, rng.standard_normal((len(next_obs), a.noise_dim))], axis=1)
    sa = np.concatenate(
        [next_obs, a.action_center + a.action_halfwidth * forward(a.params, x)], axis=1)
    q1, q2 = (np.clip(forward(t.params, sa)[:, 0], eps, 1.0 - eps)
              for t in (ref.target1, ref.target2))
    base = np.where(np.concatenate([e_done, b_done]), 1.0,
                    np.minimum(q1, q2) ** config.gamma)
    e_t = np.clip(base[:n_e], eps, 1.0 - eps)
    b_t = np.clip(base[n_e:] / 2.0, eps, 1.0 - eps)

    loss, g1, g2, diag = reference_loss_and_grads(
        ref.critic1, ref.critic2, e_obs, e_act, e_t, b_obs, b_act, b_t)
    adam(ref.opt_critic1, ref.critic1.params, g1)
    adam(ref.opt_critic2, ref.critic2.params, g2)

    # the actor ascends mean log q1(s, pi(s, z)) through the updated critic 1
    s = draw(replay, config.batch_beta)[0]
    n = len(s)
    x = np.concatenate([s, rng.standard_normal((n, a.noise_dim))], axis=1)
    sa = np.concatenate(
        [s, a.action_center + a.action_halfwidth * forward(a.params, x)], axis=1)
    raw = forward(ref.critic1.params, sa)[:, 0]
    q = np.clip(raw, eps, 1.0 - eps)
    in_range = ((raw > eps) & (raw < 1.0 - eps)).astype(np.float64)
    d_sa = reference_forward_backward(ref.critic1.params, sa, (in_range / (n * q))[:, None])[2]
    up_a = d_sa[:, s.shape[1]:] * a.action_halfwidth
    adam(ref.opt_actor, a.params, -reference_forward_backward(a.params, x, up_a)[1])

    for main, target in ((ref.critic1, ref.target1), (ref.critic2, ref.target2)):
        target.params.set_flat(config.tau * main.params.flat
                               + (1.0 - config.tau) * target.params.flat)
    ref.global_step += 1
    return {"global_step": ref.global_step, "episode": episode, "critic_loss": loss,
            "actor_obj": float(np.mean(np.log(q))), **diag}


def far_out_rows(rng, n):
    """n random transitions, two of them final; every tenth row lies far
    out, so critic outputs and targets reach both ends of the clamp."""
    obs, next_obs = rng.standard_normal((2, n, 2))
    obs[::10] *= 3000.0
    next_obs[::10] *= 3000.0
    done = np.zeros(n, dtype=bool)
    done[n // 2 - 1::n // 2] = True
    return TransitionArrays(obs, rng.uniform(-1.0, 1.0, (n, 1)), next_obs, done)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("n_e,n_b", [(128, 128), (16, 24)])
def test_update_step_matches_reference_bit_for_bit(n_e, n_b):
    cfg = small_config(batch_expert=n_e, batch_beta=n_b)
    lib, ref = (trainer.build_learner(cfg, np.random.default_rng(cfg.seed))
                for _ in range(2))
    rng = np.random.default_rng([n_e, n_b])
    expert, replay = far_out_rows(rng, 400), far_out_rows(rng, 400)
    buf = ReplayBuffer(400, 2, 1)
    for i in range(400):
        buf.push(Transition(replay.obs[i], replay.act[i], replay.next_obs[i],
                            replay.done[i], 0.0))
    q = critic_mod.q_batch(lib.critic1, np.concatenate([replay.obs, replay.act], axis=1))
    assert np.any(q == 1e-6) and np.any(q == 1.0 - 1e-6)

    lib_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    rows = [trainer.update_step(lib, expert, buf, cfg, lib_rng, episode=1)
            for _ in range(200)]
    ref_rows = [reference_update_step(ref, expert, replay, cfg, ref_rng, 1)
                for _ in range(200)]

    assert rows == ref_rows
    assert_same_learner(lib, ref)
    assert lib.global_step == lib.opt_actor.step_count == 200


def assert_same_learner(lib, ref):
    """Every parameter, optimizer moment, counter and eval row, bit for bit."""
    for name in ("actor", "critic1", "critic2", "target1", "target2"):
        assert getattr(lib, name).params.flat.tobytes() == \
            getattr(ref, name).params.flat.tobytes(), name
    for name in ("opt_actor", "opt_critic1", "opt_critic2"):
        got, want = getattr(lib, name), getattr(ref, name)
        assert got.first_moment.tobytes() == want.first_moment.tobytes(), name
        assert got.second_moment.tobytes() == want.second_moment.tobytes(), name
        assert got.step_count == want.step_count, name
    assert (lib.global_step, lib.env_steps) == (ref.global_step, ref.env_steps)
    assert lib.metrics.eval_rows == ref.metrics.eval_rows


RUN_FILES = ("metrics.csv", "eval.csv", "actor.ckpt", "critic1.ckpt", "critic2.ckpt")


def reference_train(config, dataset, out_dir):
    """train() as a plain loop: the reference env dynamics and forward, and
    reference_update_step over replay rows kept in a plain list, oldest
    overwritten first. Writes RUN_FILES to out_dir. Returns the LearnerState
    and, per checkpoint written, (file name, its bytes, eval.csv and
    metrics.csv as they stand when it is written)."""
    rng = np.random.default_rng(config.seed)
    ref = trainer.build_learner(config, rng)
    a = ref.actor

    def act(obs, z):
        x = np.concatenate([obs, z])[None]
        out = reference_forward_backward(a.params, x, np.zeros((1, a.params.n_out)))[0]
        return a.action_center + a.action_halfwidth * out[0]

    expert = dataset.training_arrays()
    rows, pushed, snapshots = [], 0, []
    metrics = "global_step,episode,critic_loss,actor_obj,q_mean_expert,q_mean_beta\n"
    evals = "episode,mean_return,std_return\n"
    for episode in range(1, config.max_episodes + 1):
        raw, _ = _ref_rollout(config.env_id, int(rng.integers(0, 2**63)),
                              lambda obs: act(obs, rng.standard_normal(a.noise_dim)))
        for obs, action, next_obs, _, done in raw:
            i = pushed % config.buffer_capacity
            rows[i:i + 1] = [(obs, action, next_obs, done)]
            pushed += 1
        replay = TransitionArrays(*(np.array([r[k] for r in rows]) for k in range(4)))
        ref.env_steps += len(raw)
        for _ in raw:
            row = reference_update_step(ref, expert, replay, config, rng, episode)
            metrics += f"{row['global_step']},{episode}," + ",".join(
                repr(float(row[k])) for k in trainer.UPDATE_COLUMNS[2:]) + "\n"
        if episode % config.eval_every and episode < config.max_episodes:
            continue
        returns = [_ref_rollout(config.env_id, config.seed + 100_000 + i,
                                lambda obs: act(obs, np.zeros(a.noise_dim)))[1]
                   for i in range(config.eval_episodes)]
        mean, std = float(np.mean(returns)), float(np.std(returns))
        ref.metrics.eval_rows.append(
            {"episode": episode, "mean_return": mean, "std_return": std})
        evals += f"{episode},{mean!r},{std!r}\n"
        (out_dir / "metrics.csv").write_text(metrics)
        (out_dir / "eval.csv").write_text(evals)
        actor_mod.save_actor(a, out_dir / "actor.ckpt")
        critic_mod.save_critic(ref.critic1, out_dir / "critic1.ckpt")
        critic_mod.save_critic(ref.critic2, out_dir / "critic2.ckpt")
        snapshots += [(name, (out_dir / name).read_bytes(), evals.encode(), metrics.encode())
                      for name in RUN_FILES[2:]]
        if config.early_stop_return is not None and mean >= config.early_stop_return:
            break
    return ref, snapshots


@pytest.mark.parametrize("kw", [
    dict(max_episodes=3),
    dict(max_episodes=5, early_stop_return=-1e9),
    # 1,200 pushes: the buffer grows past 1,024 rows, then evicts past 1,100
    dict(max_episodes=6, buffer_capacity=1100, early_stop_return=1e9),
], ids=["final-eval-off-cadence", "early-stop-at-first-eval", "growth-and-eviction"])
def test_train_matches_reference_loop_bit_for_bit(dataset, tmp_path, monkeypatch, kw):
    cfg = small_config(**kw)
    (tmp_path / "ref").mkdir()
    ref, ref_snapshots = reference_train(cfg, dataset, tmp_path / "ref")

    snapshots = []
    real_save = net.save_checkpoint

    def recording_save(params, path, extra=None):
        real_save(params, path, extra)
        path = pathlib.Path(path)
        run = path.parent
        snapshots.append((path.name, path.read_bytes(), (run / "eval.csv").read_bytes(),
                          (run / "metrics.csv").read_bytes()))

    monkeypatch.setattr(net, "save_checkpoint", recording_save)
    lib = trainer.train(cfg, dataset, out_dir=tmp_path / "lib")
    assert_same_learner(lib, ref)
    assert [s[0] for s in snapshots] == [s[0] for s in ref_snapshots]
    assert snapshots == ref_snapshots
    for name in RUN_FILES:
        assert (tmp_path / "lib" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes(), name


def read_metrics(out_dir):
    with open(out_dir / "metrics.csv", encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def test_train_one_episode_yields_exactly_horizon_updates(dataset, tmp_path):
    cfg = small_config(max_episodes=1)
    result = trainer.train(cfg, dataset, out_dir=tmp_path)
    rows = read_metrics(tmp_path)
    assert len(rows) == 200
    assert result.env_steps == 200
    assert [int(r["global_step"]) for r in rows] == list(range(1, 201))


def test_train_returns_the_learner_state_it_trained(dataset):
    state = trainer.train(small_config(max_episodes=2), dataset)
    assert isinstance(state, trainer.LearnerState)
    # one update per env step, and one Adam step per net per update
    assert state.global_step == state.env_steps == 400
    for opt in (state.opt_actor, state.opt_critic1, state.opt_critic2):
        assert opt.step_count == state.global_step
    assert [row["episode"] for row in state.metrics.eval_rows] == [2]


def test_update_accounting_matches_episode_lengths(dataset, tmp_path):
    cfg = small_config(max_episodes=3)
    trainer.train(cfg, dataset, out_dir=tmp_path)
    episodes = [int(r["episode"]) for r in read_metrics(tmp_path)]
    assert episodes == [e for e in (1, 2, 3) for _ in range(200)]


def test_train_writes_each_checkpoint_once_per_evaluation(dataset, tmp_path,
                                                          monkeypatch):
    saved = []
    real_save = net.save_checkpoint

    def counting_save(params, path, extra=None):
        saved.append(path)
        real_save(params, path, extra)

    monkeypatch.setattr(net, "save_checkpoint", counting_save)
    result = trainer.train(small_config(max_episodes=3), dataset, out_dir=tmp_path)
    assert len(result.metrics.eval_rows) == 2   # episodes 2 and 3
    assert len(saved) == 3 * len(result.metrics.eval_rows)


def test_train_is_bit_identical_across_runs(dataset, tmp_path):
    cfg = small_config()
    a = trainer.train(cfg, dataset, out_dir=tmp_path / "a")
    b = trainer.train(cfg, dataset, out_dir=tmp_path / "b")
    assert np.array_equal(a.actor.params.get_flat(), b.actor.params.get_flat())
    assert a.metrics.eval_rows == b.metrics.eval_rows
    for name in ("config.json", "metrics.csv", "eval.csv", "actor.ckpt",
                 "critic1.ckpt", "critic2.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_config_write_failure_leaves_no_partial_file(dataset, tmp_path, monkeypatch):
    def dump_then_fail(doc, f, **kwargs):
        f.write('{\n  "actor_lr": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        trainer.train(small_config(), dataset, out_dir=tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []


def test_train_rejects_env_mismatch(dataset):
    cfg = small_config(env_id="pendulum-v0")
    with pytest.raises(ValueError, match="does not match"):
        trainer.train(cfg, dataset)


def test_target_lag_is_tau_moving_average(dataset, monkeypatch):
    cfg = small_config(tau=0.05)
    state, buf, rng = prepared_state(cfg, dataset)
    t0 = state.target1.params.get_flat()
    mains = []
    original = critic_mod.soft_update

    def recording(main, target, tau):
        if target is state.target1:
            mains.append(main.params.get_flat())
        return original(main, target, tau)

    monkeypatch.setattr(critic_mod, "soft_update", recording)
    for _ in range(6):
        trainer.update_step(state, dataset.training_arrays(), buf, cfg, rng)
    expected = t0
    for m in mains:
        expected = cfg.tau * m + (1 - cfg.tau) * expected
    assert state.target1.params.get_flat() == pytest.approx(expected, abs=1e-12)


def test_evaluate_matches_independent_simulation():
    class ZeroPolicy:
        def eval_action(self, obs):
            return np.zeros((len(obs), 1))   # one action row per observation row

    mean, std, returns = trainer.evaluate(ZeroPolicy(), "linereacher-v0", 5, 40)

    # independent oracle: re-simulate the documented dynamics directly
    expected = []
    for seed in range(40, 45):
        rng = np.random.default_rng(seed)
        x, v = rng.uniform(-1.5, -0.5), 0.0
        total = 0.0
        for _ in range(200):
            total += -(x * x + 0.1 * v * v)
            x, v = x + v * 0.05, min(max(v, -2.0), 2.0)
        expected.append(total)
    assert returns == pytest.approx(expected)
    assert mean == pytest.approx(np.mean(expected))
    assert std == pytest.approx(np.std(expected))


def test_evaluate_single_episode_zero_std():
    class ZeroPolicy:
        def eval_action(self, obs):
            return np.zeros((len(obs), 1))   # one action row per observation row

    mean, std, returns = trainer.evaluate(ZeroPolicy(), "linereacher-v0", 1, 0)
    assert std == 0.0
    assert len(returns) == 1
    again = trainer.evaluate(ZeroPolicy(), "linereacher-v0", 1, 0)
    assert again[0] == mean


@pytest.mark.parametrize("env_id", ["linereacher-v0", "pendulum-v0"])
def test_evaluate_matches_one_episode_at_a_time_reference_bit_for_bit(env_id):
    # evaluate steps its episodes in lockstep on a stack of observations;
    # the reference rolls each episode alone, with a one-row forward
    spec = env_spec(env_id)
    rng = np.random.default_rng(17)
    actor = actor_mod.make_actor(spec, rng)
    bc = objectives.make_bc_policy(spec, rng)
    bc.mean_net.set_flat(4.0 * bc.mean_net.get_flat())   # so the clip acts too

    def one_row(params, x):
        return reference_forward_backward(params, x[None], np.zeros((1, params.n_out)))[0][0]

    references = [
        (actor, lambda obs: actor.action_center + actor.action_halfwidth * one_row(
            actor.params, np.concatenate([obs, np.zeros(actor.noise_dim)]))),
        (bc, lambda obs: np.clip(one_row(bc.mean_net, obs), bc.action_low, bc.action_high)),
    ]
    for policy, ref_action in references:
        for n, seed in ((1, 5), (20, 300)):
            mean, std, returns = trainer.evaluate(policy, env_id, n, seed)
            want = [_ref_rollout(env_id, seed + i, ref_action)[1] for i in range(n)]
            assert np.array(returns).tobytes() == np.array(want).tobytes(), (type(policy).__name__, n)
            assert (mean, std) == (float(np.mean(want)), float(np.std(want)))


def test_evaluate_rejects_an_action_count_unlike_the_episode_count():
    class OneRowPolicy:
        def eval_action(self, obs):
            return np.zeros((1, 1))

    with pytest.raises(DimensionMismatch, match="1 actions for 3 observations"):
        trainer.evaluate(OneRowPolicy(), "linereacher-v0", 3, 0)


@pytest.mark.parametrize("n_episodes", [0, -3])
def test_evaluate_rejects_fewer_than_one_episode(n_episodes):
    policy = actor_mod.make_actor(env_spec("linereacher-v0"), np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one evaluation episode"):
        trainer.evaluate(policy, "linereacher-v0", n_episodes, 0)


def test_generate_expert_threshold_minus_inf_keeps_first_n():
    ds = trainer.generate_expert("linereacher-v0", 3, float("-inf"), seed=60)
    assert ds.n_trajectories == 3
    # trajectories are exactly the expert rollouts from seeds 60, 61, 62
    from mimicrl.envs import expert_action, rollout
    for traj_id, seed in enumerate((60, 61, 62)):
        raw, _ = rollout("linereacher-v0", seed,
                         lambda o: expert_action("linereacher-v0", o))
        stored = [tr for tr in ds.transitions if tr.traj_id == traj_id]
        assert np.array_equal(stored[0].obs, raw[0][0])
        assert np.array_equal(stored[-1].next_obs, raw[-1][2])


def test_generate_expert_percentile_threshold():
    from mimicrl.envs import expert_action, rollout
    pre = [rollout("linereacher-v0", s,
                   lambda o: expert_action("linereacher-v0", o))[1]
           for s in range(200)]
    threshold = float(np.percentile(pre, 25))
    ds = trainer.generate_expert("linereacher-v0", 10, threshold, seed=0)
    trajs = {}
    for tr in ds.transitions:
        trajs.setdefault(tr.traj_id, 0.0)
        trajs[tr.traj_id] += tr.reward
    assert all(ret > threshold for ret in trajs.values())
    assert ds.return_stats[1] > threshold


def test_generate_expert_threshold_is_strictly_greater():
    from mimicrl.envs import expert_action, rollout
    raw, total = rollout("linereacher-v0", 30,
                         lambda o: expert_action("linereacher-v0", o))
    # an episode whose return is just above the threshold is kept ...
    ds = trainer.generate_expert("linereacher-v0", 1, np.nextafter(total, -np.inf),
                                 seed=30)
    assert np.array_equal(ds.transitions[0].obs, raw[0][0])
    # ... and one whose return equals it exactly is not
    ds = trainer.generate_expert("linereacher-v0", 1, total, seed=30)
    assert not np.array_equal(ds.transitions[0].obs, raw[0][0])
    assert ds.return_stats[1] > total


def test_generate_expert_round_trips_through_file(tmp_path):
    path = tmp_path / "exp.jsonl"
    ds = trainer.generate_expert("linereacher-v0", 3, -100.0, seed=70)
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.return_stats == ds.return_stats
    assert len(back.transitions) == len(ds.transitions)


def test_generate_expert_file_bytes_are_golden(tmp_path):
    # linereacher is IEEE float arithmetic over PCG64 draws, so these bytes
    # hold on any host; seeds 70 and 71 miss the threshold, 72-74 are kept
    path = tmp_path / "exp.jsonl"
    save_dataset(trainer.generate_expert("linereacher-v0", 3, -20.0, seed=70), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "00d3ec2fa4393bb69d512b2af3df1e506fe72e04eb5c1c3b3fa05bb27206389f"


def test_generate_expert_fails_with_diagnostics_on_impossible_threshold():
    with pytest.raises(ExpertGenerationError, match="pass rate"):
        trainer.generate_expert("linereacher-v0", 2, 1000.0, seed=0)


def test_reward_blindness_zeroed_rewards_identical_params(dataset, monkeypatch):
    cfg = small_config()
    baseline = trainer.train(cfg, dataset)

    zeroed = trainer.generate_expert("linereacher-v0", 4, -100.0, seed=900)
    for tr in zeroed.transitions:
        tr.reward = 0.0
    original = ReplayBuffer.push

    def zero_push(self, tr):
        tr.reward = 0.0
        return original(self, tr)

    monkeypatch.setattr(ReplayBuffer, "push", zero_push)
    blind = trainer.train(cfg, zeroed)
    assert np.array_equal(baseline.actor.params.get_flat(),
                          blind.actor.params.get_flat())
    assert np.array_equal(baseline.critic1.params.get_flat(),
                          blind.critic1.params.get_flat())
    assert np.array_equal(baseline.critic2.params.get_flat(),
                          blind.critic2.params.get_flat())


def test_non_finite_loss_aborts_and_dumps_batch(dataset, tmp_path, monkeypatch):
    cfg = small_config()

    def explode(*args, **kwargs):
        raise NonFiniteError("non-finite critic loss nan; aborting update")

    monkeypatch.setattr(critic_mod, "critic_loss_and_grads", explode)
    with pytest.raises(NonFiniteError):
        trainer.train(cfg, dataset, out_dir=tmp_path / "run")
    dump = json.loads((tmp_path / "run" / "abort_dump.json").read_text())
    assert dump["episode"] == 1
    assert len(dump["expert_obs"]) == cfg.batch_expert


def test_abort_dump_write_failure_leaves_no_partial_file(dataset, tmp_path, monkeypatch):
    def dump_then_fail(doc, f, **kwargs):
        f.write('{"episode": 1, ')
        raise OSError("disk full")

    def explode(*args, **kwargs):
        # config.json is already written; the next JSON write is the dump
        monkeypatch.setattr(json, "dump", dump_then_fail)
        raise NonFiniteError("non-finite critic loss nan; aborting update")

    monkeypatch.setattr(critic_mod, "critic_loss_and_grads", explode)
    with pytest.raises(OSError, match="disk full"):
        trainer.train(small_config(), dataset, out_dir=tmp_path / "run")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
        ["config.json", "eval.csv", "metrics.csv"]


def test_early_stop_extension(dataset):
    cfg = small_config(max_episodes=50, early_stop_return=-1e9)
    result = trainer.train(cfg, dataset)
    # threshold is trivially met at the first eval (episode 2)
    assert result.metrics.eval_rows[-1]["episode"] == 2
    assert result.env_steps == 400
