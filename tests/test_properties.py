"""Property tests for the maths invariants and the storage formats.

Examples are derandomized, so every run draws the same cases.
"""

import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mimicrl import actor, critic, data, envs, net, objectives, trainer
from mimicrl.envs import EnvSpec
from mimicrl.errors import DatasetFormatError, MimicError
from test_data import expert_dataset

LN2 = math.log(2.0)
# JSD is a difference of entropies that are each at most ln 2, so its
# rounding error is a few ulps of ln 2
JSD_TOL = 8 * np.finfo(np.float64).eps

probs = st.floats(0.0, 1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)
# bounded so that returns stay finite; bounded draws never give a signed
# zero or a subnormal, so those are added by hand
rewards = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 5e-324, -5e-324])
# any float64, with the values JSON or repr write apart drawn often
any_float = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300,
                                           -1e300, math.inf, -math.inf, math.nan])


@settings(max_examples=500, derandomize=True)
@given(probs, probs)
def test_jsd_symmetric_bounded_and_zero_on_the_diagonal(a, b):
    jsd = critic.bernoulli_jsd(a, b)
    assert jsd == critic.bernoulli_jsd(b, a)
    assert -JSD_TOL <= jsd <= LN2 + JSD_TOL
    assert critic.bernoulli_jsd(a, a) == 0.0
    if abs(a - b) >= 1e-6:
        # at least (a - b)^2 / 2 >= 5e-13, far above rounding
        assert jsd > 0.0


# parameters scaled up to 5x saturate the sigmoid (short of overflowing its
# exp), so the clamp binds on some rows; gamma reaches its smallest float
@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 5.0),
       gamma=st.floats(0.0, 1.0, exclude_min=True) | st.just(5e-324),
       clamp_eps=st.sampled_from([1e-12, 1e-6, 1e-2, 0.3, 0.49]),
       done=st.lists(st.booleans(), min_size=1, max_size=12))
def test_bootstrap_targets_are_ordered_clamped_and_clipped_double(seed, scale, gamma,
                                                                  clamp_eps, done):
    rng = np.random.default_rng(seed)
    spec = envs.env_spec("pendulum-v0")
    targets = [critic.make_critic(spec, rng, clamp_eps) for _ in range(2)]
    for t in targets:
        t.params.flat *= scale
    n = len(done)
    sa = np.concatenate([rng.normal(0.0, 2.0, (n, spec.obs_dim)),
                         rng.uniform(-2.0, 2.0, (n, spec.act_dim))], axis=1)
    done = np.array(done)
    base = critic.target_base_batch(*targets, sa[:, :spec.obs_dim], sa[:, spec.obs_dim:],
                                    gamma, done)
    expert = critic.branch_target(base, "expert", clamp_eps)
    beta = critic.branch_target(base, "beta", clamp_eps)
    # the expert branch's reward factor 1 beats the beta branch's 1/2: never
    # below it, and strictly above it wherever the clamp leaves room
    assert np.all(expert >= beta)
    assert np.all((expert > beta) | (expert == clamp_eps))
    for branch in (expert, beta):
        assert np.all((clamp_eps <= branch) & (branch <= 1.0 - clamp_eps))
    # the minimum of the two target critics bootstraps a row that goes on
    assert np.all(base[done] == 1.0)
    for t in targets:
        assert np.all(base[~done] <= critic.q_batch(t, sa)[~done] ** gamma)


# the tanh output layer keeps every action in the box, ends included, at any
# parameter scale: past a few units tanh saturates to exactly +-1, and the
# action is then an end of the box (scales stay short of overflowing a float)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(env_id=st.sampled_from(envs.ENV_IDS), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e12), noise_dim=st.integers(0, 2), rows=st.integers(1, 8))
@example(env_id="linereacher-v0", seed=0, scale=1e12, noise_dim=1, rows=8)
@example(env_id="pendulum-v0", seed=0, scale=1e12, noise_dim=1, rows=8)
def test_actor_actions_stay_in_the_action_box_at_any_scale(env_id, seed, scale,
                                                          noise_dim, rows):
    spec = envs.env_spec(env_id)
    rng = np.random.default_rng(seed)
    policy = actor.make_actor(spec, rng, noise_dim)
    policy.params.flat *= scale
    obs = rng.normal(0.0, 3.0, (rows, spec.obs_dim))
    z = rng.standard_normal((rows, noise_dim))
    for a in (actor.act(policy, obs, z), actor.act(policy, obs[0], z[0]),
              actor.act_batch(policy, obs, z), policy.eval_action(obs)):
        assert np.all((spec.action_low <= a) & (a <= spec.action_high))


# evaluate steps its n episodes in lockstep through one stacked forward per
# step; each return is, bit for bit, that of its episode evaluated alone
@settings(max_examples=30, derandomize=True, deadline=None)
@given(env_id=st.sampled_from(envs.ENV_IDS), bc=st.booleans(), seed=st.integers(0, 2**32),
       scale=st.floats(0.1, 10.0), n=st.integers(1, 8))
@example(env_id="linereacher-v0", bc=False, seed=0, scale=1.0, n=8)
@example(env_id="pendulum-v0", bc=True, seed=0, scale=4.0, n=8)
def test_lockstep_evaluation_returns_what_one_episode_runs_return(env_id, bc, seed,
                                                                 scale, n):
    spec = envs.env_spec(env_id)
    rng = np.random.default_rng(seed)
    policy = (objectives.make_bc_policy if bc else actor.make_actor)(spec, rng)
    (policy.mean_net if bc else policy.params).flat *= scale
    returns = trainer.evaluate(policy, env_id, n, seed)[2]
    alone = [trainer.evaluate(policy, env_id, 1, seed + i)[2][0] for i in range(n)]
    assert np.array(returns).tobytes() == np.array(alone).tobytes()


# at zero torque pendulum-v0's step (semi-implicit Euler: the speed moves
# first, then the angle by the new speed) keeps the energy 0.5·θ̇² + G·cos θ,
# G = 3g / 2l = 15, within a bound of its start value over a whole episode.
# Every reset has |θ̇| <= 1, so the energy stays at most 15.5 and the speed
# below the 8 rad/s clamp. Over seeds 0-4,999 the worst drift is 2.40
# (seed 2546), against an energy range of 30.5.
PENDULUM_ENERGY_DRIFT = 2.5


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32))
@example(seed=2546)
def test_pendulum_energy_holds_at_zero_torque(seed):
    def energy(state):
        theta, theta_dot = state.phys
        return 0.5 * theta_dot * theta_dot + 15.0 * math.cos(theta)

    state, _ = envs.reset("pendulum-v0", seed)
    start, zero, done = energy(state), np.zeros(1), False
    while not done:
        state, _, _, done = envs.step(state, zero)
        assert abs(state.phys[1]) < 8.0
        assert abs(energy(state) - start) <= PENDULUM_ENERGY_DRIFT


def _relu_pre_activations(params, x):
    _, cache = net.forward_batch(params, x, want_cache=True)
    return [a_in @ l.weights.T + l.bias
            for l, (a_in, _) in zip(params.layers, cache) if l.activation == "relu"]


@pytest.mark.parametrize("activation", net.ACTIVATIONS)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
       batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_backward_batch_matches_finite_differences(activation, dims, batch, seed):
    rng = np.random.default_rng(seed)
    n_layers = len(dims) - 1
    acts = [str(a) for a in rng.choice(net.ACTIVATIONS, size=n_layers)]
    acts[int(rng.integers(n_layers))] = activation
    p = net.init_network(dims, acts, rng)
    p.set_flat(p.get_flat() + 0.1 * rng.standard_normal(p.n_params))
    x = rng.standard_normal((batch, dims[0]))
    upstream = rng.standard_normal((batch, dims[-1]))
    # relu has no derivative at its kink; keep central differences off it
    assume(all(np.abs(z).min() > 1e-3 for z in _relu_pre_activations(p, x)))
    _, cache = net.forward_batch(p, x, want_cache=True)
    grads = net.backward_batch(p, upstream, cache)
    _, cache = net.forward_batch(p, x, want_cache=True)   # a cache serves one call
    input_grads = net.input_grad_batch(p, upstream, cache)

    def by_params(flat):
        q = p.copy()
        q.set_flat(flat)
        return float(np.sum(upstream * net.forward_batch(q, x)))

    def by_input(flat_x):
        return float(np.sum(upstream * net.forward_batch(p, flat_x.reshape(x.shape))))

    assert net.finite_diff_check(by_params, p.get_flat(), grads) < 1e-4
    assert net.finite_diff_check(by_input, x.ravel(), input_grads.ravel()) < 1e-4


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def dataset_records(draw, numbers=finite):
    """(spec, whole trajectories of Transitions in t order, threshold); the
    bounds, obs, act and next_obs hold numbers."""
    obs_dim = draw(st.integers(1, 3))
    act_dim = draw(st.integers(1, 2))
    horizon = draw(st.integers(1, 3))
    vec = lambda n: st.lists(numbers, min_size=n, max_size=n).map(np.array)
    spec = EnvSpec("property-v0", obs_dim, act_dim, draw(vec(act_dim)),
                   draw(vec(act_dim)), horizon, 0.0)
    transitions = []
    for traj_id in range(draw(st.integers(1, 3))):
        for t in range(horizon):
            transitions.append(data.Transition(
                obs=draw(vec(obs_dim)), act=draw(vec(act_dim)),
                next_obs=draw(vec(obs_dim)), done=t == horizon - 1,
                reward=draw(rewards), traj_id=traj_id, t=t))
    returns = [sum(tr.reward for tr in transitions if tr.traj_id == k)
               for k in range(transitions[-1].traj_id + 1)]
    return spec, transitions, min(returns) - 1.0


def datasets():
    return dataset_records().map(lambda r: expert_dataset(*r))


def _field_bits(tr):
    """Every field of a record, floats as their bytes, the rest as Python
    values of the types a Transition holds."""
    assert (type(tr.done), type(tr.traj_id), type(tr.t)) == (bool, int, int)
    return (_bits(tr.obs), _bits(tr.act), _bits(tr.next_obs), tr.done,
            _bits(tr.reward), tr.traj_id, tr.t)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(datasets())
def test_dataset_save_load_round_trip_is_bit_exact(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        data.save_dataset(dataset, path)
        # the property env is registered only for the load
        with mock.patch.dict(envs._SPECS, {"property-v0": dataset.spec}):
            loaded = data.load_dataset(path)
        again = os.path.join(tmp, "again.jsonl")
        data.save_dataset(loaded, again)
        with open(path, "rb") as f, open(again, "rb") as g:
            assert f.read() == g.read()
    spec, back = dataset.spec, loaded.spec
    assert (back.env_id, back.obs_dim, back.act_dim, back.horizon) == \
        (spec.env_id, spec.obs_dim, spec.act_dim, spec.horizon)
    assert _bits(back.action_low) == _bits(spec.action_low)
    assert _bits(back.action_high) == _bits(spec.action_high)
    assert _bits(loaded.filter_threshold) == _bits(dataset.filter_threshold)
    assert len(loaded) == len(dataset)
    for a, b in zip(dataset.transitions, loaded.transitions):
        for field in ("obs", "act", "next_obs", "reward"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field))
        assert (a.done, a.traj_id, a.t) == (b.done, b.traj_id, b.t)


# a valid dataset's records in any order, under other distinct traj_ids,
# build the same dataset, in memory and read back from a file, and each of
# its records reads back every field it was given, bit for bit
@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_dataset_in_any_record_order_under_other_traj_ids_is_the_same(data_draw):
    spec, records, threshold = data_draw.draw(dataset_records())
    dataset = expert_dataset(spec, records, threshold)
    perm = data_draw.draw(st.permutations(range(len(records))))
    # past int64 too; sorted, so the trajectories keep their order and
    # return_mean adds its returns in the same order
    ids = sorted(data_draw.draw(st.lists(st.integers(-2**70, 2**70), unique=True,
                                         min_size=dataset.n_trajectories,
                                         max_size=dataset.n_trajectories)))
    shuffled = [data.Transition(tr.obs, tr.act, tr.next_obs, tr.done, tr.reward,
                                ids[tr.traj_id], tr.t)
                for tr in (records[k] for k in perm)]
    built = expert_dataset(dataset.spec, shuffled, dataset.filter_threshold)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        data.save_dataset(built, path)
        with mock.patch.dict(envs._SPECS, {"property-v0": dataset.spec}):
            loaded = data.load_dataset(path)
    want = dataset.training_arrays().take(perm)
    for ds in (built, loaded):
        assert ds.n_trajectories == dataset.n_trajectories
        assert _bits(ds.return_stats) == _bits(dataset.return_stats)
        got = ds.training_arrays()
        for name in ("obs", "act", "next_obs", "done"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert list(map(_field_bits, ds.transitions)) == list(map(_field_bits, shuffled))


def _expert_records(env_id, n, threshold, seed):
    """The reference for generate_expert: Transitions of the first n
    episodes from seed whose return exceeds threshold, with the attempts
    made."""
    records = []
    kept = attempts = 0
    while kept < n:
        raw, total = envs.rollout(env_id, seed + attempts,
                                  lambda obs: envs.expert_action(env_id, obs))
        attempts += 1
        if total > threshold:
            records += [data.Transition(o, a, nx, d, r, kept, t)
                        for t, (o, a, nx, r, d) in enumerate(raw)]
            kept += 1
    return records, attempts


def _record_dict(tr):
    """A record as the dict whose json.dumps is its line."""
    return {"traj_id": tr.traj_id, "t": tr.t, "obs": tr.obs.tolist(),
            "act": tr.act.tolist(), "next_obs": tr.next_obs.tolist(), "done": tr.done,
            "reward": tr.reward}


# save_dataset fills a line template per record; every line must be the
# json.dumps of the record's dict, for any float64 (NaN, Infinity and
# -Infinity included), any traj_id and any slice size
@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_each_saved_line_is_the_json_dumps_of_its_record(data_draw):
    spec, records, threshold = data_draw.draw(dataset_records(numbers=any_float))
    n_trajectories = records[-1].traj_id + 1
    ids = data_draw.draw(st.lists(st.integers(-2**70, 2**70), unique=True,
                                  min_size=n_trajectories, max_size=n_trajectories))
    for tr in records:
        tr.traj_id = ids[tr.traj_id]
    dataset = expert_dataset(spec, records, threshold)
    for tr in dataset.transitions:
        tr.reward = data_draw.draw(any_float)
    rows = data_draw.draw(st.integers(1, 4))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "_SAVE_ROWS", rows):
        path = os.path.join(tmp, "data.jsonl")
        data.save_dataset(dataset, path)
        with open(path, encoding="utf-8", newline="") as f:
            lines = f.readlines()
    assert lines == [json.dumps(data.metadata(dataset)) + "\n"] + \
        [json.dumps(_record_dict(tr)) + "\n" for tr in dataset.transitions]


# characters a line may start or end with: JSON whitespace, and others that
# json.loads rejects but str.strip or str.splitlines would take as space
line_spaces = st.lists(st.sampled_from("\f \t\v\r\x85\u2028\u00a0"), min_size=1,
                       max_size=3).map("".join)
line_edits = st.one_of(
    line_spaces.map(lambda sp: lambda line: sp + line),
    line_spaces.map(lambda sp: lambda line: line[:-1] + sp + "\n"),
    st.just(lambda line: line[:-1] + "\r\n"),
    st.just(lambda line: "\ufeff" + line),
    st.sampled_from([" {}", "x", "]", ' {"t": 0}', "{}"]).map(
        lambda extra: lambda line: line[:-1] + extra + "\n"),
    st.just(lambda line: "[" + line[:-1] + "]\n"),
    st.just(lambda line: "\n" + line),
    st.just(lambda line: line[:-1]),      # the newline dropped
)


def _load_outcome(path, spec):
    """load_dataset(path)'s dataset, as its fields, or the DatasetFormatError
    it raises, as its message and line."""
    try:
        with mock.patch.dict(envs._SPECS, {"property-v0": spec}):
            ds = data.load_dataset(path)
    except DatasetFormatError as e:
        return str(e), e.line
    cols = ds._columns
    return ([(c.dtype, c.shape, c.tobytes()) for c in (cols.obs, cols.act, cols.next_obs,
                                                        cols.done, cols.reward)],
            cols.traj_id, cols.t, _bits(ds.return_stats), _bits(ds.filter_threshold),
            ds.n_trajectories)


# load_dataset decodes a line that is one object and its newline by itself;
# any line edited around its object must load, or fail with the same message
# and line, as through json.loads
@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_edited_lines_load_as_through_json_loads(data_draw):
    dataset = data_draw.draw(datasets())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        data.save_dataset(dataset, path)
        with open(path, encoding="utf-8", newline="") as f:
            lines = f.readlines()
        for _ in range(data_draw.draw(st.integers(1, 3))):
            k = data_draw.draw(st.integers(0, len(lines) - 1))
            lines[k] = data_draw.draw(line_edits)(lines[k])
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("".join(lines))
        rows = data_draw.draw(st.integers(1, 4))
        with mock.patch.object(data, "_LOAD_ROWS", rows):
            got = _load_outcome(path, dataset.spec)
            with mock.patch.object(data, "_decoded", json.loads):
                want = _load_outcome(path, dataset.spec)
    assert got == want


# generation writes episodes straight into growing columns; the dataset
# must be the one the records of the kept rollouts build, to the bit. Past
# 5 kept episodes (1,000 rows) the columns grow beyond their first 1,024 rows.
@settings(max_examples=12, derandomize=True, deadline=None)
@given(env_id=st.sampled_from(["linereacher-v0", "pendulum-v0"]),
       n=st.integers(1, 7), seed=st.integers(0, 10_000), rank=st.integers(0, 3))
@example(env_id="linereacher-v0", n=7, seed=0, rank=2)
@example(env_id="pendulum-v0", n=7, seed=1, rank=3)
def test_generated_dataset_is_the_one_its_kept_records_build(env_id, n, seed, rank):
    # a threshold at or above the second lowest of the first n + 1 returns
    # rejects two of those episodes, so one before the n-th is kept
    returns = sorted(envs.rollout(env_id, seed + k,
                                  lambda obs: envs.expert_action(env_id, obs))[1]
                     for k in range(n + 1))
    threshold = returns[1 + min(rank, n // 2)]
    records, attempts = _expert_records(env_id, n, threshold, seed)
    assert attempts > n
    want = expert_dataset(envs.env_spec(env_id), records, threshold)
    got = trainer.generate_expert(env_id, n, threshold, seed)
    for name in ("obs", "act", "next_obs", "done", "reward"):
        a, b = getattr(got._columns, name), getattr(want._columns, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for name in ("traj_id", "t"):
        a, b = getattr(got._columns, name), getattr(want._columns, name)
        assert type(a) is list and {type(v) for v in a} == {int}, name
        assert a == b, name
    assert _bits(got.return_stats) == _bits(want.return_stats)
    assert got.n_trajectories == want.n_trajectories == n
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{k}.jsonl") for k in range(2)]
        data.save_dataset(got, paths[0])
        data.save_dataset(want, paths[1])
        with open(paths[0], "rb") as f, open(paths[1], "rb") as g:
            assert f.read() == g.read()


class _EveryRow:
    """Generator stand-in whose draw is every row index in order, so that
    sample_arrays returns a buffer's whole contents."""

    def integers(self, low, high, size):
        return np.arange(low, high)


# capacities and push counts reach past the buffer's first 1,024 rows, so
# its columns grow (and, below 2,048 rows, grow short of a doubling)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(capacity=st.integers(1, 3000), n_pushes=st.integers(1, 5000))
@example(capacity=1024, n_pushes=1025)
@example(capacity=1025, n_pushes=2100)
@example(capacity=3000, n_pushes=5000)
def test_replay_buffer_keeps_the_latest_capacity_pushes(capacity, n_pushes):
    buf = data.ReplayBuffer(capacity, 2, 1)
    rows = []   # the reference: a plain list, overwritten oldest first once full
    for i in range(n_pushes):
        row = ([float(i), -0.5 * i], [i / 3.0], [i + 1.0, 0.25 * i], i % 3 == 0)
        buf.push(data.Transition(*row, reward=0.0))
        if len(rows) < capacity:
            rows.append(row)
        else:
            rows[i % capacity] = row
    assert len(buf) == len(rows) == min(capacity, n_pushes)
    want = [np.array([r[k] for r in rows]) for k in range(4)]
    got = buf.sample_arrays(1, _EveryRow())
    idx = np.random.default_rng(capacity).integers(0, len(rows), size=300)
    drawn = buf.sample_arrays(300, np.random.default_rng(capacity))
    for name, column in zip(("obs", "act", "next_obs", "done"), want):
        assert _bits(getattr(got, name)) == _bits(column), name
        assert _bits(getattr(drawn, name)) == _bits(column[idx]), name
    assert set(got.obs[:, 0]) == set(map(float, range(max(0, n_pushes - capacity),
                                                      n_pushes)))


@pytest.fixture(scope="module")
def reward_blind_baseline():
    """(config, expert dataset, the actor and critic parameters that
    training on it gives) for the reward-blindness property."""
    config = trainer.TrainConfig(env_id="linereacher-v0", seed=3, max_episodes=1,
                                 batch_expert=16, batch_beta=16, eval_episodes=1)
    dataset = trainer.generate_expert("linereacher-v0", 2, -1e9, seed=900)
    return config, dataset, _trained_params(trainer.train(config, dataset))


def _trained_params(state):
    return [_bits(net_.params.get_flat())
            for net_ in (state.actor, state.critic1, state.critic2)]


# no update reads an expert reward: any finite rewards, set per record
# through tr.reward, train bit-identical actor and critics
@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.lists(finite, min_size=1, max_size=5))
@example([0.0])
@example([1e300, -5e-324, -1e300, 0.5])
def test_training_ignores_any_expert_rewards(reward_blind_baseline, rewards):
    config, dataset, want = reward_blind_baseline
    for i, tr in enumerate(dataset.transitions):
        tr.reward = rewards[i % len(rewards)]
    assert _trained_params(trainer.train(config, dataset)) == want


@pytest.fixture(scope="module")
def saved_texts(tmp_path_factory):
    """Per env: a one-trajectory dataset's lines, and the text of an actor
    and of a BC checkpoint, as saved."""
    tmp = tmp_path_factory.mktemp("saved")
    texts = {}
    for env_id in envs.ENV_IDS:
        spec = envs.env_spec(env_id)
        rng = np.random.default_rng(5)
        data.save_dataset(trainer.generate_expert(env_id, 1, -1e9, seed=5), tmp / "data")
        actor.save_actor(actor.make_actor(spec, rng), tmp / "actor")
        objectives.save_bc_policy(objectives.make_bc_policy(spec, rng), tmp / "bc")
        texts[env_id] = ((tmp / "data").read_text().splitlines(),
                         (tmp / "actor").read_text(), (tmp / "bc").read_text())
    return texts


# every list a file holds has a count, and one wrong count is refused by the
# key's name and both counts, with the dataset line or the checkpoint file
@settings(max_examples=80, derandomize=True, deadline=None)
@given(env_id=st.sampled_from(envs.ENV_IDS),
       key=st.sampled_from(["obs", "act", "next_obs", "weights", "bias", "action_center",
                            "action_halfwidth", "log_std"]),
       data_draw=st.data())
def test_a_wrong_list_length_is_refused_by_key_and_counts(saved_texts, env_id, key,
                                                          data_draw):
    spec = envs.env_spec(env_id)
    lines, actor_text, bc_text = saved_texts[env_id]
    is_record = key in ("obs", "act", "next_obs")
    is_bc = key == "log_std" or (key in ("weights", "bias") and data_draw.draw(st.booleans()))
    if is_record:
        k = data_draw.draw(st.integers(1, len(lines) - 1))
        doc = held = json.loads(lines[k])
    else:
        doc = held = json.loads(bc_text if is_bc else actor_text)
        if key in ("weights", "bias"):
            held = data_draw.draw(st.sampled_from(doc["layers"]))
    want = len(held[key])
    n = data_draw.draw(st.integers(0, want + 3).filter(lambda n: n != want))
    held[key] = [0.5] * n
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        with open(path, "w", encoding="utf-8") as f:
            if is_record:
                f.write("".join(line + "\n" for line in
                                lines[:k] + [json.dumps(doc)] + lines[k + 1:]))
            else:
                json.dump(doc, f)
        with pytest.raises(MimicError) as exc:
            if is_record:
                data.load_dataset(path)
            elif is_bc:
                objectives.load_bc_policy(path, spec)
            else:
                actor.load_actor(path)
    where = f"line {k + 1}: bad value: " if is_record else f"checkpoint {path}: "
    assert str(exc.value) == f"{where}{key} holds {n} numbers, not {want}"
