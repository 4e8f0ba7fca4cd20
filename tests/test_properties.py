"""Property tests for the maths invariants and the storage formats.

Examples are derandomized, so every run draws the same cases.
"""

import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mimicrl import critic, data, envs, net
from mimicrl.envs import EnvSpec

LN2 = math.log(2.0)
# JSD is a difference of entropies that are each at most ln 2, so its
# rounding error is a few ulps of ln 2
JSD_TOL = 8 * np.finfo(np.float64).eps

probs = st.floats(0.0, 1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)
# bounded so that returns stay finite; bounded draws never give a signed
# zero or a subnormal, so those are added by hand
rewards = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 5e-324, -5e-324])


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
def dataset_records(draw):
    """(spec, whole trajectories of Transitions in t order, threshold)."""
    obs_dim = draw(st.integers(1, 3))
    act_dim = draw(st.integers(1, 2))
    horizon = draw(st.integers(1, 3))
    vec = lambda n: st.lists(finite, min_size=n, max_size=n).map(np.array)
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
    return dataset_records().map(lambda r: data.ExpertDataset(*r))


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
    dataset = data.ExpertDataset(spec, records, threshold)
    perm = data_draw.draw(st.permutations(range(len(records))))
    # past int64 too; sorted, so the trajectories keep their order and
    # return_mean adds its returns in the same order
    ids = sorted(data_draw.draw(st.lists(st.integers(-2**70, 2**70), unique=True,
                                         min_size=dataset.n_trajectories,
                                         max_size=dataset.n_trajectories)))
    shuffled = [data.Transition(tr.obs, tr.act, tr.next_obs, tr.done, tr.reward,
                                ids[tr.traj_id], tr.t)
                for tr in (records[k] for k in perm)]
    built = data.ExpertDataset(dataset.spec, shuffled, dataset.filter_threshold)
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
