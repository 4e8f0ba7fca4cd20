import re

import numpy as np
import pytest

from mimicrl import actor, critic, net
from mimicrl.envs import env_spec
from mimicrl.errors import DimensionMismatch, MimicError


def zeroed(params):
    params.set_flat(np.zeros(params.n_params))
    return params


def test_zero_net_emits_midpoint_action():
    rng = np.random.default_rng(0)
    pol = actor.make_actor(env_spec("pendulum-v0"), rng)
    zeroed(pol.params)
    a = actor.act(pol, np.array([1.0, 0.0, 0.5]), np.zeros(pol.noise_dim))
    assert a == pytest.approx([0.0])  # midpoint of [-2, 2]


def test_tanh_asymptote_approaches_bound_from_inside():
    rng = np.random.default_rng(1)
    pol = actor.make_actor(env_spec("linereacher-v0"), rng)
    zeroed(pol.params)
    obs, z = np.array([1.0, 1.0]), np.ones(pol.noise_dim)
    # pre-activation 10: tanh is 1 - 8.2e-9, strictly inside the bound
    pol.params.layers[-1].bias[:] = 10.0
    a = actor.act(pol, obs, z)
    assert 1.0 - 1e-7 < a[0] < 1.0
    # pre-activation 100: tanh rounds to 1.0 exactly (the limit), but the
    # action never exceeds the bound
    pol.params.layers[-1].bias[:] = 100.0
    a = actor.act(pol, obs, z)
    assert a[0] == 1.0
    assert a[0] <= 1.0


def test_bounds_hold_for_100k_random_inputs_on_pendulum():
    rng = np.random.default_rng(2)
    pol = actor.make_actor(env_spec("pendulum-v0"), rng)
    obs = rng.standard_normal((100_000, 3)) * 3.0
    z = rng.standard_normal((100_000, pol.noise_dim))
    a = actor.act_batch(pol, obs, z)
    assert np.all(a > -2.0) and np.all(a < 2.0)


def test_act_rejects_wrong_dims():
    rng = np.random.default_rng(3)
    pol = actor.make_actor(env_spec("linereacher-v0"), rng)
    with pytest.raises(DimensionMismatch):
        actor.act(pol, np.zeros(3), np.zeros(pol.noise_dim))
    with pytest.raises(DimensionMismatch):
        actor.act(pol, np.zeros(2), np.zeros(pol.noise_dim + 1))


def test_noise_dim_zero_gives_deterministic_policy():
    rng = np.random.default_rng(7)
    pol = actor.make_actor(env_spec("linereacher-v0"), rng, noise_dim=0)
    obs = np.array([0.3, -0.2])
    a = actor.act(pol, obs, np.zeros(0))
    b = actor.act(pol, obs, rng.standard_normal(0))
    assert np.array_equal(a, b)


def make_tiny_pair(seed=0, obs_dim=2, act_dim=1, hidden=(4,)):
    """Small actor/critic pair on a fake 2-d env for gradient tests."""
    rng = np.random.default_rng(seed)
    spec = env_spec("linereacher-v0")
    params = net.init_mlp(obs_dim + act_dim, act_dim, "tanh", rng, hidden)
    pol = actor.ActorPolicy(params, act_dim, spec.action_low * 0.0,
                            (spec.action_high - spec.action_low) / 2.0, spec.env_id)
    cparams = net.init_mlp(obs_dim + act_dim, 1, "sigmoid", rng, hidden)
    return pol, critic.CriticNet(cparams, 1e-6), rng


def test_policy_gradient_zero_when_critic_ignores_action():
    pol, c, rng = make_tiny_pair(8)
    # zero the critic's first-layer columns that read the action input
    c.params.layers[0].weights[:, -1] = 0.0
    states = rng.standard_normal((6, 2))
    grad, obj = actor.policy_gradient(pol, c, states, rng)
    assert np.array_equal(grad, np.zeros(pol.params.n_params))
    assert np.isfinite(obj)


def test_policy_gradient_matches_finite_differences_frozen_noise():
    pol, c, rng = make_tiny_pair(9)
    states = rng.standard_normal((5, 2))
    z = rng.standard_normal((5, pol.noise_dim))
    grad, _ = actor.policy_gradient(pol, c, states, z_batch=z)

    def objective(flat):
        q = pol.params.copy()
        q.set_flat(flat)
        trial = actor.ActorPolicy(q, pol.noise_dim, pol.action_center,
                                  pol.action_halfwidth, pol.env_id)
        acts = actor.act_batch(trial, states, z)
        qs = critic.q_batch(c, np.concatenate([states, acts], axis=1))
        return float(np.mean(np.log(qs)))

    err = net.finite_diff_check(objective, pol.params.get_flat(), grad)
    assert err < 1e-4


def test_one_ascent_step_does_not_decrease_objective():
    pol, c, rng = make_tiny_pair(10)
    states = rng.standard_normal((8, 2))
    z = rng.standard_normal((8, pol.noise_dim))
    grad, before = actor.policy_gradient(pol, c, states, z_batch=z)
    pol.params.set_flat(pol.params.get_flat() + 1e-5 * grad)
    _, after = actor.policy_gradient(pol, c, states, z_batch=z)
    assert after >= before


def test_evaluation_mode_is_deterministic():
    rng = np.random.default_rng(11)
    pol = actor.make_actor(env_spec("linereacher-v0"), rng)
    obs = np.array([-0.8, 0.1])
    assert np.array_equal(pol.eval_action(obs), pol.eval_action(obs))


def test_actor_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    pol = actor.make_actor(env_spec("pendulum-v0"), rng)
    path = tmp_path / "actor.ckpt"
    actor.save_actor(pol, path)
    back = actor.load_actor(path)
    assert back.noise_dim == pol.noise_dim
    assert back.env_id == "pendulum-v0"
    assert np.array_equal(back.action_center, pol.action_center)
    assert np.array_equal(back.action_halfwidth, pol.action_halfwidth)
    assert np.array_equal(back.params.get_flat(), pol.params.get_flat())
    obs = np.array([0.5, -0.5, 1.0])
    assert np.array_equal(back.eval_action(obs), pol.eval_action(obs))


def test_load_actor_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "actor.ckpt"
    path.write_text("[1, 2]\n")
    with pytest.raises(MimicError, match=re.escape(f"checkpoint {path}: expected a JSON object")):
        actor.load_actor(path)
