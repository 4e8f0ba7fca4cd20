import math

import numpy as np
import pytest

from mimicrl import envs
from mimicrl.errors import ActionBoundsError, EpisodeFinished, UnknownEnvError


def test_unknown_env_rejected():
    with pytest.raises(UnknownEnvError):
        envs.env_spec("walker-v9")
    with pytest.raises(UnknownEnvError):
        envs.reset("walker-v9", 0)


def test_linereacher_reset_distribution():
    for seed in range(200):
        _, obs = envs.reset("linereacher-v0", seed)
        assert -1.5 <= obs[0] <= -0.5
        assert obs[1] == 0.0


def test_pendulum_reset_distribution():
    for seed in range(200):
        _, obs = envs.reset("pendulum-v0", seed)
        theta = math.atan2(obs[1], obs[0])
        assert -math.pi <= theta <= math.pi
        assert -1.0 <= obs[2] <= 1.0
        assert obs[0] ** 2 + obs[1] ** 2 == pytest.approx(1.0)


def test_reset_deterministic():
    for env_id in envs.ENV_IDS:
        _, a = envs.reset(env_id, 123)
        _, b = envs.reset(env_id, 123)
        assert np.array_equal(a, b)


def test_linereacher_fixed_point_at_goal():
    state = envs.EnvState("linereacher-v0", (0.0, 0.0))
    state, obs, reward, done = envs.step(state, np.array([0.0]))
    assert np.array_equal(obs, np.zeros(2))
    assert reward == 0.0
    assert not done


def test_linereacher_hand_evaluated_step():
    state = envs.EnvState("linereacher-v0", (1.0, 0.0))
    _, obs, reward, _ = envs.step(state, np.array([-1.0]))
    assert obs == pytest.approx([1.0, -0.05])
    assert reward == pytest.approx(-1.001)


def test_linereacher_velocity_clamp():
    state = envs.EnvState("linereacher-v0", (0.0, 1.99))
    _, obs, _, _ = envs.step(state, np.array([1.0]))
    assert obs[1] == 2.0  # clamped at +2


def test_pendulum_upright_is_equilibrium():
    state = envs.EnvState("pendulum-v0", (0.0, 0.0))
    _, obs, reward, _ = envs.step(state, np.array([0.0]))
    assert reward == 0.0
    assert obs == pytest.approx([1.0, 0.0, 0.0])


def test_pendulum_hand_evaluated_step():
    theta, theta_dot, u, dt = 1.0, 0.5, 0.3, 0.05
    # independent evaluation of the documented update rule
    theta_acc = 15.0 * math.sin(theta) + 3.0 * u
    td_new = min(max(theta_dot + theta_acc * dt, -8.0), 8.0)
    th_new = theta + td_new * dt
    expected_reward = -(th_new ** 2 + 0.1 * td_new ** 2 + 0.001 * u ** 2)

    state = envs.EnvState("pendulum-v0", (theta, theta_dot))
    _, obs, reward, _ = envs.step(state, np.array([u]))
    assert obs == pytest.approx([math.cos(th_new), math.sin(th_new), td_new])
    assert reward == pytest.approx(expected_reward)


def test_pendulum_speed_clamp():
    state = envs.EnvState("pendulum-v0", (math.pi / 2, 7.9))
    _, obs, _, _ = envs.step(state, np.array([2.0]))
    assert obs[2] == 8.0


def test_done_exactly_at_horizon_and_finished_episode_raises():
    state, obs = envs.reset("linereacher-v0", 0)
    for i in range(200):
        state, obs, _, done = envs.step(state, np.array([0.0]))
        assert done == (i == 199)
    with pytest.raises(EpisodeFinished):
        envs.step(state, np.array([0.0]))


def test_out_of_bounds_action_is_an_error_not_a_clip():
    state, _ = envs.reset("linereacher-v0", 0)
    with pytest.raises(ActionBoundsError):
        envs.step(state, np.array([1.0001]))
    state, _ = envs.reset("pendulum-v0", 0)
    with pytest.raises(ActionBoundsError):
        envs.step(state, np.array([-2.5]))


def test_wrap_angle_range_and_branch_points():
    assert envs.wrap_angle(math.pi) == pytest.approx(math.pi)
    assert envs.wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert envs.wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert envs.wrap_angle(2 * math.pi) == pytest.approx(0.0)
    assert envs.wrap_angle(-0.25) == pytest.approx(-0.25)
    for theta in np.linspace(-20, 20, 401):
        w = envs.wrap_angle(theta)
        assert -math.pi < w <= math.pi + 1e-12
        # same point on the circle
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


def test_linereacher_expert_controller_values():
    assert envs.expert_action("linereacher-v0", np.array([0.0, 0.0])) == pytest.approx([0.0])
    assert envs.expert_action("linereacher-v0", np.array([1.0, 0.0])) == pytest.approx([-1.0])
    assert envs.expert_action("linereacher-v0", np.array([-0.1, 0.0])) == pytest.approx([0.4])


def test_expert_actions_always_in_bounds():
    rng = np.random.default_rng(0)
    spec = envs.env_spec("linereacher-v0")
    for _ in range(100_000 // 2):
        obs = np.array([rng.uniform(-20, 20), rng.uniform(-2, 2)])
        a = envs.expert_action("linereacher-v0", obs)
        assert spec.action_low[0] <= a[0] <= spec.action_high[0]
    spec = envs.env_spec("pendulum-v0")
    for _ in range(100_000 // 2):
        theta = rng.uniform(-math.pi, math.pi)
        obs = np.array([math.cos(theta), math.sin(theta), rng.uniform(-8, 8)])
        a = envs.expert_action("pendulum-v0", obs)
        assert spec.action_low[0] <= a[0] <= spec.action_high[0]


def test_expert_beats_zero_policy_on_linereacher():
    expert = [envs.rollout("linereacher-v0", s,
                           lambda o: envs.expert_action("linereacher-v0", o))[1]
              for s in range(100)]
    zero = [envs.rollout("linereacher-v0", s, lambda o: np.zeros(1))[1]
            for s in range(100)]
    assert np.mean(expert) > np.mean(zero)
    # strictly positive margin, not a tie
    assert np.mean(expert) - np.mean(zero) > 50.0


def test_expert_beats_zero_policy_and_ends_upright_on_pendulum():
    def policy(o):
        return envs.expert_action("pendulum-v0", o)
    episodes = [envs.rollout("pendulum-v0", s, policy) for s in range(100)]
    zero = [envs.rollout("pendulum-v0", s, lambda o: np.zeros(1))[1]
            for s in range(100)]
    expert = [total for _, total in episodes]
    assert np.mean(expert) - np.mean(zero) > 50.0
    # upright: mean |theta| under 0.3 over the last 50 steps
    upright = sum(np.mean([abs(math.atan2(n[1], n[0])) for _, _, n, _, _ in raw[-50:]])
                  < 0.3 for raw, _ in episodes)
    assert upright >= 95


def test_trajectory_replays_bit_identically():
    rng = np.random.default_rng(9)
    for env_id in envs.ENV_IDS:
        spec = envs.env_spec(env_id)
        actions = rng.uniform(spec.action_low[0], spec.action_high[0], size=(50, 1))

        def run():
            state, obs = envs.reset(env_id, 77)
            seen = [obs]
            for a in actions:
                state, obs, reward, _ = envs.step(state, a)
                seen.append(obs)
                seen.append(np.array([reward]))
            return np.concatenate(seen)

        assert np.array_equal(run(), run())


def test_nan_action_is_rejected():
    # NaN passes neither bound check, so it is out of bounds, not a state
    for env_id in envs.ENV_IDS:
        for action in (np.array([np.nan]), [float("nan")]):
            state, _ = envs.reset(env_id, 0)
            with pytest.raises(ActionBoundsError, match="outside bounds"):
                envs.step(state, action)


# Reference dynamics: the formulas on numpy arrays and numpy scalars,
# unpacked from the state, action and observation arrays. The library
# runs the same operations on Python floats, and must match bit for bit.

def _ref_observe(env_id, phys):
    if env_id == "linereacher-v0":
        return phys.copy()
    theta, theta_dot = phys
    return np.array([math.cos(theta), math.sin(theta), theta_dot])


def _ref_step(env_id, phys, action):
    dt = envs.env_spec(env_id).dt
    action = np.asarray(action, dtype=np.float64)
    if env_id == "linereacher-v0":
        x, v = phys
        a = action[0]
        reward = -(x * x + 0.1 * v * v + 0.001 * a * a)
        phys = np.array([x + v * dt, min(max(v + a * dt, -2.0), 2.0)])
    else:
        theta, theta_dot = phys
        u = action[0]
        theta_acc = 15.0 * math.sin(theta) + 3.0 * u
        theta_dot_new = min(max(theta_dot + theta_acc * dt, -8.0), 8.0)
        theta_new = theta + theta_dot_new * dt
        reward = -(envs.wrap_angle(theta_new) ** 2
                   + 0.1 * theta_dot_new * theta_dot_new + 0.001 * u * u)
        phys = np.array([theta_new, theta_dot_new])
    return phys, _ref_observe(env_id, phys), float(reward)


def _ref_expert_action(env_id, obs):
    obs = np.asarray(obs, dtype=np.float64)
    if env_id == "linereacher-v0":
        x, v = obs
        return np.array([min(max(-4.0 * x - 3.0 * v, -1.0), 1.0)])
    cos_t, sin_t, theta_dot = obs
    theta = envs.wrap_angle(math.atan2(sin_t, cos_t))
    if abs(theta) < 0.3 and abs(theta_dot) < 2.0:
        u = -16.0 * theta - 4.0 * theta_dot
    else:
        energy = 0.5 * theta_dot * theta_dot + 15.0 * cos_t
        u = 6.0 * theta_dot * (15.0 - energy)
    return np.array([min(max(u, -2.0), 2.0)])


def _ref_rollout(env_id, seed, action_fn):
    rng = np.random.default_rng(seed)
    if env_id == "linereacher-v0":
        phys = np.array([rng.uniform(-1.5, -0.5), 0.0])
    else:
        theta = rng.uniform(-math.pi, math.pi)
        phys = np.array([theta, rng.uniform(-1.0, 1.0)])
    obs = _ref_observe(env_id, phys)
    horizon = envs.env_spec(env_id).horizon
    transitions, total = [], 0.0
    for t in range(horizon):
        act = action_fn(obs)
        phys, next_obs, reward = _ref_step(env_id, phys, act)
        transitions.append((obs, act, next_obs, reward, t + 1 == horizon))
        total += reward
        obs = next_obs
    return transitions, total


def _policies(env_id, seed):
    """(name, library action_fn, reference action_fn) triples."""
    spec = envs.env_spec(env_id)
    low, high = spec.action_low.copy(), spec.action_high.copy()

    def uniform():
        rng = np.random.default_rng([seed, 1])
        return lambda obs: rng.uniform(low, high)

    def bang_bang(obs):
        # exactly at the bounds, switching on the sign of the velocity
        return high if obs[-1] < 0.0 else low

    return [
        ("expert", lambda obs: envs.expert_action(env_id, obs),
         lambda obs: _ref_expert_action(env_id, obs)),
        ("uniform", uniform(), uniform()),
        ("bang-bang", bang_bang, bang_bang),
    ]


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("env_id", envs.ENV_IDS)
def test_rollouts_match_reference_dynamics_bit_for_bit(env_id):
    for seed in range(50):
        for name, action_fn, ref_action_fn in _policies(env_id, seed):
            got, total = envs.rollout(env_id, seed, action_fn)
            want, ref_total = _ref_rollout(env_id, seed, ref_action_fn)
            assert len(got) == len(want)
            for (o, a, n, r, d), (ro, ra, rn, rr, rd) in zip(got, want):
                assert type(r) is float, name
                assert (_bits(o), _bits(a), _bits(n), _bits(r), d) == \
                    (_bits(ro), _bits(ra), _bits(rn), _bits(rr), rd), (name, seed)
            assert _bits(total) == _bits(ref_total), (name, seed)
