"""Deterministic continuous-control environments with scripted experts.

Two desk-scale tasks with bounded action spaces:

* ``linereacher-v0`` — a point mass on a line, driven to the origin.
* ``pendulum-v0`` — torque-limited pendulum; theta = 0 is upright.

Dynamics are pure functions of (state, action); a full trajectory
replays bit-identically from (seed, action sequence). Rewards exist
only for evaluation and expert filtering — the imitation learner never
reads them.

``step`` and ``expert_action`` run once per env step, so they do the
scalar maths on Python floats: the state keeps its coordinates as
floats, and the action and observation arrays are unpacked into floats.
The IEEE operations are the same as on numpy scalars, without numpy's
per-operation dispatch. Actions are checked against per-env float
bounds cached at import; a NaN component is rejected like any other
out-of-bounds action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ActionBoundsError, EpisodeFinished, UnknownEnvError


@dataclass(frozen=True)
class EnvSpec:
    env_id: str
    obs_dim: int
    act_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    horizon: int
    dt: float


@dataclass(slots=True)
class EnvState:
    env_id: str
    phys: tuple           # two environment-specific coordinates, as Python floats
    step_index: int = 0


_SPECS = {
    "linereacher-v0": EnvSpec(
        env_id="linereacher-v0",
        obs_dim=2,
        act_dim=1,
        action_low=np.array([-1.0]),
        action_high=np.array([1.0]),
        horizon=200,
        dt=0.05,
    ),
    "pendulum-v0": EnvSpec(
        env_id="pendulum-v0",
        obs_dim=3,
        act_dim=1,
        action_low=np.array([-2.0]),
        action_high=np.array([2.0]),
        horizon=200,
        dt=0.05,
    ),
}

# pendulum constants
_G = 10.0
_M = 1.0
_L = 1.0
_MAX_SPEED = 8.0
# gravity's angular acceleration per unit sin(theta)
_GRAVITY_ACC = 3.0 * _G / (2.0 * _L)

# linereacher constants
_MAX_VEL = 2.0

ENV_IDS = tuple(sorted(_SPECS))

# per-env (low, high) bounds of each action component, as Python floats
_ACTION_BOUNDS = {
    env_id: tuple(zip(spec.action_low.tolist(), spec.action_high.tolist()))
    for env_id, spec in _SPECS.items()
}


def env_spec(env_id):
    try:
        return _SPECS[env_id]
    except KeyError:
        raise UnknownEnvError(f"unknown env_id {env_id!r}; known: {ENV_IDS}") from None


def wrap_angle(theta):
    """Wrap an angle into (-pi, pi]."""
    w = math.fmod(theta, 2.0 * math.pi)
    if w > math.pi:
        w -= 2.0 * math.pi
    elif w <= -math.pi:
        w += 2.0 * math.pi
    return w


def _observe(env_id, p0, p1):
    """Observation of the physical coordinates (p0, p1), as a new array."""
    if env_id == "linereacher-v0":
        return np.array([p0, p1])
    return np.array([math.cos(p0), math.sin(p0), p1])


def reset(env_id, seed):
    """Start an episode. Same seed, same initial state, always."""
    spec = env_spec(env_id)
    rng = np.random.default_rng(seed)
    if env_id == "linereacher-v0":
        p0 = rng.uniform(-1.5, -0.5)
        p1 = 0.0
    else:
        p0 = rng.uniform(-math.pi, math.pi)
        p1 = rng.uniform(-1.0, 1.0)
    state = EnvState(env_id=spec.env_id, phys=(p0, p1), step_index=0)
    return state, _observe(env_id, p0, p1)


def step(state, action):
    """Advance one step: (next_state, observation, reward, done).

    The reward is evaluation-only. Raises on out-of-bounds actions (NaN
    included) and on stepping a finished episode; nothing is clipped
    silently.
    """
    env_id = state.env_id
    spec = env_spec(env_id)
    t = state.step_index + 1
    if t > spec.horizon:
        raise EpisodeFinished(
            f"episode already finished at step {state.step_index}/{spec.horizon}"
        )
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (spec.act_dim,):
        raise ActionBoundsError(
            f"action shape {action.shape} does not match act_dim {spec.act_dim}"
        )
    # one action component on every env; its closed [low, high] interval
    # holds no NaN, so a NaN is rejected too
    [a] = action.tolist()
    [(low, high)] = _ACTION_BOUNDS[env_id]
    if not low <= a <= high:
        raise ActionBoundsError(
            f"action {action} outside bounds [{spec.action_low}, {spec.action_high}]"
        )
    dt = spec.dt
    if env_id == "linereacher-v0":
        x, v = state.phys
        reward = -(x * x + 0.1 * v * v + 0.001 * a * a)
        p0 = x + v * dt
        p1 = min(max(v + a * dt, -_MAX_VEL), _MAX_VEL)
    else:
        theta, theta_dot = state.phys
        theta_acc = _GRAVITY_ACC * math.sin(theta) + (3.0 / (_M * _L * _L)) * a
        p1 = min(max(theta_dot + theta_acc * dt, -_MAX_SPEED), _MAX_SPEED)
        p0 = theta + p1 * dt
        reward = -(wrap_angle(p0) ** 2 + 0.1 * p1 * p1 + 0.001 * a * a)
    return EnvState(env_id, (p0, p1), t), _observe(env_id, p0, p1), reward, t == spec.horizon


def expert_action(env_id, observation):
    """Scripted near-optimal controller for env_id; always in bounds."""
    spec = env_spec(env_id)
    obs = np.asarray(observation, dtype=np.float64)
    if obs.shape != (spec.obs_dim,):
        raise ActionBoundsError(
            f"observation shape {obs.shape} does not match obs_dim {spec.obs_dim}"
        )
    [(low, high)] = _ACTION_BOUNDS[env_id]   # one action component
    if env_id == "linereacher-v0":
        x, v = obs.tolist()
        u = -4.0 * x - 3.0 * v
    else:
        cos_t, sin_t, theta_dot = obs.tolist()
        theta = wrap_angle(math.atan2(sin_t, cos_t))
        if abs(theta) < 0.3 and abs(theta_dot) < 2.0:
            u = -16.0 * theta - 4.0 * theta_dot
        else:
            # the energy step conserves at zero torque; upright at rest it is G
            energy = 0.5 * theta_dot * theta_dot + _GRAVITY_ACC * cos_t
            u = 6.0 * theta_dot * (_GRAVITY_ACC - energy)
    return np.array([min(max(u, low), high)])


def rollout(env_id, seed, action_fn):
    """Roll one full episode with action_fn(obs) -> action.

    Returns (transitions, total_return) where each transition is the
    tuple (obs, act, next_obs, reward, done).
    """
    state, obs = reset(env_id, seed)
    transitions = []
    total = 0.0
    done = False
    while not done:
        act = action_fn(obs)
        state, next_obs, reward, done = step(state, act)
        transitions.append((obs, act, next_obs, reward, done))
        total += reward
        obs = next_obs
    return transitions, total
