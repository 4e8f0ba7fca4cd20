"""Bounded stochastic policy and its reparameterized policy gradient.

The policy is a deterministic network over (observation, noise). Its
final tanh layer keeps the raw output in (-1, 1); an affine rescale
maps that onto the environment's action box. Boundedness is structural:
it holds for every parameter value, so no action is ever clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import critic as critic_mod
from . import net
from .errors import DimensionMismatch, NonFiniteError


@dataclass
class ActorPolicy:
    params: net.NetworkParams   # (obs_dim + noise_dim) -> act_dim, final tanh
    noise_dim: int
    action_center: np.ndarray
    action_halfwidth: np.ndarray
    env_id: str = ""

    @property
    def obs_dim(self):
        return self.params.n_in - self.noise_dim

    def eval_action(self, obs):
        """Deterministic evaluation-mode action (noise at its mode, z = 0)
        for one observation or an (n, obs_dim) stack of them."""
        obs = np.asarray(obs, dtype=np.float64)
        return act(self, obs, np.zeros(obs.shape[:-1] + (self.noise_dim,)))


def make_actor(spec, rng, noise_dim=None):
    """Fresh actor for an EnvSpec. noise_dim defaults to act_dim."""
    if noise_dim is None:
        noise_dim = spec.act_dim
    params = net.init_mlp(spec.obs_dim + noise_dim, spec.act_dim, "tanh", rng)
    center = (np.asarray(spec.action_high) + np.asarray(spec.action_low)) / 2.0
    halfwidth = (np.asarray(spec.action_high) - np.asarray(spec.action_low)) / 2.0
    return ActorPolicy(params, noise_dim, center, halfwidth, spec.env_id)


def act(policy, obs, z):
    """action = center + halfwidth * tanh_net(concat(obs, z)), row by row.

    obs and z are one (obs_dim,) and (noise_dim,) row, or (n, obs_dim)
    and (n, noise_dim) stacks; each row goes through ``net.forward``, so
    its action does not depend on the other rows.
    """
    obs = np.asarray(obs, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if obs.shape[-1:] != (policy.obs_dim,):
        raise DimensionMismatch(
            f"obs shape {obs.shape} does not match obs_dim {policy.obs_dim}"
        )
    if z.shape != obs.shape[:-1] + (policy.noise_dim,):
        raise DimensionMismatch(
            f"noise shape {z.shape} does not match noise_dim {policy.noise_dim} "
            f"for obs shape {obs.shape}"
        )
    raw = net.forward(policy.params, np.concatenate([obs, z], axis=-1))
    return policy.action_center + policy.action_halfwidth * raw


def act_batch(policy, obs, z):
    """Vectorized act over (n, obs_dim) and (n, noise_dim) batches."""
    x = np.concatenate([obs, z], axis=1)
    raw = net.forward_batch(policy.params, x)
    return policy.action_center + policy.action_halfwidth * raw


def policy_gradient(policy, critic1, states, rng=None, z_batch=None):
    """Ascent-direction gradient of J = mean log q(s, pi(s, z)) over theta.

    One noise sample per state; the critic contributes only its input
    gradient with respect to the action, so its parameters are untouched.
    Pass z_batch to freeze the noise (gradient checks); otherwise it is
    drawn from rng. Returns (theta_gradient, J).
    """
    states = np.asarray(states, dtype=np.float64)
    n = states.shape[0]
    if z_batch is None:
        z_batch = rng.standard_normal((n, policy.noise_dim))
    x = np.concatenate([states, z_batch], axis=1)
    raw, cache_a = net.forward_batch(policy.params, x, want_cache=True)
    actions = policy.action_center + policy.action_halfwidth * raw

    sa = np.concatenate([states, actions], axis=1)
    q, cache_c, in_range = critic_mod.q_batch(critic1, sa, want_cache=True)
    objective = float(np.add.reduce(np.log(q)) / n)

    # dJ/d(critic output) per sample; zero where the clamp is active
    up_c = (in_range / (n * q))[:, None]
    d_sa = net.input_grad_batch(critic1.params, up_c, cache_c)
    d_action = d_sa[:, states.shape[1]:]

    up_a = d_action * policy.action_halfwidth
    grad = net.backward_batch(policy.params, up_a, cache_a)
    if not np.isfinite(grad).all() or not np.isfinite(objective):
        raise NonFiniteError("non-finite actor gradient; aborting update")
    return grad, objective


def save_actor(policy, path):
    net.save_checkpoint(
        policy.params,
        path,
        extra={
            "noise_dim": policy.noise_dim,
            "action_center": policy.action_center.tolist(),
            "action_halfwidth": policy.action_halfwidth.tolist(),
            "env_id": policy.env_id,
        },
    )


def load_actor(path, checkpoint=None):
    """The actor saved at path. checkpoint is the (params, doc) pair of
    ``net.load_checkpoint(path)``, for a caller that has read path."""
    params, doc = checkpoint or net.load_checkpoint(path)
    doc.setdefault("env_id", "")   # a checkpoint may leave its env unnamed
    with net.file_errors("checkpoint", path):
        net.check_json_types(doc, {"noise_dim": "int", "action_center": params.n_out,
                                   "action_halfwidth": params.n_out, "env_id": "str"})
        if not 0 <= doc["noise_dim"] < params.n_in:
            raise DimensionMismatch(
                f"noise_dim {doc['noise_dim']} must be in 0..{params.n_in - 1}, so that "
                f"the network's {params.n_in} inputs hold an observation"
            )
    return ActorPolicy(
        params=params,
        noise_dim=doc["noise_dim"],
        action_center=np.asarray(doc["action_center"], dtype=np.float64),
        action_halfwidth=np.asarray(doc["action_halfwidth"], dtype=np.float64),
        env_id=doc["env_id"],
    )
