"""Probabilistic Q-critic trained by a Jensen-Shannon Bellman objective.

The critic is a sigmoid-output network q(s, a) in (0, 1) whose natural
log is the Q-value. Because rewards live in log space too, Bellman
targets become products of probabilities: an expert-branch target
q'^gamma (the optimal reward contributes a factor of 1) and a
non-expert-branch target q'^gamma / 2 (the optimal reward for pairs the
policy produced is 1/2). Each prediction and its target define
two-outcome Bernoulli distributions over {expert, non-expert}; the loss
is the Jensen-Shannon divergence between them, summed over two
independently initialized critics whose common bootstrap uses the
minimum of two slowly tracking target networks.

A "Bernoulli probability" throughout this module is the plain float (or
array) probability of the expert outcome, kept in
[clamp_eps, 1 - clamp_eps] so every log stays finite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import net
from .errors import DimensionMismatch, NonFiniteError


@dataclass
class CriticNet:
    params: net.NetworkParams   # (obs_dim + act_dim) -> 1, final sigmoid
    clamp_eps: float = 1e-6

    def copy(self):
        return CriticNet(self.params.copy(), self.clamp_eps)


def make_critic(spec, rng, clamp_eps=1e-6):
    return CriticNet(net.init_mlp(spec.obs_dim + spec.act_dim, 1, "sigmoid", rng),
                     clamp_eps)


def q_batch(critic, sa, want_cache=False):
    """Clamped q for a (n, obs_dim + act_dim) batch.

    Returns q of shape (n,), plus the forward cache and the in-range
    mask (1.0 where the clamp is inactive, hence where gradients flow)
    when want_cache is set.
    """
    eps = critic.clamp_eps
    out = net.forward_batch(critic.params, sa, want_cache=want_cache)
    if want_cache:
        out, cache = out
    raw = out[:, 0]
    # the clip, as two passes that skip np.clip's dispatch
    q = np.maximum(raw, eps)
    np.minimum(q, 1.0 - eps, out=q)
    if want_cache:
        in_range = ((raw > eps) & (raw < 1.0 - eps)).astype(np.float64)
        return q, cache, in_range
    return q


def bernoulli_entropy(p):
    """H(p) = -p ln p - (1-p) ln(1-p), natural log; exact 0 at p in {0, 1}."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim and p.size and 0.0 < p.min() and p.max() < 1.0:
        # every term is finite (a NaN fails both tests): skip the guards
        return _interior_entropy(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p) + (1.0 - p) * np.log1p(-p)
    out = -np.where(np.isfinite(terms), terms, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def bernoulli_jsd(a, b):
    """Jensen-Shannon divergence between Bernoulli(a) and Bernoulli(b).

    Symmetric and zero when a == b. Mathematically in [0, ln 2]; as a
    difference of entropies it is computed to a few ulps of ln 2, so
    pairs a few ulps apart can give 0 or about -1e-16.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = 0.5 * (a + b)
    out = bernoulli_entropy(m) - 0.5 * (bernoulli_entropy(a) + bernoulli_entropy(b))
    if np.ndim(out) == 0:
        return float(out)
    return out


def _interior_entropy(p):
    # bernoulli_entropy for p strictly inside (0, 1), where every term is
    # finite: the same operations, without the guards for p in {0, 1}
    return -(p * np.log(p) + (1.0 - p) * np.log1p(-p))


def _entropy_slope(p):
    # dH/dp = ln((1-p)/p); callers guarantee p strictly inside (0, 1)
    return np.log((1.0 - p) / p)


def target_base_batch(target1, target2, next_obs, next_act, gamma, done):
    """Bootstrap factor exp(gamma * min Q') per row; 1 where done.

    Uses the minimum of the two target critics (clipped double Q) and
    produces plain constants: no gradient ever flows back into target
    parameters.
    """
    sa = np.concatenate([next_obs, next_act], axis=1)
    q1 = q_batch(target1, sa)
    q2 = q_batch(target2, sa)
    base = np.minimum(q1, q2) ** gamma
    return np.where(np.asarray(done, dtype=bool), 1.0, base)


def branch_target(base, branch, clamp_eps):
    """Clamp the bootstrap base into a branch target probability.

    expert: the optimal reward factor is 1; beta: it is 1/2.
    """
    if branch == "expert":
        scaled = base
    elif branch == "beta":
        scaled = base / 2.0
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return np.clip(scaled, clamp_eps, 1.0 - clamp_eps)


@functools.lru_cache(maxsize=8)
def _row_weights(n_e, n_b):
    """Per-row weights 1/n_e then 1/n_b, built once per batch shape."""
    weights = np.concatenate([np.full(n_e, 1.0 / n_e), np.full(n_b, 1.0 / n_b)])
    weights.flags.writeable = False
    return weights


def critic_loss_and_grads(critic1, critic2, expert_obs, expert_act, expert_targets,
                          beta_obs, beta_act, beta_targets):
    """JSD Bellman loss over both critics, with exact gradients.

    loss = sum over critics of
        mean_expert JSD(q(s,a) || expert_target)
      + mean_beta   JSD(q(s,a) || beta_target)

    Targets enter as constants and lie in [0, 1]. Returns (loss, grads1,
    grads2, diag) where diag holds q_mean_expert / q_mean_beta from
    critic 1.
    """
    n_e = expert_obs.shape[0]
    n_b = beta_obs.shape[0]
    # one concatenated pass per critic; per-row weights keep the two
    # batch means separate
    sa = np.concatenate([
        np.concatenate([expert_obs, expert_act], axis=1),
        np.concatenate([beta_obs, beta_act], axis=1),
    ], axis=0)
    targets = np.concatenate([expert_targets, beta_targets])
    weights = _row_weights(n_e, n_b)
    h_targets = bernoulli_entropy(targets)   # shared by both critics
    loss = 0.0
    grads = []
    diag = {}
    for i, critic in enumerate((critic1, critic2)):
        q, cache, in_range = q_batch(critic, sa, want_cache=True)
        # bernoulli_jsd(q, targets): q is clamped, and m lies between q
        # and a target, so both are strictly inside (0, 1)
        m = 0.5 * (q + targets)
        jsd = _interior_entropy(m) - 0.5 * (_interior_entropy(q) + h_targets)
        loss += float(jsd @ weights)
        d_jsd_dp = 0.5 * (_entropy_slope(m) - _entropy_slope(q))
        upstream = (d_jsd_dp * in_range * weights)[:, None]
        grads.append(net.backward_batch(critic.params, upstream, cache))
        del cache   # consumed; free it before the next critic's pass
        if i == 0:
            diag["q_mean_expert"] = float(np.add.reduce(q[:n_e]) / n_e)
            diag["q_mean_beta"] = float(np.add.reduce(q[n_e:]) / n_b)
    if not np.isfinite(loss):
        raise NonFiniteError(f"non-finite critic loss {loss}; aborting update")
    return loss, grads[0], grads[1], diag


def soft_update(main, target, tau):
    """target <- tau * main + (1 - tau) * target, in place on the flat vectors.

    Returns target.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if main.params.n_params != target.params.n_params:
        raise DimensionMismatch("main and target critics have different shapes")
    target_flat = target.params.flat
    target_flat *= 1.0 - tau
    target_flat += tau * main.params.flat
    return target


def save_critic(critic, path):
    net.save_checkpoint(critic.params, path, extra={"clamp_eps": critic.clamp_eps})
