"""Reference objectives: the tabular reward oracle and a BC baseline.

The reward objective exists to validate, by brute force, the analytic
optimum (expert probability 1, non-expert probability 0.5) that the
critic's Bellman targets hard-code. It is deliberately tabular; there
is no trained discriminator anywhere in this library.

Behavior cloning is the supervised baseline: a Gaussian policy whose
mean network is fit by maximum likelihood on expert state-action pairs.
Its config shares JsonConfig, the JSON loader and value checks, with the
trainer's TrainConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import net
from .critic import bernoulli_entropy
from .errors import DimensionMismatch, NonFiniteError

LOG_TWO_PI = float(np.log(2.0 * np.pi))


@dataclass
class RewardTable:
    """Per-sample reward probabilities on expert and non-expert pairs."""

    r_expert: np.ndarray
    r_beta: np.ndarray

    def __post_init__(self):
        self.r_expert = np.asarray(self.r_expert, dtype=np.float64)
        self.r_beta = np.asarray(self.r_beta, dtype=np.float64)
        for name, arr in (("r_expert", self.r_expert), ("r_beta", self.r_beta)):
            if arr.size == 0:
                raise ValueError(f"{name} must be nonempty")
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError(f"{name} entries must lie in [0, 1]")


def reward_objective(table):
    """mean expert likelihood + mean non-expert Bernoulli entropy (nats).

    Maximized by r_expert = 1 and r_beta = 0.5, giving 1 + ln 2.
    """
    return float(np.mean(table.r_expert) + np.mean(bernoulli_entropy(table.r_beta)))


@dataclass
class GaussianBCPolicy:
    """Diagonal Gaussian over actions: mean from a network, fixed log-std."""

    mean_net: net.NetworkParams   # obs_dim -> act_dim
    log_std: np.ndarray           # (act_dim,), state-independent
    action_low: np.ndarray
    action_high: np.ndarray

    def eval_action(self, obs):
        """bc_act: one observation or an (n, obs_dim) stack."""
        return bc_act(self, obs)


def make_bc_policy(spec, rng, hidden=(64, 64)):
    return GaussianBCPolicy(
        mean_net=net.init_mlp(spec.obs_dim, spec.act_dim, "identity", rng, hidden),
        log_std=np.zeros(spec.act_dim),
        action_low=np.asarray(spec.action_low, dtype=np.float64),
        action_high=np.asarray(spec.action_high, dtype=np.float64),
    )


def bc_nll_and_grads(policy, obs, act):
    """Mean negative Gaussian log-likelihood of expert actions, with grads.

    Returns (nll, mean_net flat gradient, log_std gradient).
    """
    obs = np.asarray(obs, dtype=np.float64)
    act = np.asarray(act, dtype=np.float64)
    if obs.ndim != 2 or act.ndim != 2 or obs.shape[0] != act.shape[0]:
        raise DimensionMismatch("obs and act must be matching (n, dim) batches")
    n = obs.shape[0]
    if n == 0:
        raise ValueError("expert batch must be nonempty")
    mu, cache = net.forward_batch(policy.mean_net, obs, want_cache=True)
    std = np.exp(policy.log_std)
    z = (act - mu) / std
    nll = float(
        0.5 * np.mean(np.sum(z * z, axis=1))
        + np.sum(policy.log_std)
        + 0.5 * act.shape[1] * LOG_TWO_PI
    )
    if not np.isfinite(nll):
        raise NonFiniteError(f"non-finite BC loss {nll}")
    up_mu = (mu - act) / (std * std) / n
    g_net = net.backward_batch(policy.mean_net, up_mu, cache)
    g_log_std = np.mean(1.0 - z * z, axis=0)
    return nll, g_net, g_log_std


def bc_act(policy, obs):
    """Deterministic evaluation action: network mean clamped to bounds.

    obs is one observation or an (n, obs_dim) stack, row by row through
    ``net.forward``.
    """
    obs = np.asarray(obs, dtype=np.float64)
    mu = net.forward(policy.mean_net, obs)
    return np.clip(mu, policy.action_low, policy.action_high)


def save_config(doc, path):
    """Echo a resolved config as sorted, indented JSON, atomically."""
    net.save_json(doc, path, indent=2, sort_keys=True)


class JsonConfig:
    """Base for the config dataclasses that the CLI reads from JSON.

    ``from_dict`` takes a JSON object only, rejects unknown keys and
    requires env_id and seed.
    ``__post_init__`` makes each numpy scalar a Python value, so ``asdict``
    is JSON, then checks every value by ``net.check_json_types``; each
    subclass then checks ranges in its own ``__post_init__``, so a bad
    config fails when it is loaded, before a run writes anything.
    """

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        if "env_id" not in doc or "seed" not in doc:
            raise ValueError("config requires at least env_id and seed")
        return cls(**doc)

    def __post_init__(self):
        kinds = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                setattr(self, f.name, value.item())
            # f.type is the annotation's text: "int | None" also takes null
            kind = f.type.removesuffix(" | None")
            if value is not None or kind == f.type:
                kinds[f.name] = kind
        net.check_json_types(vars(self), kinds)

    def check_dataset(self, dataset):
        """Raise ValueError unless dataset was recorded on this config's env."""
        if dataset.spec.env_id != self.env_id:
            raise ValueError(
                f"dataset env {dataset.spec.env_id!r} does not match config env "
                f"{self.env_id!r}"
            )

    def _require_unit_interval(self, *names):
        for name in names:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass
class BCConfig(JsonConfig):
    env_id: str
    seed: int
    steps: int = 3000
    lr: float = 1e-3
    batch: int = 128

    def __post_init__(self):
        super().__post_init__()
        net.check_counts(vars(self), ("steps", "batch"))
        self._require_unit_interval("lr")


def train_bc(config, dataset):
    """Fit a GaussianBCPolicy to an expert dataset by Adam on the NLL.

    Returns (policy, history) where history is a list of
    (step, nll) pairs sampled every 100 steps and at the end.
    """
    config.check_dataset(dataset)
    rng = np.random.default_rng(config.seed)
    policy = make_bc_policy(dataset.spec, rng)
    views = dataset.training_arrays()
    opt_net = net.AdamState.for_params(policy.mean_net.n_params, lr=config.lr)
    opt_std = net.AdamState.for_params(policy.log_std.size, lr=config.lr)
    history = []
    for step_i in range(config.steps):
        idx = rng.integers(0, len(views), size=config.batch)
        nll, g_net, g_std = bc_nll_and_grads(policy, views.obs[idx], views.act[idx])
        net.adam_step(opt_net, policy.mean_net.flat, g_net)
        net.adam_step(opt_std, policy.log_std, g_std)
        if step_i % 100 == 0 or step_i == config.steps - 1:
            history.append((step_i, nll))
    return policy, history


def save_bc_policy(policy, path):
    net.save_checkpoint(policy.mean_net, path, extra={"log_std": policy.log_std.tolist()})


def load_bc_policy(path, spec, checkpoint=None):
    """Load a BC checkpoint; action bounds come from the EnvSpec. checkpoint
    is the (params, doc) pair of ``net.load_checkpoint(path)``, for a
    caller that has read path."""
    params, doc = checkpoint or net.load_checkpoint(path)
    with net.file_errors("checkpoint", path):
        net.check_json_types(doc, {"log_std": params.n_out})
    return GaussianBCPolicy(
        mean_net=params,
        log_std=np.asarray(doc["log_std"], dtype=np.float64),
        action_low=np.asarray(spec.action_low, dtype=np.float64),
        action_high=np.asarray(spec.action_high, dtype=np.float64),
    )
