"""End-to-end training loop: collect, update, evaluate, persist.

Each episode is rolled by ``envs.rollout`` with the stochastic policy
into the replay buffer; then exactly as many gradient updates run as
the episode had steps. One update is, in order: sample an expert and a
behavior batch, compute next actions with the current policy for the
union of next states, build clipped-double bootstrap targets, take one Adam step on
both critics under the JSD loss, take one Adam ascent step on the actor
through critic 1 on a freshly sampled behavior batch, and softly update
both target networks.

Everything downstream of the config seed is deterministic: a fixed
(config, dataset) pair reproduces metrics and checkpoints byte for
byte. Per-update rows are streamed to metrics.csv only; ``train``
returns the LearnerState it trained, whose RunMetrics keeps the
evaluation rows. No update reads a reward: the replay buffer does not
store one, and the trainer sees the expert dataset only through
reward-free TransitionArrays. Rewards feed only evaluation and
expert-data filtering.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import actor as actor_mod
from . import critic as critic_mod
from . import net
from .data import DatasetColumns, ExpertDataset, ReplayBuffer, Transition
from .envs import env_spec, expert_action, reset, rollout, step
from .errors import DimensionMismatch, ExpertGenerationError, NonFiniteError
from .objectives import JsonConfig, save_config

UPDATE_COLUMNS = ("global_step", "episode", "critic_loss", "actor_obj",
                  "q_mean_expert", "q_mean_beta")
EVAL_COLUMNS = ("episode", "mean_return", "std_return")

# offset separating evaluation episode seeds from everything derived
# from the root seed during training
EVAL_SEED_OFFSET = 100_000


@dataclass
class TrainConfig(JsonConfig):
    env_id: str
    seed: int
    max_episodes: int = 500
    gamma: float = 0.99
    tau: float = 0.001
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    batch_expert: int = 128
    batch_beta: int = 128
    noise_dim: int | None = None        # None resolves to act_dim
    clamp_eps: float = 1e-6
    eval_every: int = 10
    eval_episodes: int = 20
    buffer_capacity: int = 1_000_000
    early_stop_return: float | None = None   # stop once an eval reaches this

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        # tau = 0 freezes the targets entirely (soft updates are skipped)
        self._require_unit_interval("tau", "actor_lr", "critic_lr")
        net.check_counts(vars(self), (
            "batch_expert", "batch_beta", "max_episodes", "eval_every",
            "eval_episodes", "buffer_capacity"))
        if self.noise_dim is not None and self.noise_dim < 0:
            raise ValueError(f"noise_dim must be >= 0, got {self.noise_dim}")
        # the clamp interval [clamp_eps, 1 - clamp_eps] must be nonempty
        if not 0.0 < self.clamp_eps < 0.5:
            raise ValueError(f"clamp_eps must be in (0, 0.5), got {self.clamp_eps}")


@dataclass
class RunMetrics:
    eval_rows: list = field(default_factory=list)


@dataclass
class LearnerState:
    """One run's networks, optimizers, step counters and eval rows."""

    actor: actor_mod.ActorPolicy
    critic1: critic_mod.CriticNet
    critic2: critic_mod.CriticNet
    target1: critic_mod.CriticNet
    target2: critic_mod.CriticNet
    opt_actor: net.AdamState
    opt_critic1: net.AdamState
    opt_critic2: net.AdamState
    global_step: int = 0
    env_steps: int = 0
    metrics: RunMetrics = field(default_factory=RunMetrics)


def build_learner(config, rng):
    """Networks and optimizers in a fixed initialization order."""
    spec = env_spec(config.env_id)
    policy = actor_mod.make_actor(spec, rng, noise_dim=config.noise_dim)
    critic1 = critic_mod.make_critic(spec, rng, clamp_eps=config.clamp_eps)
    critic2 = critic_mod.make_critic(spec, rng, clamp_eps=config.clamp_eps)
    return LearnerState(
        actor=policy,
        critic1=critic1,
        critic2=critic2,
        target1=critic1.copy(),
        target2=critic2.copy(),
        opt_actor=net.AdamState.for_params(policy.params.n_params, config.actor_lr),
        opt_critic1=net.AdamState.for_params(critic1.params.n_params, config.critic_lr),
        opt_critic2=net.AdamState.for_params(critic2.params.n_params, config.critic_lr),
    )


def collect_episode(env_id, policy, buffer, rng, traj_id=0):
    """Roll one full episode with sampled noise; push every transition.

    The episode's noise is drawn as one (horizon, noise_dim) block: the
    same numbers, and the same generator state after, as one draw per
    step.
    """
    ep_seed = int(rng.integers(0, 2**63))
    noise = iter(rng.standard_normal((env_spec(env_id).horizon, policy.noise_dim)))
    raw, _ = rollout(env_id, ep_seed, lambda obs: actor_mod.act(policy, obs, next(noise)))
    for t, (obs, act, next_obs, reward, done) in enumerate(raw):
        buffer.push(Transition(obs, act, next_obs, done, reward, traj_id, t))
    return len(raw)


def _compute_targets(state, config, next_obs, done, n_expert, rng):
    """Branch targets for the union batch (expert rows first).

    One next action per row, drawn from the current policy.
    """
    z = rng.standard_normal((next_obs.shape[0], state.actor.noise_dim))
    next_act = actor_mod.act_batch(state.actor, next_obs, z)
    base = critic_mod.target_base_batch(
        state.target1, state.target2, next_obs, next_act, config.gamma, done)
    eps = state.critic1.clamp_eps
    expert_targets = critic_mod.branch_target(base[:n_expert], "expert", eps)
    beta_targets = critic_mod.branch_target(base[n_expert:], "beta", eps)
    return expert_targets, beta_targets


def update_step(state, expert_views, buffer, config, rng, episode=0):
    """One gradient update; returns the metrics row as a dict.

    Mutates state in place (parameters, optimizer moments, global_step).
    Targets are computed before any parameter changes.
    """
    expert = expert_views.take(
        rng.integers(0, len(expert_views), size=config.batch_expert))
    beta = buffer.sample_arrays(config.batch_beta, rng)

    union_next = np.concatenate([expert.next_obs, beta.next_obs], axis=0)
    union_done = np.concatenate([expert.done, beta.done], axis=0)
    expert_targets, beta_targets = _compute_targets(
        state, config, union_next, union_done, config.batch_expert, rng,
    )

    try:
        loss, g1, g2, diag = critic_mod.critic_loss_and_grads(
            state.critic1, state.critic2, expert.obs, expert.act, expert_targets,
            beta.obs, beta.act, beta_targets,
        )
        net.adam_step(state.opt_critic1, state.critic1.params.flat, g1)
        net.adam_step(state.opt_critic2, state.critic2.params.flat, g2)

        beta_pi = buffer.sample_arrays(config.batch_beta, rng)
        ascent, actor_obj = actor_mod.policy_gradient(
            state.actor, state.critic1, beta_pi.obs, rng)
        net.adam_step(state.opt_actor, state.actor.params.flat, -ascent)
    except NonFiniteError as e:
        e.batch_dump = {
            "episode": episode,
            "global_step": state.global_step + 1,
            "expert_obs": expert.obs.tolist(),
            "expert_act": expert.act.tolist(),
            "beta_obs": beta.obs.tolist(),
            "beta_act": beta.act.tolist(),
        }
        raise

    if config.tau > 0.0:
        critic_mod.soft_update(state.critic1, state.target1, config.tau)
        critic_mod.soft_update(state.critic2, state.target2, config.tau)

    state.global_step += 1
    return {
        "global_step": state.global_step,
        "episode": episode,
        "critic_loss": loss,
        "actor_obj": actor_obj,
        "q_mean_expert": diag["q_mean_expert"],
        "q_mean_beta": diag["q_mean_beta"],
    }


def evaluate(policy, env_id, n_episodes, seed):
    """Deterministic evaluation: episode seeds seed..seed+n-1, noise at 0.

    The episodes run in lockstep: each step asks policy.eval_action for
    the (n, obs_dim) stack of observations, then steps each env with its
    row of the actions. Every env has a fixed horizon, so all episodes
    end on the same step. eval_action works row by row, so each return
    is bit-identical to rolling its episode alone.

    Returns (mean_return, std_return, returns). std is the population
    standard deviation (0 for a single episode).
    """
    if n_episodes < 1:
        raise ValueError(f"need at least one evaluation episode, got {n_episodes}")
    states, obs = zip(*(reset(env_id, seed + i) for i in range(n_episodes)))
    states = list(states)
    returns = [0.0] * n_episodes
    done = False
    while not done:
        actions = policy.eval_action(np.array(obs))
        if len(actions) != n_episodes:
            raise DimensionMismatch(
                f"eval_action gave {len(actions)} actions for {n_episodes} observations")
        obs = []
        for i, action in enumerate(actions):
            states[i], o, reward, done = step(states[i], action)
            returns[i] += reward
            obs.append(o)
    arr = np.asarray(returns)
    return float(arr.mean()), float(arr.std()), returns


class _CsvWriter:
    """CSV file held open for the run; every row is one write, then flushed."""

    def __init__(self, path, columns):
        self.columns = columns
        self._file = open(path, "w", encoding="utf-8")
        self._write(",".join(columns))

    def _write(self, line):
        self._file.write(line + "\n")
        self._file.flush()

    def append(self, row):
        self._write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                             for c in self.columns))

    def close(self):
        self._file.close()


def _write_checkpoints(state, out_dir):
    actor_mod.save_actor(state.actor, os.path.join(out_dir, "actor.ckpt"))
    critic_mod.save_critic(state.critic1, os.path.join(out_dir, "critic1.ckpt"))
    critic_mod.save_critic(state.critic2, os.path.join(out_dir, "critic2.ckpt"))


def train(config, dataset, out_dir=None, verbose=False):
    """Run the full loop for config.max_episodes episodes; returns the
    trained LearnerState.

    When out_dir is given, writes config.json up front, appends
    metrics.csv / eval.csv incrementally, and refreshes checkpoints at
    every evaluation (the last episode is always evaluated). The
    per-update rows go to metrics.csv only; the state's metrics hold
    the evaluation rows.
    """
    config.check_dataset(dataset)
    spec = env_spec(config.env_id)
    rng = np.random.default_rng(config.seed)
    state = build_learner(config, rng)
    buffer = ReplayBuffer(config.buffer_capacity, spec.obs_dim, spec.act_dim)
    expert_views = dataset.training_arrays()

    update_csv = eval_csv = None
    eval_seed = config.seed + EVAL_SEED_OFFSET
    try:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            save_config(asdict(config), os.path.join(out_dir, "config.json"))
            update_csv = _CsvWriter(os.path.join(out_dir, "metrics.csv"), UPDATE_COLUMNS)
            eval_csv = _CsvWriter(os.path.join(out_dir, "eval.csv"), EVAL_COLUMNS)
        for episode in range(1, config.max_episodes + 1):
            t = collect_episode(config.env_id, state.actor, buffer, rng,
                                traj_id=episode)
            state.env_steps += t
            for _ in range(t):
                row = update_step(state, expert_views, buffer, config, rng,
                                  episode=episode)
                if update_csv is not None:
                    update_csv.append(row)
            if episode % config.eval_every == 0 or episode == config.max_episodes:
                mean_ret, std_ret, _ = evaluate(
                    state.actor, config.env_id, config.eval_episodes, eval_seed)
                eval_row = {"episode": episode, "mean_return": mean_ret,
                            "std_return": std_ret}
                state.metrics.eval_rows.append(eval_row)
                if eval_csv is not None:
                    eval_csv.append(eval_row)
                if out_dir is not None:
                    _write_checkpoints(state, out_dir)
                if verbose:
                    print(f"episode {episode}: env_steps={state.env_steps} "
                          f"eval_return={mean_ret:.3f} +- {std_ret:.3f}")
                if config.early_stop_return is not None \
                        and mean_ret >= config.early_stop_return:
                    break
    except NonFiniteError as e:
        if out_dir is not None and getattr(e, "batch_dump", None) is not None:
            net.save_json(e.batch_dump, os.path.join(out_dir, "abort_dump.json"))
        raise
    finally:
        for writer in (update_csv, eval_csv):
            if writer is not None:
                writer.close()

    return state


def generate_expert(env_id, n_target, threshold, seed):
    """Roll scripted-expert episodes until n_target pass the return filter;
    returns the ExpertDataset, which ``data.save_dataset`` writes.

    Episode seeds increment from seed. Fails with pass-rate diagnostics
    if fewer than n_target of 100 * n_target attempts clear threshold.
    Each kept episode is written straight into the dataset's growing
    columns (trajectory ids 0..n_target-1 in the order kept), so at most
    one episode's rollout tuples are alive at a time.
    """
    if n_target < 1:
        raise ValueError(f"need at least one trajectory, got {n_target}")
    if np.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")
    spec = env_spec(env_id)
    max_attempts = 100 * n_target
    columns = DatasetColumns.empty(spec)
    kept = attempts = 0
    ep_seed = seed
    while kept < n_target and attempts < max_attempts:
        raw, total = rollout(env_id, ep_seed,
                             lambda obs: expert_action(env_id, obs))
        attempts += 1
        ep_seed += 1
        if total > threshold:
            # the per-field tuples go with this call, before the next rollout
            columns.extend(*zip(*raw), [kept] * len(raw), range(len(raw)))
            kept += 1
        del raw   # before the next episode is rolled
    if kept < n_target:
        rate = kept / attempts if attempts else 0.0
        raise ExpertGenerationError(
            f"only {kept}/{n_target} trajectories exceeded return "
            f"{threshold} after {attempts} attempts (pass rate {rate:.2%}); "
            f"threshold too high for {env_id}?"
        )
    return ExpertDataset(spec, columns, threshold)
