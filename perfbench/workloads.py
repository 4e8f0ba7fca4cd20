"""The benchmark's workloads: set-up, rollout, training and check phases.

Every workload runs the same phases, so every run reports every
end-to-end metric; the workloads differ in the shape of the training
phase, which is where the update layers sit:

* ``imitate`` trains linereacher-v0 with the acceptance config (default
  batch 128 + 128 = 256 union rows, eval every 10 episodes, run
  directory with CSVs and checkpoints) to the acceptance 90% bar for
  training seeds 1 and 2. Per-call overhead weighs most at this shape.
* ``update-wide`` trains the same task at batch 1024 + 1024 = 2048
  union rows, about 1 MB per activation, evaluating every episode, for
  training seed 1. BLAS flops and allocation dominate there, not
  Python overhead.

The set-up phase (acceptance bar from 100 expert and 100 zero-action
rollouts, the 20-trajectory expert dataset, ``build_learner``) and the
rollout phase (scripted-expert generation, JSONL save and load,
``collect_episode`` and ``evaluate`` of a fixed actor on both envs) do
no batched update work, so an update-path change should leave their
metrics unchanged.

Set-up and rollout repetitions are interleaved with the training seeds
(see ``run_phases``) and reported as medians. The import part of set-up
is timed in fresh interpreters (``time_import``).

The training inputs are the fixed acceptance config, so ``steps_to_bar``
is a deterministic count and the output fingerprints are comparable
across commits; the run seed generates every rollout-phase input.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

import mimicrl
from mimicrl import actor, data, envs, trainer
from mimicrl.errors import MimicError

ACCEPT_ENV = "linereacher-v0"
EXPERT_TRAJECTORIES = 20
EXPERT_THRESHOLD = -50.0
EXPERT_SEED = 1000
# every scripted-expert episode clears this, so the number of generated
# env steps is known in advance (trajectories x horizon)
KEEP_ALL_THRESHOLD = -1e6
ROLLOUT_ENVS = ("linereacher-v0", "pendulum-v0")
# tracing overhead (traced runs only): pairs of a traced and an untraced
# pass over a unit of update work and over OVERHEAD_EPISODES of rollout
OVERHEAD_PAIRS = 15
OVERHEAD_EPISODES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mimicrl; "
                "print(time.perf_counter() - t)")

# functions the traced run wraps, as "<module>.<function>"
MEASURED = (
    "net.forward_batch", "net.backward_batch", "net.adam_step",
    "net.input_grad_batch", "net.forward", "net.save_checkpoint",
    "net.load_checkpoint",
    "critic.soft_update", "critic.target_base_batch", "critic.q_batch",
    "critic.critic_loss_and_grads",
    "actor.act_batch", "actor.act", "actor.policy_gradient",
    "envs.reset", "envs.step", "envs.expert_action", "envs.rollout",
    "data.ReplayBuffer.push", "data.ReplayBuffer.sample_arrays",
    "data.save_dataset", "data.load_dataset",
    "trainer.build_learner", "trainer.train", "trainer.update_step",
    "trainer._compute_targets", "trainer.collect_episode", "trainer.evaluate",
    "trainer.generate_expert", "trainer._write_checkpoints",
    "trainer._CsvWriter.append",
)


@dataclass(frozen=True)
class Workload:
    name: str
    train_seeds: tuple
    batch: int                 # batch_expert = batch_beta
    eval_every: int
    max_episodes: int          # per-seed budget; a seed that misses stops here
    setup_reps_per_slot: int = 2
    bar_rollouts: int = 100
    rollout_trajectories: int = 50
    rollout_collect: int = 10
    rollout_eval: int = 20
    overhead_updates: int = 40  # unit of update work, about 0.15 s

    def smoke(self):
        """A few-second version with the same phases, for the self-test."""
        return replace(self, train_seeds=self.train_seeds[:1], max_episodes=1,
                       eval_every=1, setup_reps_per_slot=1, bar_rollouts=2,
                       rollout_trajectories=2, rollout_collect=1, rollout_eval=2,
                       overhead_updates=1)


WORKLOADS = {
    # seed 2 (about 12 s) first and seed 1 (about 40 s) second, so the
    # three slots fall near the start, a third and the end of the run
    "imitate": Workload("imitate", train_seeds=(2, 1), batch=128, eval_every=10,
                        max_episodes=100),
    # one training seed gives two slots, so three set-ups per slot
    "update-wide": Workload("update-wide", train_seeds=(1,), batch=1024,
                            eval_every=1, max_episodes=10, setup_reps_per_slot=3,
                            overhead_updates=6),
}


class Tally:
    """Operations attempted, MimicErrors raised, failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.errors = []       # one entry per operation that raised
        self.problems = []     # output checks that failed

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; a MimicError counts as failed, returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except MimicError as e:
            self.errors.append(f"{fn.__name__}: {type(e).__name__}: {e}")
            return None

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def time_import():
    """Seconds ``import mimicrl`` takes in a fresh interpreter.

    The child reads and writes bytecode in this process's cache
    directory (``sys.pycache_prefix``), so once a first call has filled
    it every later call loads cached bytecode and none compiles.
    """
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(mimicrl.__file__)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if sys.pycache_prefix:
        env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def acceptance_bar(n_rollouts):
    """The 90% bar exactly as tests/test_acceptance.py computes it."""
    expert_returns = [envs.rollout(ACCEPT_ENV, s,
                                   lambda o: envs.expert_action(ACCEPT_ENV, o))[1]
                      for s in range(n_rollouts)]
    zero_returns = [envs.rollout(ACCEPT_ENV, s, lambda o: np.zeros(1))[1]
                    for s in range(n_rollouts)]
    expert_mean = float(np.mean(expert_returns))
    zero_mean = float(np.mean(zero_returns))
    return zero_mean + 0.9 * (expert_mean - zero_mean), expert_mean, zero_mean


def train_config(w, seed, bar):
    return trainer.TrainConfig(env_id=ACCEPT_ENV, seed=seed,
                               max_episodes=w.max_episodes, batch_expert=w.batch,
                               batch_beta=w.batch, eval_every=w.eval_every,
                               early_stop_return=bar)


def setup_once(w, tally):
    """One set-up; returns (seconds, bar, expert dataset)."""
    t0 = time.perf_counter()
    bar, expert_mean, zero_mean = acceptance_bar(w.bar_rollouts)
    dataset = tally.attempt(trainer.generate_expert, ACCEPT_ENV,
                            EXPERT_TRAJECTORIES, EXPERT_THRESHOLD, seed=EXPERT_SEED)
    config = train_config(w, w.train_seeds[0], bar)
    trainer.build_learner(config, np.random.default_rng(config.seed))
    seconds = time.perf_counter() - t0
    tally.require(np.isfinite(bar) and expert_mean > zero_mean,
                  f"acceptance bar {bar} (expert {expert_mean}, zero {zero_mean})")
    return seconds, bar, dataset


def _same_dataset(a, b):
    if (a.spec.env_id, a.filter_threshold, a.return_stats, a.n_trajectories) != \
            (b.spec.env_id, b.filter_threshold, b.return_stats, b.n_trajectories):
        return False
    for attr in ("obs", "act", "next_obs", "done", "reward", "traj_id", "t"):
        x = np.array([getattr(tr, attr) for tr in a.transitions])
        y = np.array([getattr(tr, attr) for tr in b.transitions])
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


def _rollout_rep(w, env_id, rng, work_dir, tally):
    """One generate/save/load/collect/evaluate pass on env_id.

    Returns (env steps, rollout seconds, roundtrip seconds).
    """
    spec = envs.env_spec(env_id)
    gen_seed, eval_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    # the fixed actor goes through a checkpoint, as the eval command loads it
    ckpt = os.path.join(work_dir, f"{env_id}-actor.ckpt")
    actor.save_actor(actor.make_actor(spec, rng), ckpt)
    policy = actor.load_actor(ckpt)
    buffer = data.ReplayBuffer(w.rollout_collect * spec.horizon, spec.obs_dim,
                               spec.act_dim)

    t0 = time.perf_counter()
    dataset = tally.attempt(trainer.generate_expert, env_id, w.rollout_trajectories,
                            KEEP_ALL_THRESHOLD, seed=gen_seed)
    steps = len(dataset) if dataset is not None else 0
    for i in range(w.rollout_collect):
        steps += tally.attempt(trainer.collect_episode, env_id, policy, buffer,
                               rng, traj_id=i) or 0
    evaluated = tally.attempt(trainer.evaluate, policy, env_id, w.rollout_eval,
                              eval_seed)
    rollout_s = time.perf_counter() - t0
    if evaluated is not None:
        steps += w.rollout_eval * spec.horizon
        tally.require(all(np.isfinite(evaluated[2])),
                      f"{env_id}: non-finite eval return {evaluated[2]}")

    roundtrip_s = 0.0
    if dataset is not None:
        path = os.path.join(work_dir, f"{env_id}.jsonl")
        t0 = time.perf_counter()
        tally.attempt(data.save_dataset, dataset, path)
        loaded = tally.attempt(data.load_dataset, path)
        roundtrip_s = time.perf_counter() - t0
        tally.require(loaded is not None and _same_dataset(dataset, loaded),
                      f"{env_id}: dataset changed in a save/load round trip")
    return steps, rollout_s, roundtrip_s


def rollout_window(w, rng, seconds, work_dir, tally, samples):
    """Repeat rollout passes over both envs for seconds (at least one)."""
    deadline = time.perf_counter() + seconds
    while True:
        steps = rollout_s = roundtrip_s = 0.0
        for env_id in ROLLOUT_ENVS:
            s, r, rt = _rollout_rep(w, env_id, rng, work_dir, tally)
            steps, rollout_s, roundtrip_s = steps + s, rollout_s + r, roundtrip_s + rt
        samples.rollout_steps += int(steps)
        samples.rollout_steps_per_s.append(steps / rollout_s)
        samples.roundtrip_s.append(roundtrip_s)
        if time.perf_counter() >= deadline:
            return


def train_seed(w, seed, bar, dataset, work_dir, tally):
    """Train one seed to the bar; returns its record.

    A seed whose training raises counts as a miss at its whole budget.
    """
    config = train_config(w, seed, bar)
    out_dir = fresh_dir(os.path.join(work_dir, f"seed{seed}"))
    t0 = time.perf_counter()
    result = tally.attempt(trainer.train, config, dataset, out_dir=out_dir)
    run = {"seed": seed, "train_s": time.perf_counter() - t0,
           "out_dir": out_dir, "trained": result is not None, "hit": False,
           "eval_episodes": config.eval_episodes,
           "env_steps": w.max_episodes * envs.env_spec(ACCEPT_ENV).horizon}
    if result is not None:
        last = result.metrics.eval_rows[-1]
        run.update(hit=last["mean_return"] >= bar, env_steps=result.env_steps,
                   evals=len(result.metrics.eval_rows),
                   last_return=last["mean_return"])
    return run


@dataclass
class Samples:
    """Measurements collected over one run, one entry per repetition."""

    import_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    rollout_steps_per_s: list = field(default_factory=list)
    roundtrip_s: list = field(default_factory=list)
    rollout_steps: int = 0
    runs: list = field(default_factory=list)
    dataset: object = None     # the last set-up's expert dataset


def run_phases(w, seed, seconds, work_dir, tally, phase):
    """Run set-up, rollout and training, interleaved; returns Samples.

    The host's speed drifts over seconds to minutes, so the set-up and
    rollout repetitions are spread over the whole run: one slot before
    each training seed and one after the last, each with
    setup_reps_per_slot set-ups (each with a fresh-interpreter import)
    and an equal share of the rollout seconds. phase(name) is a context
    manager around each phase.
    """
    samples = Samples()
    rng = np.random.default_rng([seed, 7])
    time_import()   # fills the bytecode cache; not a sample
    n_slots = len(w.train_seeds) + 1
    for slot in range(n_slots):
        with phase("bench.setup"):
            for _ in range(w.setup_reps_per_slot):
                samples.import_s.append(time_import())
                setup_s, bar, dataset = setup_once(w, tally)
                samples.setup_s.append(setup_s)
        if dataset is None:
            raise SystemExit(f"expert dataset generation failed: {tally.errors}")
        with phase("bench.rollout"):
            rollout_window(w, rng, seconds / n_slots, work_dir, tally, samples)
        if slot < len(w.train_seeds):
            with phase("bench.train"):
                samples.runs.append(train_seed(w, w.train_seeds[slot], bar, dataset,
                                               work_dir, tally))
    samples.dataset = dataset
    return samples


def overhead_units(w, dataset):
    """Fixed units of work for the tracing overhead, as zero-argument calls.

    "update_step": overhead_updates updates at the workload's batch shape
    on a learner whose buffer holds one episode. "rollout": on each
    rollout env, scripted-expert generation and evaluation of a fixed
    actor, OVERHEAD_EPISODES episodes each, with fixed seeds. Every call
    goes through the module attribute, so an installed tracer sees it.
    """
    rng = np.random.default_rng(11)
    config = train_config(w, w.train_seeds[0], None)
    state = trainer.build_learner(config, rng)
    spec = envs.env_spec(ACCEPT_ENV)
    buffer = data.ReplayBuffer(spec.horizon, spec.obs_dim, spec.act_dim)
    trainer.collect_episode(ACCEPT_ENV, state.actor, buffer, rng)
    expert_views = dataset.training_arrays()
    policies = {env_id: actor.make_actor(envs.env_spec(env_id), rng)
                for env_id in ROLLOUT_ENVS}

    def update_step():
        for _ in range(w.overhead_updates):
            trainer.update_step(state, expert_views, buffer, config, rng)

    def rollout():
        for env_id, policy in policies.items():
            trainer.generate_expert(env_id, OVERHEAD_EPISODES, KEEP_ALL_THRESHOLD, seed=3)
            trainer.evaluate(policy, env_id, OVERHEAD_EPISODES, 5)

    return {"update_step": update_step, "rollout": rollout}


def check_and_fingerprint(runs, tally):
    """Reload each trained actor from its checkpoint and re-evaluate it.

    The reloaded actor must reproduce the last eval return bit for bit.
    Returns {"seed<n>": {file: sha256}} over each run's outputs.
    """
    fingerprint = {}
    for run in runs:
        if not run["trained"]:
            continue
        files = {f: os.path.join(run["out_dir"], f)
                 for f in ("metrics.csv", "eval.csv", "actor.ckpt")}
        reloaded = actor.load_actor(files["actor.ckpt"])
        mean_return, _, returns = trainer.evaluate(
            reloaded, ACCEPT_ENV, run["eval_episodes"],
            run["seed"] + trainer.EVAL_SEED_OFFSET)
        tally.require(np.all(np.isfinite(returns)), f"seed {run['seed']}: non-finite eval")
        tally.require(mean_return == run["last_return"],
                      f"seed {run['seed']}: reloaded actor returns {mean_return}, "
                      f"training's last eval {run['last_return']}")
        fingerprint[f"seed{run['seed']}"] = {f: _sha256(p) for f, p in files.items()}
    return fingerprint
