"""Transition storage: replay buffer, expert datasets, JSONL files.

The expert dataset file format is one JSON object per line. The first
line is metadata::

    {"env_id", "obs_dim", "act_dim", "action_low", "action_high",
     "horizon", "n_trajectories", "filter_threshold",
     "return_mean", "return_min", "return_max"}

and every following line is one transition::

    {"traj_id", "t", "obs", "act", "next_obs", "done", "reward"}

json round-trips float64 exactly (repr encoding), so save followed by
load reproduces every value bit for bit. ``load_dataset`` takes the env
from the registry, checks every value's JSON type, and requires line 1
to equal ``metadata`` of the dataset it read (return stats to 1e-9).

Of stored data, only expert datasets keep rewards. The return filter runs
once, in ``trainer.generate_expert``; ExpertDataset checks that every
trajectory it holds clears the recorded filter threshold. The replay
buffer does not store rewards at all, and training code receives
TransitionArrays views, which have no reward field, so no update can
read a reward.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import net
from .envs import env_spec
from .errors import DatasetFormatError, DimensionMismatch, UnknownEnvError

# each line's keys, in file order, with their JSON kinds (net.check_json_types)
_METADATA_KINDS = {
    "env_id": "str", "obs_dim": "int", "act_dim": "int", "action_low": "floats",
    "action_high": "floats", "horizon": "int", "n_trajectories": "int",
    "filter_threshold": "float", "return_mean": "float", "return_min": "float",
    "return_max": "float",
}
METADATA_KEYS = tuple(_METADATA_KINDS)
_TRANSITION_KINDS = {"traj_id": "int", "t": "int", "obs": "floats", "act": "floats",
                     "next_obs": "floats", "done": "bool", "reward": "float"}


@dataclass
class Transition:
    obs: np.ndarray
    act: np.ndarray
    next_obs: np.ndarray
    done: bool
    reward: float          # for filtering expert data; the replay buffer drops it
    traj_id: int = 0
    t: int = 0


@dataclass
class TransitionArrays:
    """Reward-stripped batch view handed to training code."""

    obs: np.ndarray        # (n, obs_dim)
    act: np.ndarray        # (n, act_dim)
    next_obs: np.ndarray   # (n, obs_dim)
    done: np.ndarray       # (n,) bool

    def __len__(self):
        return self.obs.shape[0]

    def take(self, idx):
        """The rows at the indices idx, as a new TransitionArrays."""
        return TransitionArrays(self.obs[idx], self.act[idx], self.next_obs[idx],
                                self.done[idx])


class ReplayBuffer:
    """Fixed-capacity FIFO ring over (obs, act, next_obs, done).

    Once full, the oldest entry is overwritten first. A pushed
    Transition's reward, traj_id and t are not stored. Sampling is
    uniform with replacement and reproducible from the generator state.
    """

    def __init__(self, capacity, obs_dim, act_dim):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self._rows = TransitionArrays(
            obs=np.zeros((capacity, obs_dim)),
            act=np.zeros((capacity, act_dim)),
            next_obs=np.zeros((capacity, obs_dim)),
            done=np.zeros(capacity, dtype=bool),
        )
        self._write = 0
        self._size = 0

    def __len__(self):
        return self._size

    def push(self, tr):
        obs = np.asarray(tr.obs, dtype=np.float64)
        act = np.asarray(tr.act, dtype=np.float64)
        next_obs = np.asarray(tr.next_obs, dtype=np.float64)
        if obs.shape != (self.obs_dim,) or next_obs.shape != (self.obs_dim,):
            raise DimensionMismatch(
                f"observation shape {obs.shape}/{next_obs.shape} does not match "
                f"obs_dim {self.obs_dim}"
            )
        if act.shape != (self.act_dim,):
            raise DimensionMismatch(
                f"action shape {act.shape} does not match act_dim {self.act_dim}"
            )
        i = self._write
        rows = self._rows
        rows.obs[i] = obs
        rows.act[i] = act
        rows.next_obs[i] = next_obs
        rows.done[i] = bool(tr.done)
        self._write = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_arrays(self, batch_size, rng):
        """Uniform-with-replacement batch, as reward-free arrays."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        return self._rows.take(rng.integers(0, self._size, size=batch_size))


class ExpertDataset:
    """Static buffer of filtered expert trajectories plus env metadata."""

    def __init__(self, spec, transitions, filter_threshold):
        self.spec = spec
        self.transitions = list(transitions)
        self.filter_threshold = float(filter_threshold)
        by_id = {}
        for tr in self.transitions:
            by_id.setdefault(tr.traj_id, []).append(tr)
        if not by_id:
            raise DatasetFormatError("dataset contains no trajectories")
        returns = []
        for traj_id in sorted(by_id):
            traj = sorted(by_id[traj_id], key=lambda tr: tr.t)
            ts = [tr.t for tr in traj]
            if ts != list(range(spec.horizon)):
                want, got = Counter(range(spec.horizon)), Counter(ts)
                raise DatasetFormatError(
                    f"trajectory {traj_id} is incomplete: expected t = 0..{spec.horizon - 1}"
                    f" once each; missing t = {sorted((want - got).elements())}, extra "
                    f"t = {sorted((got - want).elements())}",
                    record=_first_misplaced(by_id[traj_id], spec.horizon),
                )
            for tr in traj:
                if tr.done != (tr.t == spec.horizon - 1):
                    raise DatasetFormatError(
                        f"trajectory {traj_id}: done flag at t={tr.t} "
                        f"inconsistent with horizon {spec.horizon}", record=tr,
                    )
            returns.append(sum(tr.reward for tr in traj))
        if min(returns) <= self.filter_threshold:
            worst = sorted(by_id)[returns.index(min(returns))]
            raise DatasetFormatError(
                f"trajectory return {min(returns)} does not exceed the recorded "
                f"filter threshold {self.filter_threshold}", record=by_id[worst][0],
            )
        self.n_trajectories = len(returns)
        self.return_stats = (
            float(np.mean(returns)), float(min(returns)), float(max(returns)),
        )
        self._arrays = TransitionArrays(
            obs=np.array([tr.obs for tr in self.transitions]),
            act=np.array([tr.act for tr in self.transitions]),
            next_obs=np.array([tr.next_obs for tr in self.transitions]),
            done=np.array([tr.done for tr in self.transitions], dtype=bool),
        )
        obs_dim, act_dim = self._arrays.obs.shape[1], self._arrays.act.shape[1]
        if obs_dim != spec.obs_dim or act_dim != spec.act_dim:
            raise DatasetFormatError(
                f"transition dims {obs_dim}/{act_dim} do not match spec dims "
                f"{spec.obs_dim}/{spec.act_dim}"
            )

    def __len__(self):
        return len(self.transitions)

    def training_arrays(self):
        """Reward-stripped view of every transition."""
        return self._arrays


def _first_misplaced(traj, horizon):
    """The first record of traj whose t repeats an earlier record's or lies
    outside 0..horizon-1; the first record if none does (records are missing)."""
    seen = set()
    for tr in traj:
        if tr.t in seen or not 0 <= tr.t < horizon:
            return tr
        seen.add(tr.t)
    return traj[0]


def metadata(dataset):
    """The dataset file's line 1: env metadata and return stats, keyed
    in METADATA_KEYS order."""
    spec = dataset.spec
    mean, lo, hi = dataset.return_stats
    return {
        "env_id": spec.env_id,
        "obs_dim": spec.obs_dim,
        "act_dim": spec.act_dim,
        "action_low": spec.action_low.tolist(),
        "action_high": spec.action_high.tolist(),
        "horizon": spec.horizon,
        "n_trajectories": dataset.n_trajectories,
        "filter_threshold": dataset.filter_threshold,
        "return_mean": mean,
        "return_min": lo,
        "return_max": hi,
    }


def save_dataset(dataset, path):
    """Write dataset to path as JSON lines, atomically."""
    with net.atomic_open(path) as f:
        f.write(json.dumps(metadata(dataset)) + "\n")
        for tr in dataset.transitions:
            rec = {
                "traj_id": tr.traj_id,
                "t": tr.t,
                "obs": np.asarray(tr.obs).tolist(),
                "act": np.asarray(tr.act).tolist(),
                "next_obs": np.asarray(tr.next_obs).tolist(),
                "done": bool(tr.done),
                "reward": float(tr.reward),
            }
            f.write(json.dumps(rec) + "\n")


def _parse_line(raw, line_no, kinds):
    """The JSON object on line line_no, once it has every key of kinds and
    each value has its kind's JSON type."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"malformed JSON ({e.msg})", line=line_no) from None
    if not isinstance(doc, dict):
        raise DatasetFormatError("expected a JSON object", line=line_no)
    if not doc.keys() >= kinds.keys():
        missing = [k for k in kinds if k not in doc]
        raise DatasetFormatError(f"missing keys {missing}", line=line_no)
    try:
        net.check_json_types(doc, kinds)
    except ValueError as e:
        raise DatasetFormatError(f"bad value: {e}", line=line_no) from None
    return doc


def load_dataset(path):
    """Read a dataset file; its env must be registered, and line 1 must
    equal ``metadata`` of what the records hold."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise DatasetFormatError("empty dataset file", line=1)
    meta = _parse_line(lines[0], 1, _METADATA_KINDS)
    try:
        spec = env_spec(meta["env_id"])
    except UnknownEnvError as e:
        raise DatasetFormatError(e.args[0], line=1) from None
    transitions = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            raise DatasetFormatError("blank line inside dataset", line=line_no)
        rec = _parse_line(raw, line_no, _TRANSITION_KINDS)
        tr = Transition(
            obs=np.asarray(rec["obs"], dtype=np.float64),
            act=np.asarray(rec["act"], dtype=np.float64),
            next_obs=np.asarray(rec["next_obs"], dtype=np.float64),
            done=rec["done"], reward=float(rec["reward"]),
            traj_id=rec["traj_id"], t=rec["t"],
        )
        if tr.obs.shape != (spec.obs_dim,) or tr.next_obs.shape != (spec.obs_dim,):
            raise DatasetFormatError(
                f"obs length {tr.obs.shape} does not match obs_dim {spec.obs_dim}",
                line=line_no,
            )
        if tr.act.shape != (spec.act_dim,):
            raise DatasetFormatError(
                f"act length {tr.act.shape} does not match act_dim {spec.act_dim}",
                line=line_no,
            )
        transitions.append(tr)
    try:
        dataset = ExpertDataset(spec, transitions, meta["filter_threshold"])
    except DatasetFormatError as e:
        if e.record is None:
            raise
        line = next(n for n, tr in enumerate(transitions, start=2) if tr is e.record)
        raise DatasetFormatError(e.args[0], line=line) from None
    for key, value in metadata(dataset).items():
        recorded = meta[key]
        if recorded != value and not (key.startswith("return_")
                                      and abs(recorded - value) <= 1e-9):
            raise DatasetFormatError(
                f"{key} is {recorded!r}, but the env and records give {value!r}",
                line=1,
            )
    return dataset
