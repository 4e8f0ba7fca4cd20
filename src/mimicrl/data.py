"""Transition storage: replay buffer, expert datasets, JSONL files.

The expert dataset file format is one JSON object per line. The first
line is metadata::

    {"env_id", "obs_dim", "act_dim", "action_low", "action_high",
     "horizon", "n_trajectories", "filter_threshold",
     "return_mean", "return_min", "return_max"}

and every following line is one transition, in any order::

    {"traj_id", "t", "obs", "act", "next_obs", "done", "reward"}

json round-trips float64 exactly (repr encoding), so save followed by
load reproduces every value bit for bit. ``load_dataset`` takes the env
from the registry, checks every value's JSON type, and requires line 1
to equal ``metadata`` of the dataset it read (return stats to 1e-9).

Of stored data, only expert datasets keep rewards. The return filter runs
once, in ``trainer.generate_expert``; ExpertDataset checks, in (traj_id, t)
order, that every trajectory is t = 0..horizon-1 with done only at the
last and clears the recorded filter threshold. The replay buffer does not
store rewards at all, and training code receives TransitionArrays views,
which have no reward field, so no update can read a reward.
"""

from __future__ import annotations

import json
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


@dataclass(slots=True)
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


# rows the replay buffer's columns hold before their first doubling
_FIRST_ROWS = 1024


def _grown(rows, n):
    """rows' columns copied into zeroed columns of n rows."""
    def column(old):
        new = np.zeros((n,) + old.shape[1:], dtype=old.dtype)
        new[:len(old)] = old
        return new
    return TransitionArrays(column(rows.obs), column(rows.act),
                            column(rows.next_obs), column(rows.done))


class ReplayBuffer:
    """Fixed-capacity FIFO ring over (obs, act, next_obs, done).

    Once full, the oldest entry is overwritten first. A pushed
    Transition's reward, traj_id and t are not stored. Sampling is
    uniform with replacement and reproducible from the generator state.
    The columns start at _FIRST_ROWS rows and double as rows arrive, up
    to capacity, so a large capacity costs nothing until it fills.
    """

    def __init__(self, capacity, obs_dim, act_dim):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        n = min(capacity, _FIRST_ROWS)
        self._rows = TransitionArrays(
            obs=np.zeros((n, obs_dim)),
            act=np.zeros((n, act_dim)),
            next_obs=np.zeros((n, obs_dim)),
            done=np.zeros(n, dtype=bool),
        )
        self._shapes = ((obs_dim,), (obs_dim,), (act_dim,))
        self._write = 0
        self._size = 0

    def __len__(self):
        return self._size

    def push(self, tr):
        obs = np.asarray(tr.obs, dtype=np.float64)
        act = np.asarray(tr.act, dtype=np.float64)
        next_obs = np.asarray(tr.next_obs, dtype=np.float64)
        if (obs.shape, next_obs.shape, act.shape) != self._shapes:
            raise DimensionMismatch(
                f"obs/next_obs/act shapes {obs.shape}/{next_obs.shape}/{act.shape} "
                f"do not match obs_dim {self.obs_dim} and act_dim {self.act_dim}"
            )
        i = self._write
        rows = self._rows
        if i == len(rows):
            rows = self._rows = _grown(rows, min(2 * i, self.capacity))
        rows.obs[i] = obs
        rows.act[i] = act
        rows.next_obs[i] = next_obs
        rows.done[i] = bool(tr.done)
        i += 1
        # until the ring first wraps, the row count is the write position
        if i > self._size:
            self._size = i
        self._write = 0 if i == self.capacity else i

    def sample_arrays(self, batch_size, rng):
        """Uniform-with-replacement batch, as reward-free arrays."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        return self._rows.take(rng.integers(0, self._size, size=batch_size))


class ExpertDataset:
    """Static buffer of filtered expert trajectories plus env metadata; a
    fault's DatasetFormatError.index is the offending record's position."""

    def __init__(self, spec, transitions, filter_threshold):
        self.spec = spec
        self.transitions = trs = list(transitions)
        self.filter_threshold = float(filter_threshold)
        if not trs:
            raise DatasetFormatError("dataset contains no trajectories")
        n, horizon = len(trs), spec.horizon
        ids = np.array([tr.traj_id for tr in trs])
        ts = np.array([tr.t for tr in trs])
        done = np.array([tr.done for tr in trs], dtype=bool)
        order = np.lexsort((ts, ids))      # stable: the records in (traj_id, t) order
        # position j must hold step j % horizon of the trajectory whose
        # first record is at position j - j % horizon
        j = np.arange(n)
        step = j % horizon
        found = ids[order], ts[order], done[order]
        want = found[0][j - step], step, step == horizon - 1
        misplaced = np.flatnonzero(np.any([f != w for f, w in zip(found, want)], axis=0))
        if len(misplaced):
            k = misplaced[0]
            raise DatasetFormatError(
                f"expected (traj_id, t, done) = ({', '.join(str(c[k]) for c in want)}), "
                f"found ({', '.join(str(c[k]) for c in found)})", index=int(order[k]),
            )
        # what the position check misses: a last trajectory cut short and, at
        # horizon 1, a traj_id that starts two trajectories
        firsts = found[0][::horizon]
        miscounted = np.flatnonzero(np.r_[False, firsts[1:] == firsts[:-1]]
                                    | (j[::horizon] + horizon > n))
        if len(miscounted):
            k = miscounted[0] * horizon
            raise DatasetFormatError(
                f"trajectory {found[0][k]} does not hold t = 0..{horizon - 1} once "
                f"each", index=int(order[k]),
            )
        # each trajectory's return, summed in t order
        rewards = [trs[i].reward for i in order.tolist()]
        returns = [sum(rewards[k:k + horizon]) for k in range(0, n, horizon)]
        if min(returns) <= self.filter_threshold:
            k = returns.index(min(returns)) * horizon
            raise DatasetFormatError(
                f"trajectory return {min(returns)} does not exceed the recorded "
                f"filter threshold {self.filter_threshold}", index=int(order[k]),
            )
        del ids, ts, order, rewards, j, step, found, want   # before the arrays below
        self.n_trajectories = len(returns)
        self.return_stats = (
            float(np.mean(returns)), float(min(returns)), float(max(returns)),
        )
        self._arrays = TransitionArrays(
            obs=np.array([tr.obs for tr in trs]),
            act=np.array([tr.act for tr in trs]),
            next_obs=np.array([tr.next_obs for tr in trs]),
            done=done,
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
        first = f.readline()
        if not first:
            raise DatasetFormatError("empty dataset file", line=1)
        meta = _parse_line(first, 1, _METADATA_KINDS)
        try:
            spec = env_spec(meta["env_id"])
        except UnknownEnvError as e:
            raise DatasetFormatError(e.args[0], line=1) from None
        transitions = []
        for line_no, raw in enumerate(f, start=2):
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
        if e.index is None:
            raise
        raise DatasetFormatError(e.args[0], line=e.index + 2) from None
    for key, value in metadata(dataset).items():
        recorded = meta[key]
        if recorded != value and not (key.startswith("return_")
                                      and abs(recorded - value) <= 1e-9):
            raise DatasetFormatError(
                f"{key} is {recorded!r}, but the env and records give {value!r}",
                line=1,
            )
    return dataset
