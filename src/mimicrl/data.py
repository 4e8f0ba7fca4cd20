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

An expert dataset stores each field once, as a column; its records are
row views over those columns, and ``load_dataset`` writes each checked
line straight into them, so no per-record arrays are built.
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


@dataclass(slots=True)
class _Columns:
    """An expert dataset's fields, one column each; row i is record i."""

    obs: np.ndarray        # (n, obs_dim) float64
    act: np.ndarray        # (n, act_dim) float64
    next_obs: np.ndarray   # (n, obs_dim) float64
    done: np.ndarray       # (n,) bool
    reward: np.ndarray     # (n,) float64, the one column a record writes
    traj_id: list          # Python ints, so ids past int64 still work
    t: list


def _stacked(records):
    """The records' fields, stacked into columns."""
    def column(name, dtype):
        return np.array([getattr(tr, name) for tr in records], dtype=dtype)
    return _Columns(column("obs", np.float64), column("act", np.float64),
                    column("next_obs", np.float64), column("done", bool),
                    column("reward", np.float64),
                    [tr.traj_id for tr in records], [tr.t for tr in records])


def _resize(columns, n):
    """Give columns' arrays n rows in place, any new rows zero. They are
    reallocated, so no view of them may exist yet."""
    for column in (columns.obs, columns.act, columns.next_obs, columns.done,
                   columns.reward):
        column.resize((n,) + column.shape[1:], refcheck=False)


class _Record:
    """Record i of an expert dataset, read from its columns.

    It holds the columns and i, never the dataset, so it is freed without
    a cyclic collection. obs, act and next_obs are read-only row views;
    reward reads and writes the reward column.
    """

    __slots__ = ("_columns", "_i")

    def __init__(self, columns, i):
        self._columns = columns
        self._i = i

    obs = property(lambda self: self._columns.obs[self._i])
    act = property(lambda self: self._columns.act[self._i])
    next_obs = property(lambda self: self._columns.next_obs[self._i])
    done = property(lambda self: bool(self._columns.done[self._i]))
    traj_id = property(lambda self: self._columns.traj_id[self._i])
    t = property(lambda self: self._columns.t[self._i])

    @property
    def reward(self):
        return float(self._columns.reward[self._i])

    @reward.setter
    def reward(self, value):
        self._columns.reward[self._i] = value


class ExpertDataset:
    """Static buffer of filtered expert trajectories plus env metadata.

    Each field is stored once, as a column: ``training_arrays()`` returns
    the obs, act, next_obs and done columns (read-only), and
    ``transitions[i]`` is a record whose fields read row i. The given
    records are stacked into columns, then checked in (traj_id, t) order;
    a fault's DatasetFormatError.index is the offending record's position.
    """

    def __init__(self, spec, transitions, filter_threshold):
        self._build(spec, _stacked(list(transitions)), filter_threshold)

    @classmethod
    def _of_columns(cls, spec, columns, filter_threshold):
        """The dataset whose records are the rows of columns, checked."""
        dataset = cls.__new__(cls)
        dataset._build(spec, columns, filter_threshold)
        return dataset

    def _build(self, spec, columns, filter_threshold):
        self.spec = spec
        self.filter_threshold = float(filter_threshold)
        n, horizon = len(columns.t), spec.horizon
        if not n:
            raise DatasetFormatError("dataset contains no trajectories")
        ids = np.array(columns.traj_id)
        ts = np.array(columns.t)
        order = np.lexsort((ts, ids))      # stable: the records in (traj_id, t) order
        found = ids[order], ts[order], columns.done[order]
        del ids, ts
        # position j must hold step j % horizon of the trajectory whose
        # first record is at position j - j % horizon
        j = np.arange(n)
        step = j % horizon
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
        del j, step, found, want
        # each trajectory's return, summed as Python floats in t order
        rewards = columns.reward[order]
        returns = [sum(rewards[k:k + horizon].tolist()) for k in range(0, n, horizon)]
        if min(returns) <= self.filter_threshold:
            k = returns.index(min(returns)) * horizon
            raise DatasetFormatError(
                f"trajectory return {min(returns)} does not exceed the recorded "
                f"filter threshold {self.filter_threshold}", index=int(order[k]),
            )
        del order, rewards   # the check's arrays go before the records come
        self.n_trajectories = len(returns)
        self.return_stats = (
            float(np.mean(returns)), float(min(returns)), float(max(returns)),
        )
        obs_dim, act_dim = columns.obs.shape[1], columns.act.shape[1]
        if obs_dim != spec.obs_dim or act_dim != spec.act_dim:
            raise DatasetFormatError(
                f"transition dims {obs_dim}/{act_dim} do not match spec dims "
                f"{spec.obs_dim}/{spec.act_dim}"
            )
        self._arrays = TransitionArrays(columns.obs, columns.act, columns.next_obs,
                                        columns.done)
        for column in (columns.obs, columns.act, columns.next_obs, columns.done):
            column.flags.writeable = False
        self._columns = columns
        self.transitions = [_Record(columns, i) for i in range(n)]

    def __len__(self):
        return len(self.transitions)

    def training_arrays(self):
        """Reward-stripped view of every transition: the dataset's own
        read-only columns."""
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
    cols = dataset._columns
    with net.atomic_open(path) as f:
        f.write(json.dumps(metadata(dataset)) + "\n")
        for traj_id, t, obs, act, next_obs, done, reward in zip(
                cols.traj_id, cols.t, cols.obs, cols.act, cols.next_obs, cols.done,
                cols.reward):
            rec = {
                "traj_id": traj_id,
                "t": t,
                "obs": obs.tolist(),
                "act": act.tolist(),
                "next_obs": next_obs.tolist(),
                "done": bool(done),
                "reward": float(reward),
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
        # each checked line goes straight into columns that start at
        # _FIRST_ROWS rows and double as lines arrive
        cols = _Columns(np.zeros((_FIRST_ROWS, spec.obs_dim)),
                        np.zeros((_FIRST_ROWS, spec.act_dim)),
                        np.zeros((_FIRST_ROWS, spec.obs_dim)),
                        np.zeros(_FIRST_ROWS, dtype=bool), np.zeros(_FIRST_ROWS), [], [])
        n = 0
        for line_no, raw in enumerate(f, start=2):
            if not raw.strip():
                raise DatasetFormatError("blank line inside dataset", line=line_no)
            rec = _parse_line(raw, line_no, _TRANSITION_KINDS)
            obs, act, next_obs = rec["obs"], rec["act"], rec["next_obs"]
            if len(obs) != spec.obs_dim or len(next_obs) != spec.obs_dim:
                raise DatasetFormatError(
                    f"obs length {(len(obs),)} does not match obs_dim {spec.obs_dim}",
                    line=line_no,
                )
            if len(act) != spec.act_dim:
                raise DatasetFormatError(
                    f"act length {(len(act),)} does not match act_dim {spec.act_dim}",
                    line=line_no,
                )
            if n == len(cols.reward):
                _resize(cols, 2 * n)
            cols.obs[n] = obs
            cols.act[n] = act
            cols.next_obs[n] = next_obs
            cols.done[n] = rec["done"]
            cols.reward[n] = rec["reward"]
            cols.traj_id.append(rec["traj_id"])
            cols.t.append(rec["t"])
            n += 1
    _resize(cols, n)
    try:
        dataset = ExpertDataset._of_columns(spec, cols, meta["filter_threshold"])
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
