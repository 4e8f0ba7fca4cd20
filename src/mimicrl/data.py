"""Transition storage: replay buffer, expert datasets, JSONL files.

The expert dataset file format is one JSON object per line. The first
line is metadata::

    {"env_id", "obs_dim", "act_dim", "action_low", "action_high",
     "horizon", "n_trajectories", "filter_threshold",
     "return_mean", "return_min", "return_max"}

and every following line is one transition, in any order::

    {"traj_id", "t", "obs", "act", "next_obs", "done", "reward"}

Every line is the ``json.dumps`` of its dict. Floats are written as their
repr, which round-trips float64 exactly, so save followed by load
reproduces every value bit for bit. ``save_dataset`` fills one line
template per record rather than building the dict, and ``load_dataset``
decodes a line that is one object and its newline with one
``raw_decode``, sending any other line to ``json.loads``; so the time of
both goes to float formatting and JSON scanning. ``load_dataset`` takes
the env from the registry, checks every value's JSON type and counts each
record's ``obs``, ``act`` and ``next_obs`` by the env's widths (both by
``net.check_json_types``), and requires line 1 to equal ``metadata`` of
the dataset it read (return stats to 1e-9).

Of stored data, only expert datasets keep rewards. The return filter runs
once, in ``trainer.generate_expert``; ExpertDataset checks, in (traj_id, t)
order, that every trajectory is t = 0..horizon-1 with done only at the
last and has a return strictly above the recorded filter threshold, as
the filter requires (a nan return is not). The replay buffer does not
store rewards at all, and training code receives TransitionArrays views,
which have no reward field, so no update can read a reward.

An expert dataset stores each field once, as a column; its records are
row views over those columns. DatasetColumns is the one builder of those
columns: ``load_dataset`` writes checked lines into them a few dozen at a
time and ``trainer.generate_expert`` each kept episode, and
``ExpertDataset`` cuts them to the rows in use, so no per-record arrays
are built. The replay buffer's columns and these grow the same way, in
place by ``_resize``: from _FIRST_ROWS rows, doubling as rows arrive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import net
from .envs import env_spec
from .errors import DatasetFormatError, DimensionMismatch, UnknownEnvError

# each line's keys, in file order, with their JSON kinds (net.check_json_types);
# load_dataset counts a record's lists by its env's widths
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


# rows a column store (replay buffer or DatasetColumns) holds before its
# first doubling
_FIRST_ROWS = 1024


def _resize(columns, n):
    """Give each array of columns n rows in place, keeping its leading
    rows; any new rows are zero. The data may move, so no view of an
    array may be alive."""
    for column in columns:
        column.resize((n,) + column.shape[1:], refcheck=False)


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
            _resize(vars(rows).values(), min(2 * i, self.capacity))
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
class DatasetColumns:
    """An expert dataset's fields, one column each; row i is record i.

    The rows in use are the first len(t). ``empty`` gives arrays of
    _FIRST_ROWS zero rows, ``extend`` doubles them until its rows fit, and
    ``ExpertDataset`` cuts them to the rows in use. Growing and cutting
    resize the arrays in place (_resize), so no view of them may exist
    until the dataset is built.
    """

    obs: np.ndarray        # (n, obs_dim) float64
    act: np.ndarray        # (n, act_dim) float64
    next_obs: np.ndarray   # (n, obs_dim) float64
    done: np.ndarray       # (n,) bool
    reward: np.ndarray     # (n,) float64, the one column a record writes
    traj_id: list          # Python ints, so ids past int64 still work
    t: list

    @classmethod
    def empty(cls, spec):
        """No rows yet, and room for _FIRST_ROWS of spec's records."""
        n = _FIRST_ROWS
        return cls(np.zeros((n, spec.obs_dim)), np.zeros((n, spec.act_dim)),
                   np.zeros((n, spec.obs_dim)), np.zeros(n, dtype=bool), np.zeros(n),
                   [], [])

    def extend(self, obs, act, next_obs, reward, done, traj_id, t):
        """Append rows; each argument holds one value per row, in the
        order of a rollout tuple's fields, then traj_id and t."""
        n = len(self.t)
        m = n + len(t)
        rows = len(self.reward)
        if m > rows:
            while rows < m:
                rows *= 2
            _resize((self.obs, self.act, self.next_obs, self.done, self.reward), rows)
        self.obs[n:m] = obs
        self.act[n:m] = act
        self.next_obs[n:m] = next_obs
        self.done[n:m] = done
        self.reward[n:m] = reward
        self.traj_id.extend(traj_id)
        self.t.extend(t)


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
    ``transitions[i]`` is a record whose fields read row i. The records
    are the rows in use of columns (a DatasetColumns), whose arrays are
    cut to those rows and then checked in (traj_id, t) order; a fault's
    DatasetFormatError.index is the offending record's position.
    """

    def __init__(self, spec, columns, filter_threshold):
        n, horizon = len(columns.t), spec.horizon
        _resize((columns.obs, columns.act, columns.next_obs, columns.done,
                 columns.reward), n)
        self.spec = spec
        self.filter_threshold = float(filter_threshold)
        if not n:
            raise DatasetFormatError("dataset contains no trajectories")
        # the check holds at most five n-length integer arrays at once and
        # frees each after its last use
        ids = np.array(columns.traj_id)
        ts = np.array(columns.t)
        order = np.lexsort((ts, ids))      # stable: the records in (traj_id, t) order
        ids = ids[order]
        # position j must hold step j % horizon of the trajectory whose
        # first record is at position j - j % horizon, done only at its last
        step = np.arange(n)
        step %= horizon
        misplaced = ts[order] != step
        del ts
        misplaced |= columns.done[order] != (step == horizon - 1)
        misplaced |= ids != np.repeat(ids[::horizon], horizon)[:n]
        misplaced = np.flatnonzero(misplaced)
        if len(misplaced):
            k = misplaced[0]
            i = order[k]
            s = step[k]
            want = ids[k - s], s, s == horizon - 1
            found = ids[k], columns.t[i], columns.done[i]
            raise DatasetFormatError(
                f"expected (traj_id, t, done) = ({', '.join(map(str, want))}), "
                f"found ({', '.join(map(str, found))})", index=int(i),
            )
        del step, misplaced
        # what the position check misses: a last trajectory cut short and, at
        # horizon 1, a traj_id that starts two trajectories
        firsts = ids[::horizon]
        miscounted = np.flatnonzero(np.r_[False, firsts[1:] == firsts[:-1]]
                                    | (np.arange(0, n, horizon) + horizon > n))
        if len(miscounted):
            k = miscounted[0] * horizon
            raise DatasetFormatError(
                f"trajectory {ids[k]} does not hold t = 0..{horizon - 1} once "
                f"each", index=int(order[k]),
            )
        del ids, firsts
        # each trajectory's return, summed as Python floats in t order
        rewards = columns.reward[order]
        returns = [sum(rewards[k:k + horizon].tolist()) for k in range(0, n, horizon)]
        # every return must exceed the threshold, as in generate_expert; the
        # lowest return, or the first nan, is the one to name
        k = int(np.argmin(returns))
        if not returns[k] > self.filter_threshold:
            raise DatasetFormatError(
                f"trajectory return {returns[k]} does not exceed the recorded "
                f"filter threshold {self.filter_threshold}", index=int(order[k * horizon]),
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


# records formatted per write: a slice's lists and text stay small beside
# the columns
_SAVE_ROWS = 128


def _record_templates(obs_dim, act_dim):
    """A record line's %-templates for done false and done true: json.dumps
    of the record's dict, with %r for each number."""
    def numbers(n):
        return "[" + ", ".join(["%r"] * n) + "]"
    head = (f'{{"traj_id": %r, "t": %r, "obs": {numbers(obs_dim)}, '
            f'"act": {numbers(act_dim)}, "next_obs": {numbers(obs_dim)}, "done": ')
    tail = ', "reward": %r}\n'
    return head + "false" + tail, head + "true" + tail


def save_dataset(dataset, path):
    """Write dataset to path as JSON lines, atomically.

    Line 1 is ``json.dumps(metadata(dataset))``. Each record line fills a
    fixed template (_record_templates) from the columns, _SAVE_ROWS records
    at a time, and is byte for byte the ``json.dumps`` of the record's dict:
    that writes ints and finite floats as their repr, and where repr writes
    nan, inf and -inf it writes NaN, Infinity and -Infinity.
    """
    cols = dataset._columns
    templates = _record_templates(cols.obs.shape[1], cols.act.shape[1])
    with net.atomic_open(path) as f:
        f.write(json.dumps(metadata(dataset)) + "\n")
        for a in range(0, len(cols.t), _SAVE_ROWS):
            b = a + _SAVE_ROWS
            numbers = np.column_stack((cols.obs[a:b], cols.act[a:b], cols.next_obs[a:b],
                                       cols.reward[a:b]))
            finite = np.isfinite(numbers).all()
            text = "".join([templates[done] % (traj_id, t, *row) for traj_id, t, done, row
                            in zip(cols.traj_id[a:b], cols.t[a:b], cols.done[a:b].tolist(),
                                   numbers.tolist())])
            if not finite:
                # no key or other token of a record line holds "nan" or "inf"
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            f.write(text)


_DECODER = json.JSONDecoder()   # json.loads' own settings


def _decoded(raw):
    """json.loads(raw). A line that is one object and its newline, as
    save_dataset writes it, needs none of json.loads' whitespace scans, and
    raw_decode's error on it is json.loads' own."""
    if raw[:1] == "{":
        doc, end = _DECODER.raw_decode(raw)
        if raw[end:] == "\n":
            return doc
    return json.loads(raw)


def _parse_line(raw, line_no, kinds):
    """The JSON object on line line_no, once it has every key of kinds and
    each value has its kind (net.check_json_types)."""
    try:
        doc = _decoded(raw)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"malformed JSON ({e.msg})", line=line_no) from None
    except ValueError as e:   # an integer literal past Python's digit limit
        raise DatasetFormatError(f"bad value: {e}", line=line_no) from None
    if not isinstance(doc, dict):
        raise DatasetFormatError("expected a JSON object", line=line_no)
    try:
        net.check_json_types(doc, kinds)
    except KeyError as e:
        raise DatasetFormatError(f"missing key {e}", line=line_no) from None
    except ValueError as e:
        raise DatasetFormatError(f"bad value: {e}", line=line_no) from None
    return doc


# checked records held before they go into the columns together
_LOAD_ROWS = 64


def _extend(cols, recs):
    """Append the checked records recs, if any, to DatasetColumns cols,
    then forget them."""
    if recs:
        cols.extend(**{key: [rec[key] for rec in recs] for key in _TRANSITION_KINDS})
        recs.clear()


def load_dataset(path):
    """Read a dataset file; its env must be registered, and line 1 must
    equal ``metadata`` of what the records hold.

    The file is read a line at a time. Each line is decoded (_decoded) and
    checked for its keys, JSON kinds and lengths, and the checked records
    go into the columns _LOAD_ROWS at a time, so loading holds a few lines
    beside the columns. A fault names its line.
    """
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise DatasetFormatError("empty dataset file", line=1)
        meta = _parse_line(first, 1, _METADATA_KINDS)
        try:
            spec = env_spec(meta["env_id"])
        except UnknownEnvError as e:
            raise DatasetFormatError(e.args[0], line=1) from None
        kinds = dict(_TRANSITION_KINDS, obs=spec.obs_dim, act=spec.act_dim,
                     next_obs=spec.obs_dim)
        # checked lines go into columns that grow as lines arrive, at most
        # _LOAD_ROWS at a time
        cols = DatasetColumns.empty(spec)
        recs = []
        for line_no, raw in enumerate(f, start=2):
            if raw.isspace():
                raise DatasetFormatError("blank line inside dataset", line=line_no)
            recs.append(_parse_line(raw, line_no, kinds))
            if len(recs) == _LOAD_ROWS:
                _extend(cols, recs)
        _extend(cols, recs)
    try:
        dataset = ExpertDataset(spec, cols, meta["filter_threshold"])
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
