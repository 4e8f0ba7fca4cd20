import json
import math
import tracemalloc

import numpy as np
import pytest

from mimicrl import data, net
from mimicrl.envs import EnvSpec, env_spec
from mimicrl.errors import DatasetFormatError, DimensionMismatch
from mimicrl.trainer import generate_expert


def make_tr(i, obs_dim=2, act_dim=1, horizon=4, reward=0.0, traj_id=0):
    t = i % horizon
    return data.Transition(
        obs=np.full(obs_dim, float(i)),
        act=np.full(act_dim, 0.1 * i),
        next_obs=np.full(obs_dim, float(i) + 1),
        done=(t == horizon - 1),
        reward=reward,
        traj_id=traj_id,
        t=t,
    )


def expert_dataset(spec, records, threshold):
    """The ExpertDataset of records, in their order: each field's values
    stacked into a column by np.array, as DatasetColumns."""
    def column(name, dtype):
        return np.array([getattr(tr, name) for tr in records], dtype=dtype)
    columns = data.DatasetColumns(
        column("obs", np.float64), column("act", np.float64),
        column("next_obs", np.float64), column("done", bool), column("reward", np.float64),
        [tr.traj_id for tr in records], [tr.t for tr in records])
    return data.ExpertDataset(spec, columns, threshold)


def test_push_grows_to_one():
    buf = data.ReplayBuffer(10, 2, 1)
    buf.push(make_tr(0))
    assert len(buf) == 1


def kept_obs(buf):
    """The set of obs[0] values a large sample draws from buf."""
    return set(buf.sample_arrays(1000, np.random.default_rng(0)).obs[:, 0])


def test_fifo_eviction_order():
    buf = data.ReplayBuffer(2, 2, 1)
    for i in range(3):
        buf.push(make_tr(i))
    assert len(buf) == 2
    assert kept_obs(buf) == {1.0, 2.0}  # the first push was evicted


def test_fifo_eviction_longer_sequence():
    buf = data.ReplayBuffer(5, 2, 1)
    for i in range(13):
        buf.push(make_tr(i))
    assert len(buf) == 5
    assert kept_obs(buf) == {8.0, 9.0, 10.0, 11.0, 12.0}


def test_push_dimension_mismatch():
    buf = data.ReplayBuffer(10, 2, 1)
    bad = make_tr(0, obs_dim=3)
    with pytest.raises(DimensionMismatch):
        buf.push(bad)


def test_sample_single_element_repeats():
    buf = data.ReplayBuffer(10, 2, 1)
    buf.push(make_tr(5))
    batch = buf.sample_arrays(4, np.random.default_rng(0))
    assert len(batch) == 4
    assert np.array_equal(batch.obs, np.full((4, 2), 5.0))
    assert np.array_equal(batch.next_obs, np.full((4, 2), 6.0))
    assert np.array_equal(batch.act, np.full((4, 1), 0.5))


def test_sample_reproducible_from_rng_seed():
    buf = data.ReplayBuffer(10, 2, 1)
    for i in range(8):
        buf.push(make_tr(i))
    a = buf.sample_arrays(16, np.random.default_rng(42))
    b = buf.sample_arrays(16, np.random.default_rng(42))
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.act, b.act)


def test_sample_empty_buffer_rejected():
    buf = data.ReplayBuffer(10, 2, 1)
    with pytest.raises(ValueError):
        buf.sample_arrays(1, np.random.default_rng(0))


def test_sample_uniformity_binomial_bound():
    # each of 10 elements should be drawn ~10% of 1e5 draws; 5 sigma of
    # Binomial(1e5, 0.1) is ~474
    buf = data.ReplayBuffer(10, 2, 1)
    for i in range(10):
        buf.push(make_tr(i))
    rng = np.random.default_rng(7)
    batch = buf.sample_arrays(100_000, rng)
    counts = np.bincount(batch.obs[:, 0].astype(int), minlength=10)
    sigma = np.sqrt(100_000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 10_000) < 5 * sigma)


def traced_peak_and_result(fn):
    """(bytes fn's result retains, peak bytes traced while fn ran, result)."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained, peak, result


def test_a_large_capacity_reserves_no_rows_up_front():
    # the columns start at 1,024 rows and double as rows arrive
    _, peak, _ = traced_peak_and_result(lambda: data.ReplayBuffer(1_000_000, 2, 1))
    assert peak < 1_000_000


def test_sample_arrays_has_no_reward_field():
    buf = data.ReplayBuffer(10, 2, 1)
    buf.push(make_tr(0, reward=123.0))
    batch = buf.sample_arrays(2, np.random.default_rng(0))
    assert not hasattr(batch, "reward")


def expert_fixture(tmp_path, n=3, threshold=-100.0):
    ds = generate_expert("linereacher-v0", n, threshold, seed=50)
    data.save_dataset(ds, tmp_path / "exp.jsonl")
    return ds


def big_file(tmp_path):
    """A 10-trajectory, 2,000-record linereacher file."""
    path = tmp_path / "big.jsonl"
    data.save_dataset(generate_expert("linereacher-v0", 10, -1e9, seed=50), path)
    return path


def test_save_load_round_trip_bit_identical(tmp_path):
    ds = expert_fixture(tmp_path)
    loaded = data.load_dataset(tmp_path / "exp.jsonl")
    assert loaded.n_trajectories == ds.n_trajectories
    assert loaded.return_stats == ds.return_stats
    assert loaded.filter_threshold == ds.filter_threshold
    assert len(loaded.transitions) == len(ds.transitions)
    for a, b in zip(ds.transitions, loaded.transitions):
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.act, b.act)
        assert np.array_equal(a.next_obs, b.next_obs)
        assert (a.done, a.reward, a.traj_id, a.t) == (b.done, b.reward, b.traj_id, b.t)


def test_save_load_second_round_trip_identical_bytes(tmp_path):
    expert_fixture(tmp_path)
    first = (tmp_path / "exp.jsonl").read_bytes()
    loaded = data.load_dataset(tmp_path / "exp.jsonl")
    data.save_dataset(loaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == first


def test_load_peak_stays_near_what_the_dataset_retains(tmp_path):
    # the loader holds one line at a time beside the records it has parsed,
    # not the file's whole text and its list of lines
    path = big_file(tmp_path)
    retained, peak, ds = traced_peak_and_result(lambda: data.load_dataset(path))
    assert len(ds) == 2000
    assert peak <= 1.25 * retained


def test_save_peak_stays_within_half_what_the_dataset_retains(tmp_path):
    # the writer formats a few hundred records at a time, never whole
    # columns as Python lists or the file's whole text
    path = big_file(tmp_path)
    retained, _, ds = traced_peak_and_result(lambda: data.load_dataset(path))
    _, peak, _ = traced_peak_and_result(
        lambda: data.save_dataset(ds, tmp_path / "again.jsonl"))
    assert len(ds) == 2000
    assert peak <= 0.5 * retained


def test_a_file_of_only_its_metadata_line_holds_no_trajectories(tmp_path):
    expert_fixture(tmp_path)
    path = tmp_path / "exp.jsonl"
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    with pytest.raises(DatasetFormatError, match="dataset contains no trajectories"):
        data.load_dataset(path)


def test_generation_peak_stays_near_what_the_dataset_retains():
    # each kept episode goes straight into the dataset's columns: no
    # Transition per record, and at most one episode's rollout tuples alive.
    # A first generation keeps what one-time set-up retains out of the trace.
    generate_expert("linereacher-v0", 1, -1e9, seed=49)
    retained, peak, ds = traced_peak_and_result(
        lambda: generate_expert("linereacher-v0", 10, -1e9, seed=50))
    assert len(ds) == 2000
    assert peak <= 1.25 * retained


def test_a_loaded_record_retains_at_most_200_bytes(tmp_path):
    # each field is stored once, in the dataset's columns; a record holds
    # only the columns and its row index
    path = big_file(tmp_path)
    retained, _, ds = traced_peak_and_result(lambda: data.load_dataset(path))
    assert len(ds) == 2000
    assert retained / len(ds) <= 200
    # the columns grew past their first 1,024 rows and lost none
    data.save_dataset(ds, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_records_are_read_only_row_views_of_the_training_columns(tmp_path):
    ds = expert_fixture(tmp_path)
    tr = ds.transitions[0]
    assert np.shares_memory(ds.training_arrays().obs, tr.obs)
    for name in ("obs", "act", "next_obs"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tr, name)[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.training_arrays().done[0] = True


def test_setting_a_reward_changes_what_is_saved_not_the_return_stats(tmp_path):
    ds = expert_fixture(tmp_path)
    stats = ds.return_stats
    ds.transitions[5].reward = 0.25
    assert ds.transitions[5].reward == 0.25
    assert ds.return_stats == stats
    data.save_dataset(ds, tmp_path / "again.jsonl")
    lines = (tmp_path / "again.jsonl").read_text().splitlines()
    assert json.loads(lines[6])["reward"] == 0.25
    assert lines[0] == (tmp_path / "exp.jsonl").read_text().splitlines()[0]


def test_a_huge_n_trajectories_on_line_1_is_a_mismatch_not_an_allocation(tmp_path):
    # the loader's columns grow as lines arrive; line 1 does not size them
    expert_fixture(tmp_path)
    lines = (tmp_path / "exp.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])
    meta["n_trajectories"] = 10**12
    lines[0] = json.dumps(meta)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError,
                       match=r"^line 1: n_trajectories is 1000000000000, but the env "
                             r"and records give 3$"):
        data.load_dataset(tmp_path / "bad.jsonl")


def test_crlf_copy_loads_to_the_same_dataset(tmp_path):
    expert_fixture(tmp_path)
    lf = tmp_path / "exp.jsonl"
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    a, b = data.load_dataset(lf), data.load_dataset(crlf)
    assert data.metadata(b) == data.metadata(a)
    for x, y in zip(a.transitions, b.transitions, strict=True):
        for name in ("obs", "act", "next_obs"):
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes()
        assert (x.done, x.reward, x.traj_id, x.t) == (y.done, y.reward, y.traj_id, y.t)


def test_metadata_is_the_first_line_in_key_order(tmp_path):
    ds = expert_fixture(tmp_path)
    first = (tmp_path / "exp.jsonl").read_text().splitlines()[0]
    assert json.dumps(data.metadata(ds)) == first
    assert tuple(data.metadata(ds)) == data.METADATA_KEYS


def test_save_failure_keeps_previous_bytes(tmp_path, monkeypatch):
    ds = expert_fixture(tmp_path)
    path = tmp_path / "exp.jsonl"
    before = path.read_bytes()

    def open_then_fill(*args, **kwargs):
        # the metadata line and the first records are written, then the disk fills
        f = open(*args, **kwargs)
        write, calls = f.write, []

        def write_then_fail(text):
            calls.append(text)
            if len(calls) == 3:
                raise OSError("disk full")
            return write(text)

        f.write = write_then_fail
        return f

    monkeypatch.setattr(net, "open", open_then_fill, raising=False)
    with pytest.raises(OSError, match="disk full"):
        data.save_dataset(ds, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.jsonl"]


def test_truncated_line_names_line_number(tmp_path):
    expert_fixture(tmp_path)
    lines = (tmp_path / "exp.jsonl").read_text().splitlines()
    lines[5] = lines[5][: len(lines[5]) // 2]
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as exc:
        data.load_dataset(tmp_path / "bad.jsonl")
    assert exc.value.line == 6
    assert "line 6" in str(exc.value)


def test_metadata_dimension_mismatch_rejected(tmp_path):
    expert_fixture(tmp_path)
    lines = (tmp_path / "exp.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])
    meta["obs_dim"] = 3
    lines[0] = json.dumps(meta)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError):
        data.load_dataset(tmp_path / "bad.jsonl")


def test_record_with_wrong_obs_length_rejected(tmp_path):
    expert_fixture(tmp_path)
    lines = (tmp_path / "exp.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["obs"] = rec["obs"] + [0.0]
    lines[3] = json.dumps(rec)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as exc:
        data.load_dataset(tmp_path / "bad.jsonl")
    assert exc.value.line == 4


def test_missing_key_rejected_with_line(tmp_path):
    expert_fixture(tmp_path)
    lines = (tmp_path / "exp.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    del rec["reward"]
    lines[2] = json.dumps(rec)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as exc:
        data.load_dataset(tmp_path / "bad.jsonl")
    assert exc.value.line == 3


def test_dataset_rejects_incomplete_trajectory():
    spec = env_spec("linereacher-v0")
    partial = [make_tr(i, horizon=200, traj_id=0) for i in range(100)]
    with pytest.raises(DatasetFormatError):
        expert_dataset(spec, partial, -1000.0)


def test_incomplete_trajectory_error_names_the_t_values(tmp_path):
    expert_fixture(tmp_path)
    lines = (tmp_path / "exp.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])   # trajectory 0, t = 2
    rec["t"] = 1
    lines[3] = json.dumps(rec)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError,
                       match=r"^line 4: expected \(traj_id, t, done\) = \(0, 2, False\), "
                             r"found \(0, 1, False\)$"):
        data.load_dataset(tmp_path / "bad.jsonl")


def _without_done(line):
    rec = json.loads(line)
    rec["done"] = False
    return json.dumps(rec)


@pytest.mark.parametrize("n,edit,message", [
    # deleting trajectory 0's t = 3 (line 5): the gap shows at t = 4, now line 5
    (3, lambda lines: lines[:4] + lines[5:],
     "line 5: expected (traj_id, t, done) = (0, 3, False), found (0, 4, False)"),
    # a file cut after whole lines: its partial last trajectory's first record
    (4, lambda lines: lines[:-3],
     "line 602: trajectory 3 does not hold t = 0..199 once each"),
    # trajectory 0's t = 8 (line 10) again as line 21: the later copy
    (3, lambda lines: lines[:20] + [lines[9]] + lines[20:],
     "line 21: expected (traj_id, t, done) = (0, 9, False), found (0, 8, False)"),
    # trajectory 0's last record (line 201) without its done flag
    (3, lambda lines: lines[:200] + [_without_done(lines[200])] + lines[201:],
     "line 201: expected (traj_id, t, done) = (0, 199, True), found (0, 199, False)"),
])
def test_trajectory_fault_names_the_first_record_out_of_place(tmp_path, n, edit, message):
    expert_fixture(tmp_path, n=n)
    lines = (tmp_path / "exp.jsonl").read_text().splitlines()
    (tmp_path / "bad.jsonl").write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(DatasetFormatError) as exc:
        data.load_dataset(tmp_path / "bad.jsonl")
    assert str(exc.value) == message
    assert message.startswith(f"line {exc.value.line}: ")


def test_return_below_threshold_names_the_lowest_trajectorys_first_record(tmp_path):
    ds = expert_fixture(tmp_path)
    returns = [sum(tr.reward for tr in ds.transitions[200 * k:200 * (k + 1)])
               for k in range(3)]
    lowest = returns.index(min(returns))
    # (line index, key, value, trajectory named): a threshold at the highest
    # return, a nan threshold, and a nan reward, whose return exceeds no
    # threshold
    for i, key, value, k in ((0, "filter_threshold", max(returns), lowest),
                             (0, "filter_threshold", math.nan, lowest),
                             (206, "reward", math.nan, 1)):
        lines = (tmp_path / "exp.jsonl").read_text().splitlines()
        lines[i] = json.dumps(dict(json.loads(lines[i]), **{key: value}))
        (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="does not exceed the recorded") as exc:
            data.load_dataset(tmp_path / "bad.jsonl")
        assert exc.value.line == 2 + 200 * k


@pytest.mark.parametrize("horizon", [1, 2])
def test_a_traj_id_that_starts_two_trajectories_is_refused(horizon):
    spec = EnvSpec("h-v0", 2, 1, np.array([-1.0]), np.array([1.0]), horizon, 0.0)
    records = [make_tr(i, horizon=horizon, traj_id=k)
               for k in (7, 7, 8) for i in range(horizon)]
    with pytest.raises(DatasetFormatError) as exc:
        expert_dataset(spec, records, -1.0)
    assert exc.value.index == horizon      # the second trajectory's first record


def test_dataset_rejects_return_below_threshold():
    spec = env_spec("linereacher-v0")
    traj = [make_tr(i, horizon=200, reward=-1.0, traj_id=0) for i in range(200)]
    with pytest.raises(DatasetFormatError):
        expert_dataset(spec, traj, -100.0)  # total return -200 < -100
    # a nan return exceeds no threshold: the second trajectory's first record
    records = traj + [make_tr(i, horizon=200, reward=-0.1, traj_id=1) for i in range(200)]
    records[205].reward = math.nan
    with pytest.raises(DatasetFormatError, match="^trajectory return nan ") as exc:
        expert_dataset(spec, records, -100.0)
    assert exc.value.index == 200


def test_dataset_training_arrays_strip_reward(tmp_path):
    ds = expert_fixture(tmp_path)
    views = ds.training_arrays()
    assert not hasattr(views, "reward")
    assert views.obs.shape == (len(ds), 2)
    assert views.done.sum() == ds.n_trajectories  # one terminal per trajectory
