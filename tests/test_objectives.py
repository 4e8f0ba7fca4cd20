import math

import numpy as np
import pytest

from mimicrl import net, objectives
from mimicrl.envs import env_spec
from mimicrl.trainer import generate_expert

LN2 = math.log(2.0)


def test_reward_objective_analytic_maximum():
    table = objectives.RewardTable(r_expert=[1.0, 1.0], r_beta=[0.5, 0.5, 0.5])
    assert objectives.reward_objective(table) == pytest.approx(1.0 + LN2)


def test_reward_objective_zero_entropy_endpoints():
    for rb in (0.0, 1.0):
        table = objectives.RewardTable(r_expert=[1.0], r_beta=[rb])
        assert objectives.reward_objective(table) == pytest.approx(1.0)


def test_reward_objective_half_half():
    table = objectives.RewardTable(r_expert=[0.5], r_beta=[0.5])
    assert objectives.reward_objective(table) == pytest.approx(0.5 + LN2)


def test_reward_table_validation():
    with pytest.raises(ValueError):
        objectives.RewardTable(r_expert=[1.2], r_beta=[0.5])
    with pytest.raises(ValueError):
        objectives.RewardTable(r_expert=[], r_beta=[0.5])


def test_grid_search_confirms_unique_maximizer():
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10)
    best, best_val = None, -np.inf
    for re in grid:
        for rb in grid:
            v = objectives.reward_objective(
                objectives.RewardTable(r_expert=[re], r_beta=[rb]))
            if v > best_val:
                best, best_val = (re, rb), v
    assert best == (1.0, 0.5)
    assert best_val == pytest.approx(1.0 + LN2)
    # uniqueness: strictly below the max everywhere else on the grid
    runner_up = max(
        objectives.reward_objective(objectives.RewardTable([re], [rb]))
        for re in grid for rb in grid if (re, rb) != (1.0, 0.5))
    assert runner_up < best_val


def bc_policy(seed=0, env_id="linereacher-v0", hidden=(4,)):
    rng = np.random.default_rng(seed)
    return objectives.make_bc_policy(env_spec(env_id), rng, hidden=hidden)


def test_bc_nll_at_mode_with_unit_std():
    pol = bc_policy(1)
    obs = np.random.default_rng(2).standard_normal((6, 2))
    act = net.forward_batch(pol.mean_net, obs)  # actions exactly at the mean
    nll, g_net, g_std = objectives.bc_nll_and_grads(pol, obs, act)
    assert nll == pytest.approx(0.5 * math.log(2 * math.pi))
    assert np.allclose(g_net, 0.0)
    assert g_std == pytest.approx([1.0])  # pushes std down when residuals vanish


def test_bc_gradients_match_finite_differences():
    pol = bc_policy(3)
    rng = np.random.default_rng(4)
    obs = rng.standard_normal((5, 2))
    act = rng.uniform(-1, 1, (5, 1))
    nll, g_net, g_std = objectives.bc_nll_and_grads(pol, obs, act)
    joint = np.concatenate([pol.mean_net.get_flat(), pol.log_std])
    grads = np.concatenate([g_net, g_std])

    def objective(flat):
        trial = objectives.GaussianBCPolicy(
            pol.mean_net.copy(), flat[pol.mean_net.n_params:].copy(),
            pol.action_low, pol.action_high)
        trial.mean_net.set_flat(flat[:pol.mean_net.n_params])
        val, _, _ = objectives.bc_nll_and_grads(trial, obs, act)
        return val

    assert net.finite_diff_check(objective, joint, grads) < 1e-4


def test_bc_nll_interior_optimum_in_std():
    # off-mean actions: widening std first lowers then raises the NLL
    pol = bc_policy(5)
    rng = np.random.default_rng(6)
    obs = rng.standard_normal((32, 2))
    act = net.forward_batch(pol.mean_net, obs) + 0.5
    scan = np.linspace(-3.0, 2.0, 41)
    nlls = []
    for s in scan:
        pol.log_std[:] = s
        nll, _, _ = objectives.bc_nll_and_grads(pol, obs, act)
        nlls.append(nll)
    best = int(np.argmin(nlls))
    assert 0 < best < len(scan) - 1
    # the analytic optimum is log(residual std) = log 0.5
    assert scan[best] == pytest.approx(math.log(0.5), abs=0.15)


def test_bc_act_zero_net_and_clamping():
    pol = bc_policy(7)
    pol.mean_net.set_flat(np.zeros(pol.mean_net.n_params))
    assert objectives.bc_act(pol, np.array([0.4, -0.4])) == pytest.approx([0.0])
    pol.mean_net.layers[-1].bias[:] = 9.0
    assert objectives.bc_act(pol, np.array([0.4, -0.4])) == pytest.approx([1.0])
    obs = np.array([0.1, 0.2])
    assert np.array_equal(objectives.bc_act(pol, obs), objectives.bc_act(pol, obs))


@pytest.mark.parametrize("order", ["C", "F"])
def test_bc_act_on_a_stack_matches_one_row_calls_bit_for_bit(order):
    pol = bc_policy(8, env_id="pendulum-v0", hidden=(64, 64))
    pol.mean_net.set_flat(3.0 * pol.mean_net.get_flat())   # some means clip
    obs = np.asarray(np.random.default_rng(8).standard_normal((20, 3)), order=order)
    got = pol.eval_action(obs)
    assert got.shape == (20, 1)
    for row, action in zip(obs, got):
        assert action.tobytes() == objectives.bc_act(pol, np.ascontiguousarray(row)).tobytes()


def test_bc_recovers_linear_expert_on_training_states(tmp_path):
    dataset = generate_expert("linereacher-v0", 10, -100.0, seed=500)
    cfg = objectives.BCConfig(env_id="linereacher-v0", seed=0, steps=2500)
    policy, history = objectives.train_bc(cfg, dataset)
    views = dataset.training_arrays()
    mu = net.forward_batch(policy.mean_net, views.obs)
    mse = float(np.mean((mu - views.act) ** 2))
    assert mse < 1e-3
    assert history[-1][1] < history[0][1]  # the NLL actually went down


def test_train_bc_rejects_env_mismatch(tmp_path):
    dataset = generate_expert("linereacher-v0", 2, -1000.0, seed=0)
    cfg = objectives.BCConfig(env_id="pendulum-v0", seed=0, steps=10)
    with pytest.raises(ValueError):
        objectives.train_bc(cfg, dataset)


def test_bc_checkpoint_round_trip(tmp_path):
    pol = bc_policy(8)
    path = tmp_path / "bc.ckpt"
    objectives.save_bc_policy(pol, path)
    back = objectives.load_bc_policy(path, env_spec("linereacher-v0"))
    assert np.array_equal(back.mean_net.get_flat(), pol.mean_net.get_flat())
    assert np.array_equal(back.log_std, pol.log_std)
    obs = np.array([0.3, 0.3])
    assert np.array_equal(back.eval_action(obs), pol.eval_action(obs))


@pytest.mark.parametrize("field,value", [
    ("steps", 0),
    ("steps", 2.5),
    ("batch", 0),
    ("lr", -1.0),
    ("lr", 1.5),
    ("hidden", [0]),
    ("hidden", 5),
    ("hidden", [64, 2.5]),
    ("hidden", [True]),
    ("hidden", "64"),
    ("seed", 1.5),
    ("env_id", 5),
    ("lr", "0.1"),
    ("log_std_init", None),
    ("steps", True),
])
def test_bc_config_rejects_invalid_values_at_load(field, value):
    with pytest.raises(ValueError, match=field):
        objectives.BCConfig.from_dict({"env_id": "linereacher-v0", "seed": 1,
                                       field: value})
