import math

import numpy as np
import pytest

from mimicrl import critic, net
from mimicrl.data import Transition
from mimicrl.envs import env_spec
from mimicrl.errors import DimensionMismatch

LN2 = math.log(2.0)


def constant_critic(q_value, obs_dim=2, act_dim=1, clamp_eps=1e-6):
    """Critic emitting sigmoid(logit(q_value)) = q_value for every input."""
    layer = net.Layer(
        np.zeros((1, obs_dim + act_dim)),
        np.array([math.log(q_value / (1.0 - q_value))]),
        "sigmoid",
    )
    return critic.CriticNet(net.NetworkParams([layer]), clamp_eps)


def random_critic(seed, obs_dim=2, act_dim=1, hidden=(4,)):
    rng = np.random.default_rng(seed)
    params = net.init_mlp(obs_dim + act_dim, 1, "sigmoid", rng, hidden)
    return critic.CriticNet(params, 1e-6)


# --- q of one pair: a one-row q_batch ---

def q_one(c, obs, act):
    return float(critic.q_batch(c, np.concatenate([obs, act])[None, :])[0])


def test_q_prob_zero_raw_gives_half():
    c = constant_critic(0.5)
    c.params.layers[0].bias[0] = 0.0
    assert q_one(c, np.zeros(2), np.zeros(1)) == 0.5


def test_q_prob_saturation_is_clamped():
    c = constant_critic(0.5)
    c.params.layers[0].bias[0] = 50.0
    assert q_one(c, np.zeros(2), np.zeros(1)) == 1.0 - 1e-6
    c.params.layers[0].bias[0] = -50.0
    assert q_one(c, np.zeros(2), np.zeros(1)) == 1e-6


def test_q_prob_sigmoid_closed_form():
    c = constant_critic(0.5)
    c.params.layers[0].bias[0] = math.log(3.0)
    assert q_one(c, np.zeros(2), np.zeros(1)) == pytest.approx(0.75)


def test_q_prob_dimension_mismatch():
    c = constant_critic(0.5)
    with pytest.raises(DimensionMismatch):
        q_one(c, np.zeros(3), np.zeros(1))


# --- entropy ---

def test_entropy_max_at_half():
    assert critic.bernoulli_entropy(0.5) == pytest.approx(LN2)


def test_entropy_endpoints_zero():
    assert critic.bernoulli_entropy(0.0) == 0.0
    assert critic.bernoulli_entropy(1.0) == 0.0
    assert critic.bernoulli_entropy(1e-12) == pytest.approx(0.0, abs=1e-9)


def test_entropy_quarter_value():
    expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
    assert expected == pytest.approx(0.5623, abs=5e-5)
    assert critic.bernoulli_entropy(0.25) == pytest.approx(expected)


def test_entropy_argmax_on_fine_grid():
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    values = critic.bernoulli_entropy(grid)
    assert grid[np.argmax(values)] == pytest.approx(0.5)


# --- JSD ---

def test_jsd_identical_distributions_zero():
    assert critic.bernoulli_jsd(0.5, 0.5) == 0.0


def test_jsd_maximally_distinct_near_ln2():
    assert critic.bernoulli_jsd(1e-6, 1.0 - 1e-6) == pytest.approx(LN2, abs=1e-4)


def test_jsd_frozen_value():
    # entropy-formula oracle: H(0.5) - (H(0.2) + H(0.8)) / 2
    h = critic.bernoulli_entropy
    expected = h(0.5) - 0.5 * (h(0.2) + h(0.8))
    assert expected == pytest.approx(0.1927, abs=5e-5)
    assert critic.bernoulli_jsd(0.2, 0.8) == pytest.approx(expected)


def test_jsd_properties_on_random_pairs():
    rng = np.random.default_rng(0)
    eps = 1e-6
    a = rng.uniform(eps, 1 - eps, size=2000)
    b = rng.uniform(eps, 1 - eps, size=2000)
    jsd = critic.bernoulli_jsd(a, b)
    assert np.all(jsd >= 0.0)
    assert np.all(jsd <= LN2 + 1e-12)
    assert critic.bernoulli_jsd(b, a) == pytest.approx(jsd)
    assert np.all(np.abs(critic.bernoulli_jsd(a, a)) < 1e-12)


# --- targets ---

def one_row_target(t1, t2, gamma, done, branch):
    """Branch target for one transition at s' = 0, a' = 0."""
    base = critic.target_base_batch(t1, t2, np.zeros((1, 2)), np.zeros((1, 1)),
                                    gamma, [done])
    return float(critic.branch_target(base, branch, t1.clamp_eps)[0])


def test_target_done_expert_branch_is_one_clamped():
    t1, t2 = constant_critic(0.8), constant_critic(0.9)
    assert one_row_target(t1, t2, 0.99, True, "expert") == 1.0 - 1e-6
    assert one_row_target(t1, t2, 0.99, True, "beta") == 0.5


def test_target_min_and_halving():
    t1, t2 = constant_critic(0.8), constant_critic(0.9)
    assert one_row_target(t1, t2, 1.0, False, "expert") == pytest.approx(0.8)
    assert one_row_target(t1, t2, 1.0, False, "beta") == pytest.approx(0.4)


def test_target_gamma_power():
    t1, t2 = constant_critic(0.8), constant_critic(0.8)
    p = one_row_target(t1, t2, 0.99, False, "expert")
    assert p == pytest.approx(0.8 ** 0.99)
    assert p == pytest.approx(0.8018, abs=5e-5)


def test_clipped_double_never_exceeds_single_targets():
    rng = np.random.default_rng(1)
    t1, t2 = random_critic(2), random_critic(3)
    obs = rng.standard_normal((10_000, 2))
    act = rng.uniform(-1, 1, (10_000, 1))
    sa = np.concatenate([obs, act], axis=1)
    base = critic.target_base_batch(t1, t2, obs, act, 0.99, np.zeros(10_000, bool))
    b1 = critic.q_batch(t1, sa) ** 0.99
    b2 = critic.q_batch(t2, sa) ** 0.99
    assert np.all(base <= b1 + 1e-15)
    assert np.all(base <= b2 + 1e-15)


# --- loss ---

def batch_for(c, n, seed):
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((n, 2))
    act = rng.uniform(-1, 1, (n, 1))
    return obs, act


def test_loss_zero_with_zero_grads_at_fixed_point():
    c1, c2 = random_critic(4), random_critic(4)  # identical twins
    e_obs, e_act = batch_for(c1, 5, 5)
    b_obs, b_act = batch_for(c1, 7, 6)
    e_targets = critic.q_batch(c1, np.concatenate([e_obs, e_act], axis=1))
    b_targets = critic.q_batch(c1, np.concatenate([b_obs, b_act], axis=1))
    loss, g1, g2, _ = critic.critic_loss_and_grads(
        c1, c2, e_obs, e_act, e_targets, b_obs, b_act, b_targets)
    assert loss < 1e-10
    assert np.linalg.norm(g1) < 1e-8
    assert np.linalg.norm(g2) < 1e-8


def test_loss_gradients_match_finite_differences():
    c1, c2 = random_critic(7), random_critic(8)
    e_obs, e_act = batch_for(c1, 4, 9)
    b_obs, b_act = batch_for(c1, 4, 10)
    rng = np.random.default_rng(11)
    e_targets = rng.uniform(0.3, 0.9, 4)
    b_targets = rng.uniform(0.1, 0.5, 4)
    _, g1, g2, _ = critic.critic_loss_and_grads(
        c1, c2, e_obs, e_act, e_targets, b_obs, b_act, b_targets)

    def loss_of(c, flat):
        trial = critic.CriticNet(c.params.copy(), c.clamp_eps)
        trial.params.set_flat(flat)
        pair = (trial, c2) if c is c1 else (c1, trial)
        loss, _, _, _ = critic.critic_loss_and_grads(
            pair[0], pair[1], e_obs, e_act, e_targets, b_obs, b_act, b_targets)
        return loss

    assert net.finite_diff_check(lambda f: loss_of(c1, f), c1.params.get_flat(), g1) < 1e-4
    assert net.finite_diff_check(lambda f: loss_of(c2, f), c2.params.get_flat(), g2) < 1e-4


def test_loss_symmetric_under_critic_swap():
    c1, c2 = random_critic(12), random_critic(13)
    e_obs, e_act = batch_for(c1, 6, 14)
    b_obs, b_act = batch_for(c1, 6, 15)
    e_t = np.full(6, 0.7)
    b_t = np.full(6, 0.3)
    a, *_ = critic.critic_loss_and_grads(c1, c2, e_obs, e_act, e_t, b_obs, b_act, b_t)
    b, *_ = critic.critic_loss_and_grads(c2, c1, e_obs, e_act, e_t, b_obs, b_act, b_t)
    assert a == pytest.approx(b, rel=1e-12)


def test_loss_gradients_ignore_target_parameter_perturbations():
    # targets are constants: given fixed target values, the returned
    # gradients cannot depend on the target networks at all
    c1, c2 = random_critic(16), random_critic(17)
    e_obs, e_act = batch_for(c1, 4, 18)
    b_obs, b_act = batch_for(c1, 4, 19)
    t1, t2 = random_critic(20), random_critic(21)
    base = critic.target_base_batch(t1, t2, e_obs, e_act, 0.99, np.zeros(4, bool))
    e_t = critic.branch_target(base, "expert", 1e-6)
    b_t = critic.branch_target(base, "beta", 1e-6)
    _, g1a, _, _ = critic.critic_loss_and_grads(
        c1, c2, e_obs, e_act, e_t, b_obs, b_act, b_t)
    t1.params.set_flat(t1.params.get_flat() + 0.1)  # perturb target net
    _, g1b, _, _ = critic.critic_loss_and_grads(
        c1, c2, e_obs, e_act, e_t, b_obs, b_act, b_t)
    assert np.array_equal(g1a, g1b)


def reference_loss_and_grads(c1, c2, e_obs, e_act, e_t, b_obs, b_act, b_t):
    """The update's loss, gradients and diag by the plain formula: a
    bernoulli_jsd per critic, np.clip for the clamp and np.mean."""
    n_e, n_b = len(e_obs), len(b_obs)
    sa = np.concatenate([np.concatenate([e_obs, e_act], axis=1),
                         np.concatenate([b_obs, b_act], axis=1)])
    targets = np.concatenate([e_t, b_t])
    weights = np.concatenate([np.full(n_e, 1.0 / n_e), np.full(n_b, 1.0 / n_b)])

    def slope(p):
        return np.log((1.0 - p) / p)

    loss, grads, diags = 0.0, [], []
    for c in (c1, c2):
        out, cache = net.forward_batch(c.params, sa, want_cache=True)
        raw, eps = out[:, 0], c.clamp_eps
        q = np.clip(raw, eps, 1.0 - eps)
        in_range = ((raw > eps) & (raw < 1.0 - eps)).astype(np.float64)
        loss += float(critic.bernoulli_jsd(q, targets) @ weights)
        m = 0.5 * (q + targets)
        upstream = (0.5 * (slope(m) - slope(q)) * in_range * weights)[:, None]
        grads.append(net.backward_batch(c.params, upstream, cache))
        diags.append({"q_mean_expert": float(np.mean(q[:n_e])),
                      "q_mean_beta": float(np.mean(q[n_e:]))})
    return loss, grads[0], grads[1], diags[0]


@pytest.mark.parametrize("n_e,n_b", [(128, 128), (16, 24)])
def test_loss_and_grads_match_reference_bit_for_bit(n_e, n_b):
    rng = np.random.default_rng([n_e, n_b])
    c1, c2 = (critic.CriticNet(net.init_mlp(3, 1, "sigmoid", rng), 1e-6)
              for _ in range(2))
    e_obs, b_obs = rng.standard_normal((n_e, 2)), rng.standard_normal((n_b, 2))
    e_act, b_act = rng.uniform(-1, 1, (n_e, 1)), rng.uniform(-1, 1, (n_b, 1))
    # rows scaled far out saturate the sigmoid, so q sits at either clamp
    e_obs[::2] *= 300.0
    b_obs[::2] *= 300.0
    e_t = rng.uniform(0.0, 1.0, n_e)
    b_t = rng.uniform(0.0, 0.5, n_b)
    # targets at the clamp and at the ends of [0, 1]
    e_t[:4] = [1e-6, 1.0 - 1e-6, 0.0, 1.0]
    b_t[-2:] = [1e-6, 0.0]
    args = (c1, c2, e_obs, e_act, e_t, b_obs, b_act, b_t)
    q = critic.q_batch(c1, np.concatenate([np.concatenate([e_obs, e_act], axis=1),
                                           np.concatenate([b_obs, b_act], axis=1)]))
    assert np.any(q == 1e-6) and np.any(q == 1.0 - 1e-6)

    loss, g1, g2, diag = critic.critic_loss_and_grads(*args)
    ref_loss, ref_g1, ref_g2, ref_diag = reference_loss_and_grads(*args)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert g1.tobytes() == ref_g1.tobytes()
    assert g2.tobytes() == ref_g2.tobytes()
    assert diag == ref_diag


# --- soft update ---

def test_soft_update_tau_one_copies():
    main, target = random_critic(22), random_critic(23)
    critic.soft_update(main, target, 1.0)
    assert np.array_equal(target.params.get_flat(), main.params.get_flat())


def test_soft_update_halfway_scalar():
    main = constant_critic(0.5)
    target = constant_critic(0.5)
    main.params.set_flat(np.ones(main.params.n_params))
    target.params.set_flat(np.zeros(target.params.n_params))
    critic.soft_update(main, target, 0.5)
    assert np.all(target.params.get_flat() == 0.5)


def test_soft_update_geometric_decay():
    main, target = random_critic(24), random_critic(25)
    tau = 0.05
    d0 = np.linalg.norm(target.params.get_flat() - main.params.get_flat())
    for _ in range(100):
        critic.soft_update(main, target, tau)
    dn = np.linalg.norm(target.params.get_flat() - main.params.get_flat())
    assert dn / d0 == pytest.approx((1 - tau) ** 100, abs=1e-9)


def test_soft_update_matches_lerp_bit_for_bit():
    rng = np.random.default_rng(12)
    spec = env_spec("linereacher-v0")
    main = critic.make_critic(spec, rng)
    target = critic.make_critic(spec, rng)
    main_before, target_before = main.params.get_flat(), target.params.get_flat()
    tau = 0.003
    expected = tau * main_before + (1.0 - tau) * target_before
    target_flat = target.params.flat
    assert critic.soft_update(main, target, tau) is target
    assert target.params.flat is target_flat   # updated in place
    assert target.params.get_flat().tobytes() == expected.tobytes()
    assert main.params.get_flat().tobytes() == main_before.tobytes()


def test_soft_update_rejects_bad_tau():
    main, target = random_critic(26), random_critic(27)
    with pytest.raises(ValueError):
        critic.soft_update(main, target, 0.0)
    with pytest.raises(ValueError):
        critic.soft_update(main, target, 1.5)


# --- Bellman residual ---

def tr_of(obs, act, next_obs, done=False):
    return Transition(obs=np.asarray(obs, float), act=np.asarray(act, float),
                      next_obs=np.asarray(next_obs, float), done=done, reward=0.0)


def log_residual(c, reward_log, tr, next_act, gamma):
    """reward_log + log(bootstrap factor) - log q(s, a) for one transition.

    The bootstrap factor is the training target's q(s', a')^gamma (1 where
    done), so the residual is 0 exactly at the log-space Bellman fixed point.
    """
    base = critic.target_base_batch(c, c, tr.next_obs[None, :], next_act[None, :],
                                    gamma, [tr.done])
    return reward_log + math.log(base[0]) - math.log(q_one(c, tr.obs, tr.act))


def test_residual_zero_at_constant_fixed_point():
    gamma, c_val = 0.9, 0.37
    c = constant_critic(c_val)
    reward_log = (1 - gamma) * math.log(c_val)
    tr = tr_of([0.1, 0.2], [0.3], [0.4, 0.5])
    r = log_residual(c, reward_log, tr, np.array([0.6]), gamma)
    assert r == pytest.approx(0.0, abs=1e-12)


def test_residual_zero_at_expert_optimum():
    c = constant_critic(0.9999990)  # saturates to 1 - clamp_eps
    c.params.layers[0].bias[0] = 50.0
    tr = tr_of([0.0, 0.0], [0.0], [1.0, 1.0])
    r = log_residual(c, 0.0, tr, np.zeros(1), 1.0)
    assert r == pytest.approx(0.0, abs=1e-5)


def test_residual_zero_at_beta_optimum_with_minus_ln2_reward():
    # beta-branch optimal reward is log(1/2); at gamma = 0.5 the matching
    # constant-q fixed point is q = exp(-ln2 / (1 - gamma)) = 0.25
    gamma = 0.5
    c = constant_critic(0.25)
    tr = tr_of([0.1, 0.0], [0.2], [0.3, 0.1])
    r = log_residual(c, -LN2, tr, np.array([0.4]), gamma)
    assert r == pytest.approx(0.0, abs=1e-12)


def test_residual_done_drops_bootstrap():
    c = constant_critic(0.5)
    tr = tr_of([0.0, 0.0], [0.0], [0.0, 0.0], done=True)
    r = log_residual(c, 0.0, tr, np.zeros(1), 0.99)
    assert r == pytest.approx(-math.log(0.5))


def test_fixed_point_equivalence_loss_and_residual():
    # when q matches the targets on a transition set, the JSD loss is 0
    # and so is the log-space Bellman residual log(target) - log q(s, a)
    gamma = 1.0
    c = constant_critic(1.0 - 1e-6)   # expert optimum everywhere
    transitions = [tr_of([i, 0.0], [0.1], [i + 1.0, 0.0]) for i in range(3)]
    obs = np.array([t.obs for t in transitions])
    act = np.array([t.act for t in transitions])
    nxt = np.array([t.next_obs for t in transitions])
    base = critic.target_base_batch(c, c, nxt, act, gamma, np.zeros(3, bool))
    e_t = critic.branch_target(base, "expert", 1e-6)
    q = critic.q_batch(c, np.concatenate([obs, act], axis=1))
    loss, g1, g2, _ = critic.critic_loss_and_grads(
        c, c.copy(), obs, act, e_t, obs, act, q)
    assert loss < 1e-10
    assert np.all(np.abs(np.log(e_t) - np.log(q)) < 1e-10)


def test_critic_checkpoint_round_trip(tmp_path):
    c = random_critic(30)
    path = tmp_path / "critic.ckpt"
    critic.save_critic(c, path)
    params, doc = net.load_checkpoint(path, {"clamp_eps": "float"})
    assert doc["clamp_eps"] == c.clamp_eps
    assert np.array_equal(params.get_flat(), c.params.get_flat())
