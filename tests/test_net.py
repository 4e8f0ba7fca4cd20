import json

import numpy as np
import pytest

from mimicrl import net
from mimicrl.errors import DimensionMismatch, NonFiniteError


def single_layer(w, b, activation="identity"):
    return net.NetworkParams([net.Layer(np.array(w), np.array(b), activation)])


def test_forward_single_affine_unit():
    p = single_layer([[2.0]], [1.0])
    assert net.forward(p, np.array([3.0])) == pytest.approx([7.0])


def test_forward_zero_final_layer_gives_zero_vector():
    rng = np.random.default_rng(0)
    p = net.init_network([3, 8, 2], ["tanh", "identity"], rng)
    p.layers[-1].weights[:] = 0.0
    p.layers[-1].bias[:] = 0.0
    out = net.forward(p, rng.standard_normal(3))
    assert np.array_equal(out, np.zeros(2))


def test_forward_tanh_zero_preactivation():
    p = single_layer([[1.0, -1.0]], [0.0], "tanh")
    assert net.forward(p, np.array([0.5, 0.5])) == pytest.approx([0.0], abs=0)


def test_forward_is_pure():
    rng = np.random.default_rng(1)
    p = net.init_network([4, 16, 3], ["relu", "tanh"], rng)
    x = rng.standard_normal(4)
    a = net.forward(p, x)
    b = net.forward(p, x)
    assert np.array_equal(a, b)


def test_forward_dimension_mismatch():
    p = single_layer([[2.0]], [1.0])
    with pytest.raises(DimensionMismatch):
        net.forward(p, np.array([1.0, 2.0]))


def test_gradient_upstream_dimension_mismatch():
    # the gradient calls take an upstream of the output's (n, 1) shape only
    p = single_layer([[2.0]], [1.0])
    for upstream in (np.ones(3), np.ones((3, 2))):
        for grad_call in (net.backward_batch, net.input_grad_batch):
            _, cache = net.forward_batch(p, np.ones((3, 1)), want_cache=True)
            with pytest.raises(DimensionMismatch):
                grad_call(p, upstream, cache)


def test_layer_chain_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        net.NetworkParams([
            net.Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
            net.Layer(np.zeros((1, 4)), np.zeros(1), "identity"),
        ])


def backward_at(p, x, upstream):
    """(parameter grads, input grads) at the batch x.

    A cache serves one gradient call, so backward_batch and
    input_grad_batch each get a fresh forward cache of x.
    """
    _, cache = net.forward_batch(p, x, want_cache=True)
    grads = net.backward_batch(p, upstream, cache)
    _, cache = net.forward_batch(p, x, want_cache=True)
    return grads, net.input_grad_batch(p, upstream, cache)


def test_backward_single_affine_chain_rule():
    p = single_layer([[2.0]], [1.0])
    grads, input_grad = backward_at(p, np.array([[3.0]]), np.array([[1.0]]))
    assert grads == pytest.approx([3.0, 1.0])     # dW = x, db = 1
    assert input_grad[0] == pytest.approx([2.0])   # dx = W


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(2)
    p = net.init_network([3, 8, 2], ["tanh", "sigmoid"], rng)
    grads, input_grad = backward_at(p, rng.standard_normal((1, 3)), np.zeros((1, 2)))
    assert np.array_equal(grads, np.zeros(p.n_params))
    assert np.array_equal(input_grad, np.zeros((1, 3)))


def test_backward_matches_finite_differences_two_layer_tanh():
    rng = np.random.default_rng(3)
    p = net.init_network([4, 8, 1], ["tanh", "tanh"], rng)
    x = rng.standard_normal(4)
    grads, input_grad = backward_at(p, x[None, :], np.array([[1.0]]))

    def by_params(flat):
        q = p.copy()
        q.set_flat(flat)
        return float(net.forward(q, x)[0])

    def by_input(xv):
        return float(net.forward(p, xv)[0])

    assert net.finite_diff_check(by_params, p.get_flat(), grads) < 1e-4
    assert net.finite_diff_check(by_input, x, input_grad[0]) < 1e-4


@pytest.mark.parametrize("dims,acts", [
    ([3, 64, 64, 1], ["relu", "relu", "tanh"]),      # actor shape
    ([3, 64, 64, 1], ["relu", "relu", "sigmoid"]),   # critic shape
    ([2, 64, 64, 1], ["relu", "relu", "identity"]),  # BC mean shape
])
def test_repo_network_shapes_pass_gradient_check(dims, acts):
    rng = np.random.default_rng(42)
    for _ in range(3):
        p = net.init_network(dims, acts, rng)
        x = rng.standard_normal(dims[0])
        upstream = rng.standard_normal(dims[-1])
        grads, input_grad = backward_at(p, x[None, :], upstream[None, :])

        def by_input(xv):
            return float(upstream @ net.forward(p, xv))

        assert net.finite_diff_check(by_input, x, input_grad[0]) < 1e-4
        # spot-check a slice of parameter coordinates at full batch cost
        flat = p.get_flat()
        idx = rng.integers(0, flat.size, size=60)

        def by_coord(i, v):
            f = flat.copy()
            f[i] = v
            q = p.copy()
            q.set_flat(f)
            return float(upstream @ net.forward(q, x))

        for i in idx:
            hi = by_coord(i, flat[i] + 1e-5)
            lo = by_coord(i, flat[i] - 1e-5)
            numeric = (hi - lo) / 2e-5
            denom = max(abs(numeric), abs(grads[i]), 1e-8)
            assert abs(numeric - grads[i]) / denom < 1e-4


def test_flat_view_round_trip():
    rng = np.random.default_rng(5)
    p = net.init_network([4, 8, 3], ["relu", "identity"], rng)
    flat = p.get_flat()
    assert flat.shape == (4 * 8 + 8 + 8 * 3 + 3,)
    q = p.copy()
    q.set_flat(flat)
    assert np.array_equal(q.get_flat(), flat)
    for la, lb in zip(p.layers, q.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_set_flat_wrong_length():
    p = single_layer([[2.0]], [1.0])
    with pytest.raises(DimensionMismatch):
        p.set_flat(np.zeros(5))


def test_init_network_bounds_and_zero_bias():
    rng = np.random.default_rng(6)
    p = net.init_network([16, 8, 2], ["relu", "identity"], rng)
    for l in p.layers:
        bound = 1.0 / np.sqrt(l.n_in)
        assert np.all(np.abs(l.weights) <= bound)
        assert np.array_equal(l.bias, np.zeros(l.n_out))


def test_adam_zero_gradient_leaves_params_unchanged():
    p = single_layer([[2.0]], [1.0])
    st = net.AdamState.for_params(p.n_params, lr=0.1)
    before = p.get_flat()
    net.adam_step(st, p.flat, np.zeros(2))
    assert np.array_equal(p.get_flat(), before)
    assert st.step_count == 1


def test_adam_first_step_hand_computed():
    # scalar parameter 0, grad 1, lr 0.1: bias correction makes
    # m_hat = v_hat = 1, so the step is lr / (1 + eps) ~ 0.1
    p = single_layer([[0.0]], [0.0])
    st = net.AdamState.for_params(2, lr=0.1)
    net.adam_step(st, p.flat, np.array([1.0, 0.0]))
    assert p.layers[0].weights[0, 0] == pytest.approx(-0.1, abs=1e-6)
    assert p.layers[0].bias[0] == 0.0


def test_adam_two_steps_monotone_descent():
    p = single_layer([[0.0]], [0.0])
    st = net.AdamState.for_params(2, lr=0.05)
    g = np.array([1.0, 0.0])
    net.adam_step(st, p.flat, g)
    w1 = p.layers[0].weights[0, 0]
    net.adam_step(st, p.flat, g)
    w2 = p.layers[0].weights[0, 0]
    assert w1 < 0.0
    assert w2 < w1


def test_adam_rejects_non_finite_gradients():
    p = single_layer([[0.0]], [0.0])
    st = net.AdamState.for_params(2, lr=0.1)
    with pytest.raises(NonFiniteError):
        net.adam_step(st, p.flat, np.array([np.nan, 0.0]))


def test_finite_diff_check_quadratic():
    fn = lambda v: float(v[0] ** 2)
    assert net.finite_diff_check(fn, np.array([3.0]), np.array([6.0])) < 1e-8


def test_finite_diff_check_constant():
    fn = lambda v: 1.5
    assert net.finite_diff_check(fn, np.array([3.0]), np.array([0.0])) == 0.0


def test_finite_diff_check_reports_wrong_gradient():
    fn = lambda v: float(v[0] ** 2)
    err = net.finite_diff_check(fn, np.array([3.0]), np.array([5.0]))
    assert err == pytest.approx(1.0 / 6.0, rel=1e-5)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    p = net.init_network([3, 8, 2], ["relu", "tanh"], rng)
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(p, path, extra={"clamp_eps": 1e-6})
    q, doc = net.load_checkpoint(path)
    with net.file_errors("checkpoint", path):
        net.check_json_types(doc, {"clamp_eps": "float"})
    assert doc["clamp_eps"] == 1e-6
    assert [l["activation"] for l in doc["layers"]] == ["relu", "tanh"]
    assert doc["layers"][0]["in"] == 3 and doc["layers"][0]["out"] == 8
    assert np.array_equal(p.get_flat(), q.get_flat())


def test_a_number_kind_takes_exactly_the_integers_a_float_holds():
    # json.load reads any integer as an int; float() and numpy round one of
    # 2**1024 - 2**970 or more past the largest float64, and overflow
    edge = 2**1024 - 2**970
    for v in (edge - 1, 1 - edge):
        assert np.isfinite(np.asarray([0.5, v], dtype=np.float64)).all()
        net.check_json_types({"x": v, "xs": [0.5, v]}, {"x": "float", "xs": "floats"})
    for v in (edge, -edge, 10**400):
        with pytest.raises(OverflowError):
            np.asarray([0.5, v], dtype=np.float64)
        for doc, kind in (({"x": v}, "float"), ({"x": [0.5, v]}, "floats")):
            with pytest.raises(ValueError, match=r"^x: the integer -?\d+\.\.\.\d+ is too "
                                                 r"large for a float$"):
                net.check_json_types(doc, {"x": kind})


def test_checkpoint_write_failure_keeps_previous_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(net.init_network([3, 8, 2], ["relu", "tanh"], rng), path)
    before = path.read_bytes()

    def dump_then_fail(doc, f, **kwargs):
        f.write('{"layers": [{"in": 3, ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        net.save_checkpoint(net.init_network([3, 8, 2], ["relu", "tanh"], rng), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.ckpt"]


# Reference engine: the out-of-place formulas the in-place engine must
# reproduce bit for bit.

def _ref_activation(name, z):
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    return 1.0 / (1.0 + np.exp(-z))


def _ref_activation_grad(name, z, a):
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "identity":
        return np.ones_like(z)
    return a * (1.0 - a)


def reference_forward_backward(params, x, upstream):
    """(output, flat param grads, input grads) by the textbook formulas."""
    cache = []
    a = x
    for l in params.layers:
        z = a @ l.weights.T + l.bias
        a_next = _ref_activation(l.activation, z)
        cache.append((a, z, a_next))
        a = a_next
    grads = []
    g = upstream
    for l, (a_in, z, a_out) in reversed(list(zip(params.layers, cache))):
        dz = g * _ref_activation_grad(l.activation, z, a_out)
        grads[:0] = [(dz.T @ a_in).ravel(), dz.sum(axis=0)]
        g = dz @ l.weights
    return a, np.concatenate(grads), g


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def random_network(rng, activation):
    depth = int(rng.integers(1, 5))
    dims = [int(d) for d in rng.integers(1, 70, size=depth + 1)]
    acts = [str(a) for a in rng.choice(net.ACTIVATIONS, size=depth)]
    acts[int(rng.integers(depth))] = activation
    p = net.init_network(dims, acts, rng)
    p.set_flat(2.0 * p.get_flat() + rng.standard_normal(p.n_params) * 0.1)
    return p


def trainer_networks(rng):
    """A linereacher critic and actor as the trainer builds them, with
    a union batch (256 rows) and a behaviour batch (128 rows) of inputs
    and upstreams. Some upstream rows are signed zeros, as clamped
    critic rows give, so the one-unit output layers see them."""
    nets = []
    for out_act, n in (("sigmoid", 256), ("tanh", 128)):
        p = net.init_mlp(3, 1, out_act, rng)
        p.set_flat(p.get_flat() + 0.1 * rng.standard_normal(p.n_params))
        upstream = rng.standard_normal((n, 1))
        upstream[::7] = -0.0
        upstream[3::7] = 0.0
        nets.append((p, rng.standard_normal((n, 3)), upstream))
    return nets


def assert_engine_matches_reference(p, x, upstream):
    n = x.shape[0]
    ref_out, ref_grads, ref_gin = reference_forward_backward(p, x, upstream)

    out, cache = net.forward_batch(p, x, want_cache=True)
    assert_bits_equal(out, ref_out)
    assert_bits_equal(net.forward_batch(p, x), ref_out)
    # one row is a different BLAS call than a row of a batch, so the
    # single-vector path is compared with a one-row reference
    for i in (0, n - 1):
        row = x[i:i + 1]
        ref_row = reference_forward_backward(p, row, upstream[i:i + 1])[0]
        assert_bits_equal(net.forward(p, x[i]), ref_row[0])
        assert_bits_equal(net.forward_batch(p, row), ref_row)

    x_before, up_before, out_before = x.copy(), upstream.copy(), out.copy()
    assert_bits_equal(net.backward_batch(p, upstream, cache), ref_grads)
    # the cache is consumed, but the caller's arrays are only read
    assert_bits_equal(x, x_before)
    assert_bits_equal(upstream, up_before)
    assert_bits_equal(out, out_before)

    _, cache = net.forward_batch(p, x, want_cache=True)
    assert_bits_equal(net.input_grad_batch(p, upstream, cache), ref_gin)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("activation", net.ACTIVATIONS)
def test_engine_matches_reference_bit_for_bit(activation, seed):
    rng = np.random.default_rng([seed, net.ACTIVATIONS.index(activation)])
    p = random_network(rng, activation)
    n = int(rng.integers(1, 300))
    x = 3.0 * rng.standard_normal((n, p.n_in))
    x[0] = 0.0   # exact zero pre-activations where the bias is zero
    upstream = rng.standard_normal((n, p.n_out))
    assert_engine_matches_reference(p, x, upstream)
    for p, x, upstream in trainer_networks(rng):
        assert_engine_matches_reference(p, x, upstream)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("activation", net.ACTIVATIONS)
def test_forward_on_a_stack_matches_one_row_calls_bit_for_bit(activation, order):
    # each row of a stack gets the matrix-vector products of a one-row
    # call, which are the reference's one-row (1, n_in) products
    rng = np.random.default_rng([net.ACTIVATIONS.index(activation), ord(order)])
    for _ in range(3):
        p = random_network(rng, activation)
        for n in (1, 2, 20):
            x = np.asarray(3.0 * rng.standard_normal((n, p.n_in)), order=order)
            out = net.forward(p, x)
            assert out.shape == (n, p.n_out)
            for row, got in zip(x, out):
                row = np.ascontiguousarray(row)
                want = reference_forward_backward(p, row[None], np.zeros((1, p.n_out)))[0][0]
                assert_bits_equal(net.forward(p, row), want)
                assert_bits_equal(got, want)


def test_forward_rejects_other_ranks_and_widths():
    p = single_layer([[2.0, 1.0]], [1.0])
    for x in (np.array(1.0), np.ones((2, 3)), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            net.forward(p, x)


def reference_adam_step(flat, m, v, t, lr, g):
    """Adam step t by the textbook formula; returns the new (flat, m, v)."""
    b1, b2, eps = net.ADAM_BETA1, net.ADAM_BETA2, net.ADAM_EPS
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return flat - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def test_adam_step_matches_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    p = net.init_network([5, 7, 3], ["tanh", "identity"], rng)
    st = net.AdamState.for_params(p.n_params, lr=0.01)
    flat = p.get_flat()
    m = np.zeros(p.n_params)
    v = np.zeros(p.n_params)
    for t in range(1, 6):
        g = rng.standard_normal(p.n_params)
        g_before = g.copy()
        flat, m, v = reference_adam_step(flat, m, v, t, st.lr, g)
        assert net.adam_step(st, p.flat, g) is None
        assert st.step_count == t
        assert_bits_equal(p.flat, flat)
        assert_bits_equal(st.first_moment, m)
        assert_bits_equal(st.second_moment, v)
        assert_bits_equal(g, g_before)


def _assert_layers_view_flat(p):
    for l in p.layers:
        assert np.shares_memory(l.weights, p.flat)
        assert np.shares_memory(l.bias, p.flat)
    assert np.array_equal(p.flat, np.concatenate(
        [np.concatenate([l.weights.ravel(), l.bias]) for l in p.layers]))


def test_layer_arrays_are_views_into_flat(tmp_path):
    rng = np.random.default_rng(9)
    p = net.init_network([3, 6, 2], ["relu", "sigmoid"], rng)
    _assert_layers_view_flat(p)
    p.set_flat(rng.standard_normal(p.n_params))
    _assert_layers_view_flat(p)
    p.layers[0].bias[:] = 4.0   # a write through a layer lands in flat
    assert np.all(p.flat[18:24] == 4.0)
    q = p.copy()
    _assert_layers_view_flat(q)
    assert not np.shares_memory(q.flat, p.flat)
    net.save_checkpoint(p, tmp_path / "p.ckpt")
    r, _ = net.load_checkpoint(tmp_path / "p.ckpt")
    _assert_layers_view_flat(r)
    assert np.array_equal(r.flat, p.flat)
    snapshot = p.get_flat()
    assert not np.shares_memory(snapshot, p.flat)
