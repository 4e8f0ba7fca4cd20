"""Walkthrough of the network engine: forward, backward, Adam.

Builds a small MLP, checks its reverse-mode gradients against central
finite differences, then fits sin(x) on [-pi, pi] with Adam to show the
optimizer converging.
"""

import numpy as np

from mimicrl import net

rng = np.random.default_rng(0)

print("== a 2-layer tanh network ==")
params = net.init_network([1, 32, 1], ["tanh", "identity"], rng)
print(f"parameters: {params.n_params} (flat view round-trips losslessly)")
flat = params.get_flat()
params.set_flat(flat)
assert np.array_equal(params.get_flat(), flat)

x = np.array([0.37])
y = net.forward(params, x)
print(f"forward([0.37]) = {y}")

print("\n== gradients vs central finite differences ==")
# a one-row batch: the gradients of the output at x, through the cache of
# its forward pass (the cache serves one backward pass, so the input
# gradients take a second forward pass)
_, cache = net.forward_batch(params, x[None, :], want_cache=True)
grads = net.backward_batch(params, np.array([[1.0]]), cache)
_, cache = net.forward_batch(params, x[None, :], want_cache=True)
input_grads = net.input_grad_batch(params, np.array([[1.0]]), cache)


def output_of(flat_params):
    trial = params.copy()
    trial.set_flat(flat_params)
    return float(net.forward(trial, x)[0])


err = net.finite_diff_check(output_of, params.get_flat(), grads, step=1e-5)
print(f"max relative error over all {params.n_params} parameters: {err:.2e}")

err_in = net.finite_diff_check(lambda v: float(net.forward(params, v)[0]),
                               x, input_grads[0], step=1e-5)
print(f"input-gradient error: {err_in:.2e}")

print("\n== fitting sin(x) with Adam ==")
xs = np.linspace(-np.pi, np.pi, 256)[:, None]
ys = np.sin(xs)
opt = net.AdamState.for_params(params.n_params, lr=1e-2)
for step_i in range(2001):
    pred, cache = net.forward_batch(params, xs, want_cache=True)
    resid = pred - ys
    loss = float(np.mean(resid ** 2))
    grad = net.backward_batch(params, 2.0 * resid / len(xs), cache)
    net.adam_step(opt, params.flat, grad)   # in place
    if step_i % 500 == 0:
        print(f"step {step_i:5d}  mse {loss:.6f}")
print("a few predictions vs targets:")
for xv in (-2.0, -0.5, 1.0, 2.5):
    print(f"  sin({xv:+.1f}) = {np.sin(xv):+.4f}   net -> "
          f"{net.forward(params, np.array([xv]))[0]:+.4f}")
