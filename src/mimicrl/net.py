"""Minimal feed-forward network engine in float64 numpy.

Provides exactly what the rest of the library needs and nothing more:
layered affine+activation networks, reverse-mode gradients with respect
to the parameters (``backward_batch``) or to the inputs
(``input_grad_batch``), a bias-corrected Adam optimizer, a
central-difference gradient checker, and a JSON checkpoint format whose
reader, like the dataset reader, checks each value's JSON type.
``check_json_types`` is the one rule for a value read from a file: a
key's presence, its JSON kind and, for a list, its length, named by a
count (``{key} holds 3 numbers, not 1``). ``file_errors`` is the one rule
that puts a file's name in front of a fault: every fault in a checkpoint
or a config file names that file.

Each network stores its parameters in one contiguous float64 vector
(``NetworkParams.flat``) with the layer arrays as views into it, so the
update path works in place: ``adam_step`` updates a parameter vector
(that one, or any other such as a BC policy's ``log_std``) and Adam's
moments in place, and the critic's soft update mutates it. The gradient
calls take the cache of a ``forward_batch(..., want_cache=True)`` pass
in place of the input: they read the input from it and reuse its
activation buffers, so each cache serves one backward pass. Nothing here
keeps hidden state between calls.
"""

from __future__ import annotations

import contextlib
import json
import os
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MimicError, NonFiniteError

ACTIVATIONS = ("tanh", "relu", "identity", "sigmoid")


def _activate(name, z):
    """Apply the activation to the pre-activation z in place."""
    if name == "tanh":
        np.tanh(z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "sigmoid":
        # 1 / (1 + exp(-z)), step by step
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)


def _activation_grad(name, a):
    """Derivative of the activation, read from the activation a.

    Returns a fresh array, or None for identity (derivative 1). relu
    uses the z > 0 subgradient (0 at the kink), which is the mask
    a > 0.
    """
    if name == "tanh":
        d = a * a
        return np.subtract(1.0, d, out=d)
    if name == "relu":
        return a > 0.0
    if name == "sigmoid":
        d = 1.0 - a
        d *= a
        return d
    return None


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise DimensionMismatch("layer weights must be a 2-d matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise DimensionMismatch(
                f"bias shape {self.bias.shape} does not match "
                f"{self.weights.shape[0]} output units"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def n_in(self):
        return self.weights.shape[1]

    @property
    def n_out(self):
        return self.weights.shape[0]


@dataclass
class NetworkParams:
    """Ordered affine+activation layers stored in one flat vector.

    ``flat`` is a contiguous float64 vector that concatenates, per layer,
    the row-major weight matrix followed by the bias vector. Every
    ``Layer.weights`` and ``Layer.bias`` is a view into it, so writing
    either one writes the other. Construction copies the given layers'
    arrays into a fresh vector and rebinds the layers to views of it.
    ``get_flat`` returns a copy; ``set_flat`` copies into ``flat`` in
    place, and ``set_flat(get_flat())`` is exact.
    """

    layers: list[Layer]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    # the input width, the output width, each layer's output width and the
    # units of all layers (output included), read on every forward call
    n_in: int = field(init=False, repr=False, compare=False)
    n_out: int = field(init=False, repr=False, compare=False)
    widths: tuple = field(init=False, repr=False, compare=False)
    n_units: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise DimensionMismatch("'layers' holds no layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.n_out != nxt.n_in:
                raise DimensionMismatch(
                    f"layer dims do not chain: {prev.n_out} -> {nxt.n_in}"
                )
        self.flat = np.empty(sum(l.weights.size + l.bias.size for l in self.layers))
        for l, (w, b) in zip(self.layers, self._layer_views(self.flat)):
            w[...] = l.weights
            b[...] = l.bias
            l.weights, l.bias = w, b
        self.n_in = self.layers[0].n_in
        self.n_out = self.layers[-1].n_out
        self.widths = tuple(l.n_out for l in self.layers)
        self.n_units = sum(self.widths)

    @property
    def n_params(self):
        return self.flat.size

    def _layer_views(self, vec):
        """Per-layer (weights, bias) views into a vector laid out like flat."""
        views = []
        i = 0
        for l in self.layers:
            n_out, n_in = l.weights.shape
            j = i + n_out * n_in
            views.append((vec[i:j].reshape(n_out, n_in), vec[j:j + n_out]))
            i = j + n_out
        return views

    def get_flat(self):
        return self.flat.copy()

    def set_flat(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise DimensionMismatch(
                f"flat vector has {flat.shape} elements, expected {self.n_params}"
            )
        self.flat[...] = flat

    def copy(self):
        # construction copies the arrays into the new network's own vector
        return NetworkParams(
            [Layer(l.weights, l.bias, l.activation) for l in self.layers]
        )


def init_network(dims, activations, rng):
    """Build a network with uniform +-1/sqrt(fan_in) weights and zero biases.

    dims is the full chain [n_in, h1, ..., n_out]; activations has one
    entry per layer (len(dims) - 1).
    """
    if len(activations) != len(dims) - 1:
        raise DimensionMismatch("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return NetworkParams(layers)


def init_mlp(n_in, n_out, out_activation, rng, hidden=(64, 64)):
    """init_network over [n_in, *hidden, n_out]: relu hidden layers, then
    out_activation on the output layer."""
    return init_network([n_in, *hidden, n_out],
                        ["relu"] * len(hidden) + [out_activation], rng)


def forward_batch(params, x, want_cache=False):
    """Run a (batch, n_in) matrix through the network.

    Returns the (batch, n_out) output, plus the per-layer (input,
    activation) cache when want_cache is set (needed by backward_batch).
    The activations of all layers, output included, are views into one
    fresh allocation per call, computed in place; x is never written.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.n_in:
        raise DimensionMismatch(
            f"input shape {x.shape} does not match network input dim {params.n_in}"
        )
    n = x.shape[0]
    # one allocation per pass: glibc then sizes its heap trim threshold
    # (twice the largest freed mmap chunk) to a whole pass, instead of
    # handing the heap back and faulting it in again on every pass
    block = np.empty(n * params.n_units)
    a = x
    cache = [] if want_cache else None
    pos = 0
    for l, width in zip(params.layers, params.widths):
        z = block[pos:pos + n * width].reshape(n, width)
        pos += z.size
        np.matmul(a, l.weights.T, out=z)
        z += l.bias
        _activate(l.activation, z)
        if want_cache:
            cache.append((a, z))
        a = z
    if want_cache:
        return a, cache
    return a


def forward(params, x):
    """Per-row forward pass: real[n_in] -> real[n_out], or a stack of rows
    real[n, n_in] -> real[n, n_out].

    Each layer computes ``weights @ a[..., None]`` on a stack and
    ``np.dot(weights, a)`` on one row: one matrix-vector product per row,
    the same BLAS call whether the row comes alone or in a stack. So each
    row's output is independent of its neighbours, bit for bit.
    ``forward_batch`` is the gemm pass for training batches; its rows can
    differ from these in the last bits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.n_in:
        raise DimensionMismatch(
            f"input shape {x.shape} does not match network input dim {params.n_in}"
        )
    if x.ndim == 1:
        a = x
        for l in params.layers:
            a = np.dot(l.weights, a)
            a += l.bias
            _activate(l.activation, a)
        return a
    a = x[..., None]
    for l in params.layers:
        a = l.weights @ a + l.bias[:, None]
        _activate(l.activation, a)
    return a[..., 0]


def _backprop(params, upstream, cache, grad_views):
    """Backpropagate upstream through a forward cache.

    upstream is dL/d(output) and must have the output's shape. With
    grad_views (see _layer_views), writes each layer's dW and db into
    them and returns None; with None, returns the input gradients. The
    gradient into a hidden layer goes through that layer's activation
    buffer in the cache, so the cache is consumed; the network input and
    output (the first input and last activation) are only read.
    """
    layers = params.layers
    last = len(layers) - 1
    out = cache[last][1]
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != out.shape:
        raise DimensionMismatch(
            f"upstream shape {upstream.shape} does not match the output "
            f"shape {out.shape}"
        )
    d = _activation_grad(layers[last].activation, out)
    dz = upstream if d is None else upstream * d
    for i in range(last, -1, -1):
        a_in = cache[i][0]
        if grad_views is not None:
            gw, gb = grad_views[i]
            np.matmul(dz.T, a_in, out=gw)
            np.add.reduce(dz, axis=0, out=gb)
        if i == 0:
            # one more matmul, paid only when the input gradient is wanted
            return dz @ layers[0].weights if grad_views is None else None
        # the mask must be read from a_in before a_in receives the gradient
        d = _activation_grad(layers[i - 1].activation, a_in)
        w = layers[i].weights
        if w.shape[0] == 1:
            # dz @ w has one inner term here (an outer product), so the
            # faster broadcast product matches it up to the sign of exact
            # zeros, which the gradient sums drop (they start from +0)
            dz = np.multiply(dz, w, out=a_in)
        else:
            dz = np.matmul(dz, w, out=a_in)
        if d is not None:
            dz *= d


def backward_batch(params, upstream, cache):
    """Parameter gradients for a batch, through a forward_batch cache.

    upstream is dL/d(output) with shape (batch, n_out). Returns the
    flat-view parameter gradient summed over the batch. The gradient
    with respect to the input is not formed (that would take one more
    matmul); ``input_grad_batch`` is the call for it.

    The cache serves one backward pass: its hidden activation buffers
    are overwritten with gradients. The network input, upstream and the
    network output are left unchanged.
    """
    flat = np.empty(params.n_params)
    _backprop(params, upstream, cache, params._layer_views(flat))
    return flat


def input_grad_batch(params, upstream, cache):
    """Input gradients only (no parameter gradients); consumes the cache."""
    return _backprop(params, upstream, cache, None)


# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam over a flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3

    @classmethod
    def for_params(cls, n, lr):
        return cls(np.zeros(n), np.zeros(n), 0, lr)


def adam_step(state, flat, grads):
    """One Adam descent step on the vector flat, in place.

    flat is the parameter vector itself (e.g. ``NetworkParams.flat``),
    not a copy: it and the moment vectors are updated in place, and
    state.step_count advances. Nothing is returned.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != flat.shape:
        raise DimensionMismatch(f"gradient has shape {grads.shape}, expected {flat.shape}")
    if state.first_moment.shape != flat.shape:
        raise DimensionMismatch("Adam moment vectors do not match parameter count")
    if not np.isfinite(grads).all():
        bad = int(np.count_nonzero(~np.isfinite(grads)))
        raise NonFiniteError(f"{bad} non-finite gradient component(s); aborting update")
    t = state.step_count + 1
    m, v = state.first_moment, state.second_moment
    # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
    m *= ADAM_BETA1
    step = (1.0 - ADAM_BETA1) * grads
    m += step
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grads, out=step)
    step *= grads
    v += step
    # flat -= lr m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=step)
    step *= state.lr
    denom = v / (1.0 - ADAM_BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    flat -= step
    state.step_count = t


def finite_diff_check(fn, point, analytic_grad, step=1e-5):
    """Max relative error between analytic_grad and central differences.

    Relative error per coordinate uses max(|analytic|, |numeric|, 1e-8)
    as the denominator; the worst coordinate is returned.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    worst = 0.0
    for i in range(point.size):
        bumped = point.copy()
        bumped[i] = point[i] + step
        hi = fn(bumped)
        bumped[i] = point[i] - step
        lo = fn(bumped)
        numeric = (hi - lo) / (2.0 * step)
        denom = max(abs(analytic_grad[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(numeric - analytic_grad[i]) / denom)
    return worst


@contextlib.contextmanager
def atomic_open(path):
    """Text file to fill in place of path, which it replaces on success.

    The bytes go to ``<path>.tmp``, which is then renamed over path, so a
    kill mid-write keeps the previous file whole. If the write fails, the
    partial ``.tmp`` file is removed and the error re-raised.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_json(doc, path, **dump_kwargs):
    """Write doc as JSON and a newline to path, atomically."""
    with atomic_open(path) as f:
        json.dump(doc, f, **dump_kwargs)
        f.write("\n")


def save_checkpoint(params, path, extra=None):
    """Write params, then the keys of extra, as one JSON document."""
    layers = [
        {
            "in": l.n_in,
            "out": l.n_out,
            "activation": l.activation,
            "weights": l.weights.ravel().tolist(),
            "bias": l.bias.tolist(),
        }
        for l in params.layers
    ]
    save_json({"layers": layers, **(extra or {})}, path)


# the one rule for a value of each JSON kind, in configs, dataset lines
# and checkpoints: the Python types json.load gives that kind, matched by
# exact type so that true and false pass only as a bool: an integer for an
# int, any number a float64 holds for a float; the kind "floats" is a list
# of such numbers, and a count n is a list of n of them
_JSON_TYPES = {"int": (int,), "bool": (bool,), "str": (str,)}
_NUMBER_TYPES = frozenset((int, float))
_FLOAT_TYPE = frozenset((float,))
# json.load reads any integer as an int; float() rounds one of this size
# or more past the largest float64 and overflows, and so does numpy
_INT_PAST_FLOAT = 2**1024 - 2**970
_KIND_NAMES = {"int": "an integer", "float": "a number", "bool": "true or false",
               "str": "a string", "floats": "a list of numbers"}
_LAYER_KINDS = {"in": "int", "out": "int", "activation": "str"}


def _are_numbers(key, values):
    """Whether each of values is an int or a float; raise ValueError,
    naming key, at an int too large for a float64."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        return False
    for v in values:
        if type(v) is int and not -_INT_PAST_FLOAT < v < _INT_PAST_FLOAT:
            raise ValueError(f"{key}: the integer {reprlib.repr(v)} is too large "
                             f"for a float")
    return True


def check_json_types(doc, kinds):
    """Raise ValueError unless each doc[key] has the JSON type kinds[key]
    names, where a count n names a list of n numbers (KeyError if the key
    is missing)."""
    for key, kind in kinds.items():
        value = doc[key]
        if kind in _JSON_TYPES:
            ok = type(value) in _JSON_TYPES[kind]
        elif kind == "float":
            ok = type(value) is float or _are_numbers(key, (value,))
        else:
            # "floats" or a count; a list of floats alone, as every writer
            # here gives, takes one pass
            ok = type(value) is list and (_FLOAT_TYPE.issuperset(map(type, value))
                                           or _are_numbers(key, value))
            if ok and type(kind) is int and len(value) != kind:
                raise ValueError(f"{key} holds {len(value)} numbers, not {kind}")
        if not ok:
            name = _KIND_NAMES.get(kind, _KIND_NAMES["floats"])
            raise ValueError(f"{key} must be {name}, got {reprlib.repr(value)}")


@contextlib.contextmanager
def file_errors(what, path):
    """Re-raise a KeyError or ValueError from the block, such as a JSON
    syntax error, an integer past Python's digit limit or a failed value
    check, as a MimicError "<what> <path>: ..." that names the file."""
    try:
        yield
    except KeyError as e:
        raise MimicError(f"{what} {path}: missing key {e}") from None
    except ValueError as e:
        raise MimicError(f"{what} {path}: {e}") from None


def load_checkpoint(path):
    """Load a checkpoint JSON object whose layers are well formed; returns
    (params, full document). A missing key or a bad value raises a
    MimicError that names path; the caller checks its own keys inside
    ``file_errors("checkpoint", path)``."""
    with open(path, "r", encoding="utf-8") as f, file_errors("checkpoint", path):
        doc = json.load(f)
        if type(doc) is not dict:
            raise ValueError("expected a JSON object")
        specs = doc["layers"]
        if type(specs) is not list or not all(type(s) is dict for s in specs):
            raise ValueError(f"layers must be a list of objects, got {reprlib.repr(specs)}")
        layers = []
        for spec in specs:
            check_json_types(spec, _LAYER_KINDS)
            n_in, n_out = spec["in"], spec["out"]
            check_json_types(spec, {"weights": n_in * n_out, "bias": n_out})
            w = np.asarray(spec["weights"], dtype=np.float64)
            layers.append(Layer(w.reshape(n_out, n_in), np.asarray(spec["bias"]),
                                spec["activation"]))
        params = NetworkParams(layers)
    return params, doc
