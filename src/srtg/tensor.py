"""Minimal dense float64 tensor engine with tape-based reverse-mode autodiff.

Only the primitives the gated recurrent path and the 3D residual backbone
need are implemented. Everything is float64 and single-threaded within a
graph; re-running a forward with identical inputs is bit-identical because
reduction order is fixed.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GraphError",
    "NondeterministicError",
    "no_grad",
    "backward",
    "grad_check",
    "add",
    "sub",
    "mul",
    "scale",
    "add_bias",
    "affine",
    "matmul",
    "sigmoid",
    "tanh",
    "relu",
    "softmax_last",
    "stable_softmax",
    "sum_all",
    "mean_all",
    "concat_last",
    "time_slice",
    "stack_time",
    "conv3d",
    "batch_norm",
    "max_pool3d",
    "spatial_avg_pool",
    "global_avg_pool",
    "scale_by_embedding",
    "add_embedding",
    "select_clips",
    "softmax_cross_entropy",
]


class ShapeError(ValueError):
    """Operand shapes are not conformable; message names the offending dim."""


class GraphError(RuntimeError):
    """Backward called on a non-scalar or on an already-consumed graph."""


class NondeterministicError(RuntimeError):
    """A graph builder produced different values on re-evaluation."""


_seq_counter = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A contiguous float64 array plus optional gradient bookkeeping.

    Op outputs remember their parents and a backward closure; `backward`
    replays closures in reverse creation order, which is a valid reverse
    topological order because ops only consume already-created tensors.
    """

    __slots__ = ("data", "requires_grad", "grad", "_seq", "_parents", "_bwd", "_consumed")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would up-rank 0-d
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._seq = next(_seq_counter)
        self._parents = ()
        self._bwd = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def needs_grad(self):
        return self.requires_grad or self._bwd is not None

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data, parents, bwd):
    """Wrap an op output, recording the closure only when gradients can flow."""
    out = Tensor(data)
    if _grad_enabled and any(p.needs_grad for p in parents):
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def _accumulate(store, tensor, grad):
    if not tensor.needs_grad:
        return
    key = id(tensor)
    if key in store:
        store[key] = store[key] + grad
    else:
        store[key] = grad


def backward(loss: Tensor):
    """Populate .grad on every reachable requires_grad tensor.

    The graph is consumed: a second backward through any of its op nodes
    raises GraphError. Gradients accumulate additively across fan-out and
    across repeated backward calls on disjoint graphs.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    # Collect reachable nodes; creation order gives the topological order.
    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._consumed:
            raise GraphError("graph already consumed; re-run the forward pass")
        nodes.append(node)
        stack.extend(node._parents)
    nodes.sort(key=lambda n: n._seq, reverse=True)

    grads = {id(loss): np.ones((), dtype=np.float64)}
    for node in nodes:
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        if node.requires_grad:
            node.grad = grad.copy() if node.grad is None else node.grad + grad
        if node._bwd is not None:
            for parent, pgrad in node._bwd(grad):
                _accumulate(grads, parent, pgrad)
            node._consumed = True
            node._bwd = None


# ---------------------------------------------------------------------------
# pointwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} vs {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _result(a.data + b.data, (a, b), lambda g: [(a, g), (b, g)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _result(a.data - b.data, (a, b), lambda g: [(a, g), (b, -g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _result(ad * bd, (a, b), lambda g: [(a, g * bd), (b, g * ad)])


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _result(x.data * s, (x,), lambda g: [(x, g * s)])


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b with b broadcast over all leading axes (b is 1-D, last dim)."""
    if b.data.ndim != 1 or b.data.shape[0] != x.data.shape[-1]:
        raise ShapeError(
            f"add_bias: bias shape {b.data.shape} does not match last dim {x.data.shape[-1]}"
        )
    lead = tuple(range(x.data.ndim - 1))
    return _result(x.data + b.data, (x, b), lambda g: [(x, g), (b, g.sum(axis=lead))])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul: operands must be 2-D")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: inner dims {a.data.shape[1]} vs {b.data.shape[0]} differ"
        )
    ad, bd = a.data, b.data
    return _result(ad @ bd, (a, b), lambda g: [(a, g @ bd.T), (b, ad.T @ g)])


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for w of shape (out, in); the usual dense layer."""
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(
            f"affine: input dim {x.data.shape[-1]} vs weight in-dim {w.data.shape[1]}"
        )
    xd, wd = x.data, w.data
    out = xd @ wd.T + b.data
    return _result(
        out,
        (x, w, b),
        lambda g: [(x, g @ wd), (w, g.T @ xd), (b, g.sum(axis=0))],
    )


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _result(s, (x,), lambda g: [(x, g * s * (1.0 - s))])


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return _result(t, (x,), lambda g: [(x, g * (1.0 - t * t))])


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return _result(np.maximum(xd, 0.0), (x,), lambda g: [(x, g * (xd > 0.0))])


def stable_softmax(v: np.ndarray, axis=-1) -> np.ndarray:
    """Max-subtracted softmax on a plain array (shared by ops and the gate)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ShapeError("softmax of an empty array")
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_last(x: Tensor) -> Tensor:
    y = stable_softmax(x.data, axis=-1)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return [(x, y * (g - dot))]

    return _result(y, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape
    return _result(
        np.asarray(x.data.sum(), dtype=np.float64),
        (x,),
        lambda g: [(x, np.full(shape, float(g), dtype=np.float64))],
    )


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.data.shape
    return _result(
        np.asarray(x.data.mean(), dtype=np.float64),
        (x,),
        lambda g: [(x, np.full(shape, float(g) / n, dtype=np.float64))],
    )


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(
            f"concat_last: leading shapes {a.data.shape[:-1]} vs {b.data.shape[:-1]} differ"
        )
    na = a.data.shape[-1]

    def bwd(g):
        return [(a, g[..., :na]), (b, g[..., na:])]

    return _result(np.concatenate([a.data, b.data], axis=-1), (a, b), bwd)


def time_slice(x: Tensor, t: int) -> Tensor:
    """Select timestep t from a (N, T, C) sequence -> (N, C)."""
    if x.data.ndim != 3:
        raise ShapeError(f"time_slice expects (N, T, C), got {x.data.shape}")
    shape = x.data.shape

    def bwd(g):
        full = np.zeros(shape, dtype=np.float64)
        full[:, t, :] = g
        return [(x, full)]

    return _result(x.data[:, t, :].copy(), (x,), bwd)


def stack_time(steps) -> Tensor:
    """Stack T tensors of shape (N, C) into (N, T, C)."""
    steps = list(steps)
    data = np.stack([s.data for s in steps], axis=1)

    def bwd(g):
        return [(s, g[:, t, :]) for t, s in enumerate(steps)]

    return _result(data, tuple(steps), bwd)


# ---------------------------------------------------------------------------
# volume ops: (N, C, T, H, W) activations
# ---------------------------------------------------------------------------


def _conv_extent(ext, k, s, p, name):
    out = (ext + 2 * p - k) // s + 1
    if out <= 0:
        raise ShapeError(
            f"conv3d: non-positive output extent along {name} "
            f"(input {ext}, kernel {k}, stride {s}, padding {p})"
        )
    return out


def conv3d(x: Tensor, w: Tensor, b=None, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """3D convolution with zero padding.

    x: (N, C_in, T, H, W); w: (C_out, C_in, kT, kH, kW); b: (C_out,) or None.
    Output extents follow floor((ext + 2p - k) / s) + 1.
    """
    if x.data.ndim != 5:
        raise ShapeError(f"conv3d: input must be rank 5, got shape {x.data.shape}")
    if w.data.ndim != 5:
        raise ShapeError(f"conv3d: weights must be rank 5, got shape {w.data.shape}")
    n, cin, t, h, wd = x.data.shape
    cout, wcin, kt, kh, kw = w.data.shape
    if wcin != cin:
        raise ShapeError(f"conv3d: input channels {cin} vs kernel in-channels {wcin}")
    if b is not None and b.data.shape != (cout,):
        raise ShapeError(f"conv3d: bias shape {b.data.shape}, expected ({cout},)")
    st, sh, sw = stride
    pt, ph, pw = padding
    ot = _conv_extent(t, kt, st, pt, "frames")
    oh = _conv_extent(h, kh, sh, ph, "height")
    ow = _conv_extent(wd, kw, sw, pw, "width")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    wdat = w.data
    out = np.zeros((n, cout, ot, oh, ow), dtype=np.float64)
    for dt in range(kt):
        for dh in range(kh):
            for dw in range(kw):
                xs = xp[:, :, dt : dt + ot * st : st, dh : dh + oh * sh : sh, dw : dw + ow * sw : sw]
                out += np.einsum("ncthw,oc->nothw", xs, wdat[:, :, dt, dh, dw])
    if b is not None:
        out += b.data.reshape(1, cout, 1, 1, 1)

    def bwd(g):
        dxp = np.zeros_like(xp)
        dw_ = np.zeros_like(wdat)
        for dt in range(kt):
            for dh in range(kh):
                for dw in range(kw):
                    sl = (
                        slice(None),
                        slice(None),
                        slice(dt, dt + ot * st, st),
                        slice(dh, dh + oh * sh, sh),
                        slice(dw, dw + ow * sw, sw),
                    )
                    dxp[sl] += np.einsum("nothw,oc->ncthw", g, wdat[:, :, dt, dh, dw])
                    dw_[:, :, dt, dh, dw] = np.einsum("nothw,ncthw->oc", g, xp[sl])
        dx = dxp[:, :, pt : pt + t, ph : ph + h, pw : pw + wd]
        grads = [(x, dx), (w, dw_)]
        if b is not None:
            grads.append((b, g.sum(axis=(0, 2, 3, 4))))
        return grads

    parents = (x, w) if b is None else (x, w, b)
    return _result(out, parents, bwd)


def max_pool3d(x: Tensor, kernel, stride, padding=(0, 0, 0)) -> Tensor:
    """Max pooling over (T, H, W); padding uses -inf so it never wins."""
    if x.data.ndim != 5:
        raise ShapeError(f"max_pool3d: input must be rank 5, got {x.data.shape}")
    n, c, t, h, w = x.data.shape
    kt, kh, kw = kernel
    st, sh, sw = stride
    pt, ph, pw = padding
    ot = _conv_extent(t, kt, st, pt, "frames")
    oh = _conv_extent(h, kh, sh, ph, "height")
    ow = _conv_extent(w, kw, sw, pw, "width")
    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)), constant_values=-np.inf)
    out = np.full((n, c, ot, oh, ow), -np.inf)
    argoff = np.zeros((n, c, ot, oh, ow), dtype=np.int64)
    offsets = [(dt, dh, dw) for dt in range(kt) for dh in range(kh) for dw in range(kw)]
    for idx, (dt, dh, dw) in enumerate(offsets):
        xs = xp[:, :, dt : dt + ot * st : st, dh : dh + oh * sh : sh, dw : dw + ow * sw : sw]
        better = xs > out  # strict: ties resolve to the earliest offset
        out[better] = xs[better]
        argoff[better] = idx

    def bwd(g):
        dxp = np.zeros_like(xp)
        for idx, (dt, dh, dw) in enumerate(offsets):
            sl = (
                slice(None),
                slice(None),
                slice(dt, dt + ot * st, st),
                slice(dh, dh + oh * sh, sh),
                slice(dw, dw + ow * sw, sw),
            )
            dxp[sl] += g * (argoff == idx)
        return [(x, dxp[:, :, pt : pt + t, ph : ph + h, pw : pw + w])]

    return _result(out, (x,), bwd)


def spatial_avg_pool(x: Tensor) -> Tensor:
    """Squeeze (N, C, T, H, W) into a (N, T, C) temporal embedding by H,W mean."""
    if x.data.ndim != 5:
        raise ShapeError(f"spatial_avg_pool: input must be rank 5, got {x.data.shape}")
    if x.data.size == 0:
        raise ShapeError("spatial_avg_pool: empty tensor")
    n, c, t, h, w = x.data.shape
    out = x.data.mean(axis=(3, 4)).transpose(0, 2, 1)

    def bwd(g):
        # each (h, w) position receives grad / (H*W)
        gv = g.transpose(0, 2, 1)[:, :, :, None, None] / (h * w)
        return [(x, np.broadcast_to(gv, (n, c, t, h, w)).copy())]

    return _result(np.ascontiguousarray(out), (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C, T, H, W) -> (N, C) mean over all spatio-temporal positions."""
    if x.data.ndim != 5:
        raise ShapeError(f"global_avg_pool: input must be rank 5, got {x.data.shape}")
    n, c, t, h, w = x.data.shape
    m = t * h * w
    out = x.data.mean(axis=(2, 3, 4))

    def bwd(g):
        gv = g[:, :, None, None, None] / m
        return [(x, np.broadcast_to(gv, (n, c, t, h, w)).copy())]

    return _result(out, (x,), bwd)


def scale_by_embedding(vol: Tensor, emb: Tensor) -> Tensor:
    """vol[n,c,t,h,w] * emb[n,t,c], emb broadcast over the spatial plane."""
    n, c, t, h, w = vol.data.shape
    if emb.data.shape != (n, t, c):
        raise ShapeError(
            f"scale_by_embedding: embedding shape {emb.data.shape}, expected ({n}, {t}, {c})"
        )
    gmap = emb.data.transpose(0, 2, 1)[:, :, :, None, None]
    vd = vol.data

    def bwd(g):
        demb = np.einsum("ncthw,ncthw->nct", g, vd).transpose(0, 2, 1)
        return [(vol, g * gmap), (emb, demb)]

    return _result(vd * gmap, (vol, emb), bwd)


def add_embedding(vol: Tensor, emb: Tensor) -> Tensor:
    """vol[n,c,t,h,w] + emb[n,t,c], emb broadcast over the spatial plane."""
    n, c, t, h, w = vol.data.shape
    if emb.data.shape != (n, t, c):
        raise ShapeError(
            f"add_embedding: embedding shape {emb.data.shape}, expected ({n}, {t}, {c})"
        )
    emap = emb.data.transpose(0, 2, 1)[:, :, :, None, None]

    def bwd(g):
        return [(vol, g), (emb, g.sum(axis=(3, 4)).transpose(0, 2, 1))]

    return _result(vol.data + emap, (vol, emb), bwd)


def select_clips(mask, a: Tensor, b: Tensor) -> Tensor:
    """Per-clip routing: out[i] = a[i] where mask[i] else b[i] (mask is constant)."""
    _check_same_shape(a, b, "select_clips")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (a.data.shape[0],):
        raise ShapeError(f"select_clips: mask shape {mask.shape}, expected ({a.data.shape[0]},)")
    out = b.data.copy()
    out[mask] = a.data[mask]

    def bwd(g):
        ga = np.zeros_like(g)
        gb = np.zeros_like(g)
        ga[mask] = g[mask]
        gb[~mask] = g[~mask]
        return [(a, ga), (b, gb)]

    return _result(out, (a, b), bwd)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization over (N, T, H, W) of a rank-5 volume.

    Training mode normalizes with batch statistics (biased variance) and
    updates the running buffers in place; eval mode uses the running buffers.
    """
    if x.data.ndim != 5:
        raise ShapeError(f"batch_norm: input must be rank 5, got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"batch_norm: affine params must have shape ({c},)")
    axes = (0, 2, 3, 4)
    view = (1, c, 1, 1, 1)
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean.reshape(view)) * invstd.reshape(view)
    out = gamma.data.reshape(view) * xhat + beta.data.reshape(view)

    if training:
        m = x.data.size // c

        def bwd(g):
            dbeta = g.sum(axis=axes)
            dgamma = (g * xhat).sum(axis=axes)
            gs = gamma.data * invstd / m
            dx = gs.reshape(view) * (
                m * g - dbeta.reshape(view) - xhat * dgamma.reshape(view)
            )
            return [(x, dx), (gamma, dgamma), (beta, dbeta)]

    else:

        def bwd(g):
            dbeta = g.sum(axis=axes)
            dgamma = (g * xhat).sum(axis=axes)
            dx = g * (gamma.data * invstd).reshape(view)
            return [(x, dx), (gamma, dgamma), (beta, dbeta)]

    return _result(out, (x, gamma, beta), bwd)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer labels against softmax(logits)."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be (N, K), got {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.data.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"softmax_cross_entropy: labels shape {labels.shape}, expected ({n},)")
    k = logits.data.shape[1]
    outside = labels[(labels < 0) | (labels >= k)]
    if outside.size:
        raise ValueError(f"softmax_cross_entropy: label {int(outside[0])} outside [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted[np.arange(n), labels] - logz
    loss = -logp.mean()
    probs = stable_softmax(logits.data, axis=1)

    def bwd(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return [(logits, d * (float(g) / n))]

    return _result(np.asarray(loss, dtype=np.float64), (logits,), bwd)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(f, params, eps=1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f() must rebuild its graph and return a scalar Tensor; params are the
    leaf tensors to perturb. Error per component is
    |analytic - numeric| / max(1, |analytic|). Non-determinism of f is
    detected by a re-evaluation mismatch before any perturbation.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    params = list(params)
    base = f()
    if not np.array_equal(base.data, f().data):
        raise NondeterministicError("graph builder is not deterministic under re-evaluation")
    for p in params:
        p.zero_grad()
    backward(f())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f().data)
            flat[i] = orig - eps
            lo = float(f().data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = ana.reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a))
            if err > worst:
                worst = err
    for p in params:
        p.zero_grad()
    return worst
