"""Minimal dense float64 tensor engine with tape-based reverse-mode autodiff.

Only the primitives the gated recurrent path and the 3D residual backbone
need are implemented. Everything is float64 and single-threaded within a
graph; re-running a forward with identical inputs is bit-identical because
reduction order is fixed.
"""

from __future__ import annotations

import ctypes
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
    "add_relu",
    "affine",
    "sigmoid",
    "sum_all",
    "lstm_layer",
    "conv3d",
    "batch_norm",
    "max_pool3d",
    "spatial_avg_pool",
    "global_avg_pool",
    "fuse_embedding",
    "softmax_cross_entropy",
]


def _keep_freed_memory():
    """Keep the memory `backward` frees for the next step, which glibc would
    trim back to the OS for the next forward to fault in again. Both
    thresholds are set, since setting either one turns off glibc's dynamic
    mmap threshold. Holds for the whole process; needs glibc's `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB come from the heap
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: up to 1 GiB of free heap top stays


_keep_freed_memory()


class ShapeError(ValueError):
    """Operand shapes are not conformable; message names the offending dim."""


class GraphError(RuntimeError):
    """Backward called on a non-scalar without a grad, or on a consumed graph."""


class NondeterministicError(RuntimeError):
    """A graph builder produced different values on re-evaluation."""


_seq_counter = itertools.count()
_grad_enabled = True
BN_EPS = 1e-5  # batch norm's variance offset, also read by the eval-time fold


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
    A consumed node forgets both, keeping its data and a consumed mark.
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


def _records(parents):
    """Whether an op over `parents` records a tape node: gradients can flow."""
    return _grad_enabled and any(p.needs_grad for p in parents)


def _result(data, parents, bwd):
    """Wrap an op output, recording the closure only when gradients can flow."""
    out = Tensor(data)
    if _records(parents):
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def backward(loss: Tensor, grad=None):
    """Populate .grad on every reachable requires_grad tensor.

    The sweep starts from `grad`, a cotangent of `loss`'s shape (1 for a
    scalar loss when `grad` is None), so each leaf receives the
    vector-Jacobian product grad . d loss / d leaf; a `grad` of another
    shape is a ShapeError before any node is consumed. The graph is
    consumed: a second backward through any of its op nodes raises
    GraphError. The sweep frees the tape as it goes: each node drops
    its closure and parents once its closure has run, and the sweep its own
    reference, so an activation lives only until its readers are done and
    only the Tensors the caller holds outlive the call. Gradients accumulate
    additively across fan-out and across repeated backward calls on
    disjoint graphs.
    """
    if grad is None and loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    grad = np.ones(()) if grad is None else np.asarray(grad, dtype=np.float64)
    if grad.shape != loss.data.shape:
        raise ShapeError(f"backward: grad shape {grad.shape} vs output shape {loss.data.shape}")
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

    grads = {id(loss): grad}
    for i, node in enumerate(nodes):
        nodes[i] = None  # the sweep's reference goes, so a spent node can be freed
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        if node.requires_grad:
            node.grad = grad.copy() if node.grad is None else node.grad + grad
        if node._bwd is not None:
            for parent, pgrad in node._bwd(grad):
                if parent.needs_grad:
                    key = id(parent)
                    grads[key] = grads[key] + pgrad if key in grads else pgrad
            node._consumed = True
            node._bwd = None
            node._parents = ()


# ---------------------------------------------------------------------------
# pointwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def add_relu(a: Tensor, b: Tensor) -> Tensor:
    """relu(a + b) in one node, the residual join: the sum is clamped in place
    and both summands receive g * (out > 0)."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add_relu: operand shapes {a.data.shape} vs {b.data.shape} differ")
    out = a.data + b.data
    np.maximum(out, 0.0, out=out)

    def bwd(g):
        gm = g * (out > 0.0)
        return [(a, gm), (b, gm)]

    return _result(out, (a, b), bwd)


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
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _result(s, (x,), lambda g: [(x, g * s * (1.0 - s))])


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape
    return _result(
        np.asarray(x.data.sum(), dtype=np.float64),
        (x,),
        lambda g: [(x, np.full(shape, float(g), dtype=np.float64))],
    )


def lstm_layer(seq: Tensor, weights, biases) -> Tensor:
    """One LSTM layer over a (N, T, C_in) sequence -> (N, T, C) hidden states.

    weights are the forget, input, candidate and output gates' (C, C + C_in)
    maps of [h_(t-1), x_t], biases their (C,) offsets; from zero state,
    c_t = f*c_(t-1) + i*cand and h_t = o*tanh(c_t), with sigmoid f, i, o and a
    tanh candidate. The input half of every gate is one matmul over the whole
    sequence (cuDNN's hoisted projection); only h_(t-1) @ W_h^T runs per step.
    One tape node: its BPTT backward collects dz for every gate and step, then
    dW, db and dseq are one matmul or sum each.
    """
    if seq.data.ndim != 3:
        raise ShapeError(f"lstm_layer: input must be (N, T, C), got {seq.data.shape}")
    n, t, cin = seq.data.shape
    c = weights[0].data.shape[0]
    for w, b in zip(weights, biases):
        if w.data.shape != (c, c + cin) or b.data.shape != (c,):
            raise ShapeError(f"lstm_layer: gate weights {w.data.shape} and bias "
                             f"{b.data.shape}, expected ({c}, {c + cin}) and ({c},)")
    wcat = np.concatenate([w.data for w in weights])  # (4C, C + C_in): f | i | cand | o
    wh = np.ascontiguousarray(wcat[:, :c])
    whT = np.ascontiguousarray(wh.T)
    wx = wcat[:, c:]
    # time-major, so every step reads and writes contiguous (N, .) rows
    xs = np.ascontiguousarray(seq.data.transpose(1, 0, 2))
    zx = (xs.reshape(t * n, cin) @ wx.T).reshape(t, n, 4 * c)
    zx += np.concatenate([b.data for b in biases])
    acts = np.empty((t, n, 4 * c))  # gate activations
    cs, hs = np.empty((t, n, c)), np.empty((t, n, c))
    h = cell = np.zeros((n, c))
    for s in range(t):
        z = h @ whT
        z += zx[s]
        a = acts[s]
        a[:] = _sigmoid(z)
        np.tanh(z[:, 2 * c:3 * c], out=a[:, 2 * c:3 * c])
        cell = np.multiply(a[:, :c], cell, out=cs[s])
        cell += a[:, c:2 * c] * a[:, 2 * c:3 * c]
        h = np.multiply(a[:, 3 * c:], np.tanh(cell), out=hs[s])

    def bwd(g):
        gt = g.transpose(1, 0, 2)
        tc = np.tanh(cs)
        f, i, cand, o = np.split(acts, 4, axis=-1)
        first = np.zeros((1, n, c))
        prev_c = np.concatenate([first, cs[:-1]])
        # dz[s] = [dc, dc, dc, dh] * local[s], gate by gate
        local = np.stack([prev_c * f * (1.0 - f), cand * i * (1.0 - i),
                          i * (1.0 - cand * cand), tc * o * (1.0 - o)], axis=2)
        dtc = o * (1.0 - tc * tc)
        dz = np.empty((t, n, 4, c))
        dh_next = dc_next = np.zeros((n, c))
        for s in range(t - 1, -1, -1):
            dh = gt[s] + dh_next
            dc = dh * dtc[s]
            dc += dc_next
            np.multiply(dc[:, None], local[s, :, :3], out=dz[s, :, :3])
            np.multiply(dh, local[s, :, 3], out=dz[s, :, 3])
            dc_next = dc * f[s]
            dh_next = dz[s].reshape(n, 4 * c) @ wh
        dz = dz.reshape(t * n, 4 * c)
        inputs = np.concatenate([np.concatenate([first, hs[:-1]]), xs], axis=-1)
        dw = np.split(dz.T @ inputs.reshape(t * n, c + cin), 4)
        db = np.split(dz.sum(axis=0), 4)
        dseq = (dz @ wx).reshape(t, n, cin).transpose(1, 0, 2)
        return [(seq, dseq)] + list(zip(weights, dw)) + list(zip(biases, db))

    return _result(hs.transpose(1, 0, 2), (seq, *weights, *biases), bwd)


# ---------------------------------------------------------------------------
# volume ops: (N, C, T, H, W) activations
# ---------------------------------------------------------------------------


def _pad(a, pads, fill=0.0, channels_last=False):
    """An (N, C, T, H, W) array grown by `fill` on both sides of T, H and W by
    `pads`, in one allocation; a negative pad crops instead. `channels_last`
    allocates (N, T, H, W, C), even for no pad, and returns its NCTHW view."""
    crop = [max(-p, 0) for p in pads]
    a = a[_tap(crop, [e - 2 * c for e, c in zip(a.shape[2:], crop)], (1, 1, 1))]
    pads = [max(p, 0) for p in pads]
    if not any(pads) and not channels_last:
        return a
    shape = a.shape[:2] + tuple(e + 2 * p for e, p in zip(a.shape[2:], pads))
    if channels_last:
        out = np.full(shape[:1] + shape[2:] + shape[1:2], fill).transpose(0, 4, 1, 2, 3)
    else:
        out = np.full(shape, fill)
    out[_tap(pads, a.shape[2:], (1, 1, 1))] = a
    return out


def _windows(op, x, kernel, stride, padding, fill=0.0, channels_last=False):
    """The input padded with `fill` along T, H and W, and the output extents
    floor((ext + 2p - k) / s) + 1 of a sliding-window op."""
    extents = []
    for ext, k, s, p, name in zip(x.data.shape[2:], kernel, stride, padding,
                                  ("frames", "height", "width")):
        out = (ext + 2 * p - k) // s + 1
        if out <= 0:
            raise ShapeError(
                f"{op}: non-positive output extent along {name} "
                f"(input {ext}, kernel {k}, stride {s}, padding {p})"
            )
        extents.append(out)
    return _pad(x.data, padding, fill, channels_last), tuple(extents)


def _tap(offset, extents, stride):
    """Index of the (N, C, T, H, W) elements that the kernel offset meets at
    each output position. At offset=padding, extents=input extents and unit
    stride it is the unpadded input inside the padded one."""
    return (slice(None), slice(None)) + tuple(
        slice(o, o + e * s, s) for o, e, s in zip(offset, extents, stride)
    )


def _channels_last(w):
    """Whether w correlates an (N, T, H, W, C) input, where a row of kW taps is one
    run of kW*C_in values: for kW, C_in > 1 (one tap or channel measured slower)."""
    return w.shape[1] > 1 and w.shape[4] > 1


def _rows(xp, w, ext, stride):
    """((t, h), matrix) for each (kT, kH) row of w's taps over the padded xp,
    all in one reused buffer: channels-last, an (N*oT*oH*oW, kW*C_in) copy of
    one strided window per output position; otherwise (N, kW*C_in, oT*oH*oW),
    the row's kW taps copied one by one, or a one-tap row read as it is."""
    n, cin = xp.shape[:2]
    kt, kh, kw = w.shape[2:]
    if _channels_last(w):
        xl = np.ascontiguousarray(xp.transpose(0, 2, 3, 4, 1))  # no copy when padded so
        buf = np.empty((n,) + ext + (kw * cin,))
        steps = tuple(d * s for d, s in zip(xl.strides, (1, *stride, 1)))
        for t, h in itertools.product(range(kt), range(kh)):
            buf[...] = np.lib.stride_tricks.as_strided(xl[:, t, h], buf.shape, steps)
            yield (t, h), buf.reshape(-1, kw * cin)
        return
    buf = np.empty((n, kw, cin) + ext) if kw > 1 else None
    for t, h in itertools.product(range(kt), range(kh)):
        if buf is not None:
            for k in range(kw):
                buf[:, k] = xp[_tap((t, h, k), ext, stride)]
        row = xp[_tap((t, h, 0), ext, stride)] if buf is None else buf
        yield (t, h), row.reshape(n, kw * cin, -1)


def _correlate(xp, w, ext, stride):
    """The (N, C_out) + ext correlation of a padded xp with w: one BLAS matmul
    per row of `_rows`, not k^3 products (of contraction 1 on a 1-channel input)
    nor a k^3-copy im2col matrix. Channels-last, the (N*M, C_out) sum is transposed
    back once; both layouts sum the same terms in the same order, to the same bits."""
    n = xp.shape[0]
    cout, cin, kt, kh, kw = w.shape
    last = _channels_last(w)
    order = (2, 3, 4, 1, 0) if last else (2, 3, 0, 4, 1)  # tap-major rows
    wrow = w.transpose(order).reshape((kt, kh) + ((kw * cin, cout) if last else (cout, -1)))
    out = None
    for th, row in _rows(xp, w, ext, stride):
        part = row @ wrow[th] if last else wrow[th] @ row
        if out is None:
            out = part
        else:
            out += part
        del row, part  # each product goes once summed, the row buffer with the loop
    if last:
        return np.ascontiguousarray(out.reshape((n,) + ext + (cout,)).transpose(0, 4, 1, 2, 3))
    return out.reshape((n, cout) + ext)


def _weight_grad(xp, w, g, stride):
    """dw of the correlation of xp with w, given its output gradient g: one
    (kW*C_in, C_out) product per row of `_rows` (the whole batch contracted at
    once channels-last, else per clip, then summed), so not per offset's bits."""
    cout, cin, _, _, kw = w.shape
    last = _channels_last(w)
    gm = g.transpose(0, 2, 3, 4, 1).reshape(-1, cout) if last else g.reshape(
        len(g), cout, -1).transpose(0, 2, 1)
    dw = np.empty_like(w)
    for (t, h), row in _rows(xp, w, g.shape[2:], stride):
        part = row.T @ gm if last else (row @ gm).sum(axis=0)
        dw[:, :, t, h] = part.reshape(kw, cin, cout).transpose(2, 1, 0)
    return dw


def conv3d(x: Tensor, w: Tensor, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """Bias-free 3D convolution with zero padding.

    x: (N, C_in, T, H, W); w: (C_out, C_in, kT, kH, kW).
    """
    if x.data.ndim != 5:
        raise ShapeError(f"conv3d: input must be rank 5, got shape {x.data.shape}")
    if w.data.ndim != 5:
        raise ShapeError(f"conv3d: weights must be rank 5, got shape {w.data.shape}")
    n, cin = x.data.shape[:2]
    cout, wcin = w.data.shape[:2]
    if wcin != cin:
        raise ShapeError(f"conv3d: input channels {cin} vs kernel in-channels {wcin}")
    xp, ext = _windows("conv3d", x, w.data.shape[2:], stride, padding,
                       channels_last=_channels_last(w.data))
    out = _correlate(xp, w.data, ext, stride)

    def bwd(g):
        # dw first: its row buffer is freed before dx's correlation allocates one
        grads = [(w, _weight_grad(xp, w.data, g, stride))]
        if not x.needs_grad:  # no dx for an input such as the raw clip
            return grads
        if any(s != 1 for s in stride):
            # a strided conv's dx is one matmul per kernel offset, scattered
            g2, wk = g.reshape(n, cout, -1), w.data.transpose(2, 3, 4, 0, 1)
            dxp = np.zeros(xp.shape)
            for off in itertools.product(*map(range, w.data.shape[2:])):
                dxp[_tap(off, ext, stride)] += (wk[off].T @ g2).reshape((n, cin) + ext)
            return grads + [(x, dxp[_tap(padding, x.data.shape[2:], (1, 1, 1))])]
        # a stride-1 dx correlates g, padded by k-1-p (cropped where that is
        # negative), with the flipped kernel, C_in and C_out swapped
        wflip = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        gp = _pad(g, [k - 1 - p for k, p in zip(w.data.shape[2:], padding)],
                  channels_last=_channels_last(wflip))
        return grads + [(x, _correlate(gp, wflip, x.data.shape[2:], (1, 1, 1)))]

    return _result(out, (x, w), bwd)


def max_pool3d(x: Tensor, kernel, stride, padding=(0, 0, 0)) -> Tensor:
    """Max pooling over (T, H, W); padding uses -inf so it never wins."""
    if x.data.ndim != 5:
        raise ShapeError(f"max_pool3d: input must be rank 5, got {x.data.shape}")
    xp, ext = _windows("max_pool3d", x, kernel, stride, padding, fill=-np.inf)
    out = np.full(x.data.shape[:2] + ext, -np.inf)
    argoff = np.zeros(out.shape, dtype=np.int64)
    offsets = list(itertools.product(*map(range, kernel)))
    for idx, off in enumerate(offsets):
        xs = xp[_tap(off, ext, stride)]
        better = xs > out  # strict: ties resolve to the earliest offset
        out[better] = xs[better]
        argoff[better] = idx

    def bwd(g):
        dxp = np.zeros_like(xp)
        for idx, off in enumerate(offsets):
            dxp[_tap(off, ext, stride)] += g * (argoff == idx)
        return [(x, dxp[_tap(padding, x.data.shape[2:], (1, 1, 1))])]

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


def fuse_embedding(vol: Tensor, emb: Tensor, multiplicative: bool, clips) -> Tensor:
    """Fuse emb[n,t,c], broadcast over the spatial plane, into vol[n,c,t,h,w]:
    vol * emb when multiplicative, vol + emb otherwise. Only the clips of the
    constant (N,) bool mask `clips` are fused; the other rows are vol's, bit
    for bit, and send no gradient to emb."""
    n, c, t, h, w = vol.data.shape
    if emb.data.shape != (n, t, c):
        raise ShapeError(
            f"fuse_embedding: embedding shape {emb.data.shape}, expected ({n}, {t}, {c})"
        )
    vd = vol.data
    clips = np.asarray(clips, dtype=bool)
    if clips.shape != (n,):
        raise ShapeError(f"fuse_embedding: mask shape {clips.shape}, expected ({n},)")
    # a passed clip meets the op's identity: 1.0, or -0.0, which keeps a -0.0
    emap = np.where(clips[:, None, None, None, None], emb.data.transpose(0, 2, 1)[..., None, None],
                    1.0 if multiplicative else -0.0)

    def bwd(g):
        if multiplicative:
            gemb = np.einsum("ncthw,ncthw->nct", g, vd).transpose(0, 2, 1)
        else:
            gemb = g.sum(axis=(3, 4)).transpose(0, 2, 1)
        gemb[~clips] = 0.0
        return [(vol, g * emap if multiplicative else g), (emb, gemb)]

    return _result(vd * emap if multiplicative else vd + emap, (vol, emb), bwd)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    *,
    relu: bool = False,
) -> Tensor:
    """Per-channel batch normalization over (N, T, H, W) of a rank-5 volume.

    Training mode normalizes with batch statistics (biased variance) and
    updates the running buffers in place with momentum 0.1; eval mode uses the
    running buffers. Variances are offset by `BN_EPS`.
    `relu` fuses the following relu into this node (InPlace-ABN, Rota Bulo et
    al. 2018). The norm consumes x.data: it is centred in place, so pass an
    input that nothing else reads.
    """
    if x.data.ndim != 5:
        raise ShapeError(f"batch_norm: input must be rank 5, got {x.data.shape}")
    n, c = x.data.shape[:2]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"batch_norm: affine params must have shape ({c},)")
    # channel rows: every reduction is over axes (0, 2) of an (N, C, T*H*W) view
    rows = x.data.reshape(n, c, -1)
    m = x.data.size // c
    mean = rows.sum(axis=(0, 2)) / m if training else running_mean
    # centred over x's buffer and normalized in place below; the backward never reads x
    xhat = np.subtract(rows, mean[:, None], out=rows)
    if training:
        var = np.einsum("ncm,ncm->c", xhat, xhat) / m
        running_mean *= 0.9
        running_mean += 0.1 * mean
        running_var *= 0.9
        running_var += 0.1 * var
    else:
        var = running_var
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= invstd[:, None]
    # only the backward reads xhat, so without a tape node it holds the output
    out = np.multiply(xhat, gamma.data[:, None], out=None if _records((x, gamma, beta)) else xhat)
    out += beta.data[:, None]
    if relu:
        np.maximum(out, 0.0, out=out)

    def bwd(g):
        g3 = g.reshape(n, c, -1)
        if relu:  # multiply, as add_relu's backward does, so zeros keep their sign
            g3 = g3 * (out > 0.0)
        dbeta = g3.sum(axis=(0, 2))
        dgamma = np.einsum("ncm,ncm->c", g3, xhat)
        scale = (gamma.data * invstd)[:, None]
        if training:  # scale * (g - mean(g) - xhat * mean(g * xhat)), in one array
            dx = xhat * (-dgamma / m)[:, None]
            dx += g3
            dx -= (dbeta / m)[:, None]
            dx *= scale
        else:
            dx = g3 * scale
        return [(x, dx.reshape(x.data.shape)), (gamma, dgamma), (beta, dbeta)]

    return _result(out.reshape(x.data.shape), (x, gamma, beta), bwd)


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
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    logp = shifted[np.arange(n), labels] - np.log(z[:, 0])
    loss = -logp.mean()
    probs = e / z

    def bwd(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return [(logits, d * (float(g) / n))]

    return _result(np.asarray(loss, dtype=np.float64), (logits,), bwd)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(f, params) -> float:
    """Max relative error between analytic and central-difference gradients.

    f() must rebuild its graph and return a Tensor of any shape; params are
    the leaf tensors to perturb. Both sides differentiate the scalar
    <f(), r> for one fixed cotangent r drawn from default_rng(0) in f()'s
    shape: analytically as backward(f(), r), numerically by central
    differences of np.vdot(f().data, r) with step 1e-5. Error per component is
    |analytic - numeric| / max(1, |analytic|), and inf where that is NaN,
    which would pass every tolerance test.
    Non-determinism of f is detected by a re-evaluation mismatch before any
    perturbation; NaNs in the same places match.
    """
    eps = 1e-5
    params = list(params)
    base = f()
    if not np.array_equal(base.data, f().data, equal_nan=True):
        raise NondeterministicError("graph builder is not deterministic under re-evaluation")
    r = np.random.default_rng(0).standard_normal(base.data.shape)
    for p in params:
        p.zero_grad()
    backward(f(), r)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = np.vdot(f().data, r)
            flat[i] = orig - eps
            lo = np.vdot(f().data, r)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
        a = ana.reshape(-1)
        err = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
        worst = max(worst, float(np.where(np.isnan(err), np.inf, err).max(initial=0.0)))
    for p in params:
        p.zero_grad()
    return worst
