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
    "lstm",
    "conv3d",
    "batch_norm",
    "pointwise_conv_norm",
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


def _result(data, parents, bwd):
    """Wrap an op output, recording the closure only when gradients can flow."""
    out = Tensor(data)
    if _grad_enabled and any(p.needs_grad for p in parents):
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


def _sigmoid(x, out=None):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


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


def lstm(seq: Tensor, layers) -> Tensor:
    """A stack of LSTM layers over a (N, T, C_in) sequence -> (N, T, C), the last
    layer's hidden states.

    Each layer is its forget, input, candidate and output gates' (C, C + C_in)
    maps of [h_(t-1), x_t], then their (C,) biases; layer l >= 1 reads layer
    l-1's hidden states, so its C_in is C. From zero state, c_t = f*c_(t-1) +
    i*cand and h_t = o*tanh(c_t), with sigmoid f, i, o and a tanh candidate.
    The layers run as a wavefront (Appleyard, Kocisky & Blunsom 2016): wave
    step s runs layer l at time s - l, so L layers take T + L - 1 steps of one
    stacked recurrent product and one set of elementwise calls each. Layer 0's
    input half is one matmul over the whole sequence (cuDNN's hoisted
    projection); layer l >= 1 projects layer l-1's fresh output inside the
    step, in the same sum order. One tape node: its BPTT backward walks the
    waves in reverse, collecting dz for every layer, gate and step, then each
    layer's dW and db are one matmul or sum.
    """
    if seq.data.ndim != 3:
        raise ShapeError(f"lstm: input must be (N, T, C), got {seq.data.shape}")
    n, t, cin = seq.data.shape
    nl, c = len(layers), layers[0][0].data.shape[0]
    for li, layer in enumerate(layers):
        width = c if li else cin
        for w, b in zip(layer[:4], layer[4:]):
            if w.data.shape != (c, c + width) or b.data.shape != (c,):
                raise ShapeError(f"lstm: layer {li} gate weights {w.data.shape} and bias "
                                 f"{b.data.shape}, expected ({c}, {c + width}) and ({c},)")
    wcat = [np.concatenate([w.data for w in layer[:4]]) for layer in layers]  # f | i | cand | o
    whT = np.ascontiguousarray(np.stack([w[:, :c].T for w in wcat]))  # (L, C, 4C)
    wx = [w[:, c:] for w in wcat]
    wxs = np.array(wx[1:]).reshape(nl - 1, 4 * c, c)  # the input maps projected in the step
    bias = np.stack([np.broadcast_to(np.concatenate([b.data for b in layer[4:]]), (n, 4 * c))
                     for layer in layers])
    # wave-major: [s, l] is layer l at time s - l; hs and cs lead with the zero state
    waves = t + nl - 1
    xs = np.ascontiguousarray(seq.data.transpose(1, 0, 2))
    zx = np.empty((waves, nl, n, 4 * c))
    zx[:t, 0] = (xs.reshape(t * n, cin) @ wx[0].T).reshape(t, n, 4 * c)
    zx[:t, 0] += bias[0]
    acts = np.zeros((waves, nl, n, 4 * c))  # gate activations
    cs, hs = np.zeros((waves + 1, nl, n, c)), np.zeros((waves + 1, nl, n, c))
    # the layers lo..hi-1 run in wave s; up..hi-1 of them project their input in it
    sched = [(max(0, s - t + 1), min(nl, s + 1), max(1, s - t + 1)) for s in range(waves)]
    for s, (lo, hi, up) in enumerate(sched):
        np.matmul(hs[s, up - 1:hi - 1], wxs[up - 1:hi - 1].transpose(0, 2, 1), out=zx[s, up:hi])
        np.add(zx[s, up:hi], bias[up:hi], out=zx[s, up:hi])
        z = hs[s, lo:hi] @ whT[lo:hi]
        z += zx[s, lo:hi]
        a = _sigmoid(z, out=acts[s, lo:hi])
        np.tanh(z[..., 2 * c:3 * c], out=a[..., 2 * c:3 * c])
        cell = np.multiply(a[..., :c], cs[s, lo:hi], out=cs[s + 1, lo:hi])
        cell += a[..., c:2 * c] * a[..., 2 * c:3 * c]
        np.multiply(a[..., 3 * c:], np.tanh(cell), out=hs[s + 1, lo:hi])

    def bwd(g):
        gt = g.transpose(1, 0, 2)
        tc = np.tanh(cs[1:])
        f, i, cand, o = np.split(acts, 4, axis=-1)
        # dz[s] = [dc, dc, dc, dh] * local[s], gate by gate
        local = np.stack([cs[:-1] * f * (1.0 - f), cand * i * (1.0 - i),
                          i * (1.0 - cand * cand), tc * o * (1.0 - o)], axis=3)
        dtc = o * (1.0 - tc * tc)
        # per layer [W_h | W_x] (zero W_x for layer 0), so one product per wave
        # gives each layer's dh from its next step and the output gradient of
        # the layer below it: the rows of p; the row above the top carries g
        wb = np.zeros((nl, 4 * c, 2 * c))
        wb[:, :, :c] = whT.transpose(0, 2, 1)
        wb[1:, :, c:] = wxs
        p = np.zeros((nl + 1, n, 2 * c))
        dz = np.zeros((waves, nl, n, 4, c))
        dc_next = np.zeros((nl, n, c))
        for s in range(waves - 1, -1, -1):
            lo, hi, _ = sched[s]
            if hi == nl:
                p[nl, :, c:] = gt[s - nl + 1]
            dh = p[lo + 1:hi + 1, :, c:] + p[lo:hi, :, :c]
            dc = dh * dtc[s, lo:hi]
            dc += dc_next[lo:hi]
            np.multiply(dc[..., None, :], local[s, lo:hi, :, :3], out=dz[s, lo:hi, :, :3])
            np.multiply(dh, local[s, lo:hi, :, 3], out=dz[s, lo:hi, :, 3])
            np.multiply(dc, f[s, lo:hi], out=dc_next[lo:hi])
            np.matmul(dz[s, lo:hi].reshape(-1, n, 4 * c), wb[lo:hi], out=p[lo:hi])
        grads = []
        for li in range(nl):
            dzl = dz[li:li + t, li].reshape(t * n, 4 * c)
            x = xs if li == 0 else hs[li:li + t, li - 1]
            inputs = np.concatenate([hs[li:li + t, li], x], axis=-1)
            dw = np.split(dzl.T @ inputs.reshape(t * n, -1), 4)
            db = np.split(dzl.sum(axis=0), 4)
            grads += list(zip(layers[li][:4], dw)) + list(zip(layers[li][4:], db))
        dseq = (dz[:t, 0].reshape(t * n, 4 * c) @ wx[0]).reshape(t, n, cin).transpose(1, 0, 2)
        return [(seq, dseq)] + grads

    leaves = [p for layer in layers for p in layer]
    return _result(hs[nl:, -1].transpose(1, 0, 2), (seq, *leaves), bwd)


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
    """(taps, matrix) for each row of w's taps over the padded xp, taps indexing
    the row in w's (kT, kH) axes: channels-last, a (kT, kH) row of kW taps, an
    (N*oT*oH*oW, kW*C_in) copy of one strided window per output position, in one
    buffer reused from row to row; a one-channel input's one row, its whole
    kT*kH*kW patch, an (N, kT*kH*kW, oT*oH*oW) copy made tap by tap; otherwise a
    kW = 1 row, (N, C_in, oT*oH*oW), its one tap read as it is."""
    n, cin = xp.shape[:2]
    kt, kh, kw = w.shape[2:]
    if _channels_last(w):
        xl = np.ascontiguousarray(xp.transpose(0, 2, 3, 4, 1))  # no copy when padded so
        buf = np.empty((n,) + ext + (kw * cin,))
        steps = tuple(d * s for d, s in zip(xl.strides, (1, *stride, 1)))
        for t, h in itertools.product(range(kt), range(kh)):
            buf[...] = np.lib.stride_tricks.as_strided(xl[:, t, h], buf.shape, steps)
            yield (t, h), buf.reshape(-1, kw * cin)
    elif cin == 1:
        offsets = list(itertools.product(range(kt), range(kh), range(kw)))
        buf = np.empty((n, len(offsets)) + ext)
        for k, off in enumerate(offsets):
            buf[:, k] = xp[_tap(off, ext, stride)][:, 0]
        yield (slice(None), slice(None)), buf.reshape(n, len(offsets), -1)
    else:
        for t, h in itertools.product(range(kt), range(kh)):
            yield (t, h), xp[_tap((t, h, 0), ext, stride)].reshape(n, cin, -1)


def _correlate(xp, w, ext, stride):
    """The (N, C_out) + ext correlation of a padded xp with w: one BLAS matmul
    per row of `_rows`, not k^3 products (of contraction 1 on a 1-channel input,
    which is one product over its whole patch instead) nor a k^3-copy im2col
    matrix of a multi-channel input. Channels-last, the (N*M, C_out) sum is
    transposed back once; both layouts sum the same terms in the same order,
    to the same bits."""
    n = xp.shape[0]
    cout, cin, kt, kh, kw = w.shape
    last = _channels_last(w)
    order = (2, 3, 4, 1, 0) if last else (2, 3, 0, 4, 1)  # tap-major rows
    wrow = w.reshape(cout, -1) if cin == 1 else w.transpose(order).reshape(  # one patch row
        (kt, kh) + ((kw * cin, cout) if last else (cout, -1)))
    out = None
    for taps, row in _rows(xp, w, ext, stride):
        part = row @ wrow[taps] if last else wrow[taps] @ row
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
    (taps*C_in, C_out) product per row of `_rows` (the whole batch contracted at
    once channels-last, else per clip, then summed), so not per offset's bits."""
    cout, cin = w.shape[:2]
    last = _channels_last(w)
    gm = g.transpose(0, 2, 3, 4, 1).reshape(-1, cout) if last else g.reshape(
        len(g), cout, -1).transpose(0, 2, 1)
    dw = np.empty_like(w)
    for taps, row in _rows(xp, w, g.shape[2:], stride):
        part = row.T @ gm if last else (row @ gm).sum(axis=0)
        dst = dw[(slice(None), slice(None)) + taps]  # (C_out, C_in) + the row's tap axes
        dst[...] = np.moveaxis(part.reshape(dst.shape[2:] + (cin, cout)), (-1, -2), (0, 1))
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


def fuse_embedding(vol: Tensor, emb: Tensor, clips) -> Tensor:
    """Scale vol[n,c,t,h,w] by emb[n,t,c], broadcast over the spatial plane.
    Only the clips of the constant (N,) bool mask `clips` are scaled; the
    other rows are vol's, bit for bit, and send no gradient to emb."""
    n, c, t, h, w = vol.data.shape
    if emb.data.shape != (n, t, c):
        raise ShapeError(
            f"fuse_embedding: embedding shape {emb.data.shape}, expected ({n}, {t}, {c})"
        )
    vd = vol.data
    clips = np.asarray(clips, dtype=bool)
    if clips.shape != (n,):
        raise ShapeError(f"fuse_embedding: mask shape {clips.shape}, expected ({n},)")
    # a passed clip is scaled by 1.0, which keeps every bit, a -0.0's sign too
    emap = np.where(clips[:, None, None, None, None], emb.data.transpose(0, 2, 1)[..., None, None],
                    1.0)

    def bwd(g):
        gemb = np.einsum("ncthw,ncthw->nct", g, vd).transpose(0, 2, 1)
        gemb[~clips] = 0.0
        return [(vol, g * emap), (emb, gemb)]

    return _result(vd * emap, (vol, emb), bwd)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    relu: bool = False,
) -> Tensor:
    """Per-channel training batch norm over (N, T, H, W) of a rank-5 volume.

    It normalizes with batch statistics (biased variance, offset by `BN_EPS`)
    and updates the running buffers in place with momentum 0.1. Eval folds
    the norm into the conv instead (`blocks._Store._run_op`).
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
    mean = rows.sum(axis=(0, 2)) / m
    # centred over x's buffer and normalized in place below; the backward never reads x
    xhat = np.subtract(rows, mean[:, None], out=rows)
    var = np.einsum("ncm,ncm->c", xhat, xhat) / m
    running_mean *= 0.9
    running_mean += 0.1 * mean
    running_var *= 0.9
    running_var += 0.1 * var
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= invstd[:, None]
    out = xhat * gamma.data[:, None]
    out += beta.data[:, None]
    if relu:
        np.maximum(out, 0.0, out=out)

    def bwd(g):
        g3 = g.reshape(n, c, -1)
        if relu:  # multiply, as add_relu's backward does, so zeros keep their sign
            g3 = g3 * (out > 0.0)
        dbeta = g3.sum(axis=(0, 2))
        dgamma = np.einsum("ncm,ncm->c", g3, xhat)
        dx = xhat * (-dgamma / m)[:, None]  # gamma*invstd * (g - mean(g) - xhat*mean(g*xhat))
        dx += g3
        dx -= (dbeta / m)[:, None]
        dx *= (gamma.data * invstd)[:, None]
        return [(x, dx.reshape(x.data.shape)), (gamma, dgamma), (beta, dbeta)]

    return _result(out.reshape(x.data.shape), (x, gamma, beta), bwd)


def pointwise_conv_norm(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor,
                        running_mean: np.ndarray, running_var: np.ndarray, stride=(1, 1, 1),
                        *, relu: bool = False) -> Tensor:
    """batch_norm(conv3d(x, w, stride), gamma, beta, running_mean, running_var,
    relu=relu) for a 1x1x1 w, computed on the C_in side.

    The conv applies one (C_out, C_in) matrix W at every position, so with hc
    the centred strided input and S = sum(hc hc^T) / P its covariance over the
    P positions, the output's batch mean is W mu and its variance
    diag(W S W^T). For s = gamma / sqrt(var + eps) the output is one product
    (s*W) @ hc + beta: neither the conv output, nor the normalized one, nor
    the norm's input gradient is built at C_out width, and x is not written.
    The backward is the pair's, written with G = sum(g hc^T):
    dW = s*G - a*(W S)*P and dx = (s*W)^T g - (W^T diag(a) W) hc -
    W^T (s*dbeta) / P, for a = s * invstd * dgamma / P.
    """
    if x.data.ndim != 5:
        raise ShapeError(f"pointwise_conv_norm: input must be rank 5, got {x.data.shape}")
    n, cin = x.data.shape[:2]
    cout = w.data.shape[0]
    if w.data.shape != (cout, cin, 1, 1, 1) or {gamma.data.shape, beta.data.shape} != {(cout,)}:
        raise ShapeError(f"pointwise_conv_norm: weights {w.data.shape} and affine params "
                         f"{gamma.data.shape}, expected ({cout}, {cin}, 1, 1, 1) and ({cout},)")
    st, sh, sw = stride
    xs = x.data[:, :, ::st, ::sh, ::sw]
    mu = xs.sum(axis=(0, 2, 3, 4)) / (n * xs[0, 0].size)
    hc = np.subtract(xs, mu[:, None, None, None]).reshape(n, cin, -1)
    p = n * hc.shape[2]
    wm = w.data.reshape(cout, cin)
    wcov = wm @ ((hc @ hc.transpose(0, 2, 1)).sum(axis=0) / p)  # W S
    var = np.einsum("oc,oc->o", wcov, wm)
    running_mean *= 0.9
    running_mean += 0.1 * (wm @ mu)
    running_var *= 0.9
    running_var += 0.1 * var
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    s = gamma.data * invstd
    ws = wm * s[:, None]
    y = ws @ hc
    y += beta.data[:, None]
    if relu:
        np.maximum(y, 0.0, out=y)

    def bwd(g):
        g3 = g.reshape(n, cout, -1)
        if relu:
            g3 = g3 * (y > 0.0)
        dbeta = g3.sum(axis=(0, 2))
        gh = (g3 @ hc.transpose(0, 2, 1)).sum(axis=0)  # G
        dgamma = invstd * np.einsum("oc,oc->o", wm, gh)
        a = s * invstd * dgamma / p
        dw = s[:, None] * gh - a[:, None] * wcov * p
        grads = [(w, dw.reshape(w.data.shape)), (gamma, dgamma), (beta, dbeta)]
        if not x.needs_grad:
            return grads
        dh = ws.T @ g3
        dh -= (wm.T @ (a[:, None] * wm)) @ hc
        dh -= (wm.T @ (s * dbeta) / p)[:, None]
        if (st, sh, sw) == (1, 1, 1):
            return grads + [(x, dh.reshape(x.data.shape))]
        dx = np.zeros(x.data.shape)  # a strided input's gradient, scattered
        dx[:, :, ::st, ::sh, ::sw] = dh.reshape(xs.shape)
        return grads + [(x, dx)]

    return _result(y.reshape((n, cout) + xs.shape[2:]), (x, w, gamma, beta), bwd)


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
