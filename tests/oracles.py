"""Independent brute-force oracles shared by the test suite.

Everything here is deliberately naive (python loops, math module scalars)
and must stay decoupled from the library's vectorized implementations.
"""

import itertools
import math

import numpy as np


def conv3d_oracle(x, w, stride, padding):
    n, cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    ot = (t + 2 * pt - kt) // st + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, cin, t + 2 * pt, h + 2 * ph, wd + 2 * pw))
    xp[:, :, pt : pt + t, ph : ph + h, pw : pw + wd] = x
    out = np.zeros((n, cout, ot, oh, ow))
    for ni in range(n):
        for oc in range(cout):
            for zt in range(ot):
                for zy in range(oh):
                    for zx in range(ow):
                        acc = 0.0
                        for ic in range(cin):
                            for dt in range(kt):
                                for dy in range(kh):
                                    for dx in range(kw):
                                        acc += (
                                            xp[ni, ic, zt * st + dt, zy * sh + dy, zx * sw + dx]
                                            * w[oc, ic, dt, dy, dx]
                                        )
                        out[ni, oc, zt, zy, zx] = acc
    return out


def conv3d_grad_oracle(x, w, g, stride, padding):
    """(dx, dw) of sum(conv3d(x, w) * g), one multiply-add at a time."""
    n, cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    _, _, ot, oh, ow = g.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.zeros((n, cin, t + 2 * pt, h + 2 * ph, wd + 2 * pw))
    xp[:, :, pt : pt + t, ph : ph + h, pw : pw + wd] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ni in range(n):
        for oc in range(cout):
            for zt in range(ot):
                for zy in range(oh):
                    for zx in range(ow):
                        gv = g[ni, oc, zt, zy, zx]
                        for ic in range(cin):
                            for dt in range(kt):
                                for dy in range(kh):
                                    for dx in range(kw):
                                        at = (ni, ic, zt * st + dt, zy * sh + dy, zx * sw + dx)
                                        dxp[at] += gv * w[oc, ic, dt, dy, dx]
                                        dw[oc, ic, dt, dy, dx] += gv * xp[at]
    return dxp[:, :, pt : pt + t, ph : ph + h, pw : pw + wd], dw


def pool_oracle(x):
    n, c, t, h, w = x.shape
    out = np.zeros((n, t, c))
    for ni in range(n):
        for ti in range(t):
            for ci in range(c):
                acc = 0.0
                for y in range(h):
                    for z in range(w):
                        acc += x[ni, ci, ti, y, z]
                out[ni, ti, ci] = acc / (h * w)
    return out


def relu_oracle(x):
    """max(x, 0) elementwise."""
    return np.maximum(x, 0.0)


def relu_grad_oracle(x, g):
    """What relu at x passes back of an incoming g: g * (x > 0), so a zero
    keeps the sign of g * 0."""
    return g * (x > 0.0)


def batch_norm_oracle(x, gamma, beta, running_mean, running_var, training,
                      momentum=0.1, eps=1e-5):
    """Per-channel loops over (N, T, H, W): (out, new running mean, new
    running var). Training uses the biased batch variance and moves the
    buffers by `momentum`; eval normalizes with the buffers unchanged."""
    n, c, t, h, w = x.shape
    sites = list(itertools.product(range(n), range(t), range(h), range(w)))
    out = np.zeros(x.shape)
    new_mean, new_var = list(running_mean), list(running_var)
    for ci in range(c):
        vals = [x[ni, ci, ti, yi, zi] for ni, ti, yi, zi in sites]
        if training:
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / len(vals)
            new_mean[ci] = (1.0 - momentum) * running_mean[ci] + momentum * mean
            new_var[ci] = (1.0 - momentum) * running_var[ci] + momentum * var
        else:
            mean, var = running_mean[ci], running_var[ci]
        for (ni, ti, yi, zi), v in zip(sites, vals):
            out[ni, ci, ti, yi, zi] = gamma[ci] * (v - mean) / math.sqrt(var + eps) + beta[ci]
    return out, np.array(new_mean), np.array(new_var)


def lstm_oracle(xs, weights, biases, c0=None, h0=None):
    """Scalar-loop single-layer recurrence over a list of input vectors."""
    wf, wi, wc, wa = weights["f"], weights["i"], weights["c"], weights["a"]
    bf, bi, bc, ba = biases["f"], biases["i"], biases["c"], biases["a"]
    n_out = len(wf)
    h = list(h0) if h0 is not None else [0.0] * n_out
    c = list(c0) if c0 is not None else [0.0] * n_out
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    outs = []
    for x in xs:
        z = list(h) + list(x)
        f, i, cand, o = [], [], [], []
        for row in range(n_out):
            af, ai, ac, ao = bf[row], bi[row], bc[row], ba[row]
            for col, zv in enumerate(z):
                af += wf[row][col] * zv
                ai += wi[row][col] * zv
                ac += wc[row][col] * zv
                ao += wa[row][col] * zv
            f.append(sig(af))
            i.append(sig(ai))
            cand.append(math.tanh(ac))
            o.append(sig(ao))
        c = [f[r] * c[r] + i[r] * cand[r] for r in range(n_out)]
        h = [o[r] * math.tanh(c[r]) for r in range(n_out)]
        outs.append(list(h))
    return outs


def cycle_oracle(a, b):
    """Double-loop soft-match + argmin consistency check on nested lists."""
    t_len, c_len = len(a), len(a[0])

    def match(q, ref):
        d2s = []
        for frame in ref:
            d2s.append(sum((q[k] - frame[k]) ** 2 for k in range(c_len)))
        m = max(-d for d in d2s)
        exps = [math.exp(-d - m) for d in d2s]
        tot = sum(exps)
        soft = [
            sum(exps[i] / tot * ref[i][k] for i in range(len(ref)))
            for k in range(c_len)
        ]
        best, best_d = 0, None
        for i, frame in enumerate(ref):
            d = sum((soft[k] - frame[k]) ** 2 for k in range(c_len))
            if best_d is None or d < best_d:
                best, best_d = i, d
        return best

    fwd = [match(a[t], b) for t in range(t_len)]
    bwd = [match(b[t], a) for t in range(t_len)]
    open_ = all(i == t for t, i in enumerate(fwd)) and all(i == t for t, i in enumerate(bwd))
    return open_, fwd, bwd


def separated_embedding(rng, t_len, c_len, min_dist=2.0, scale=4.0):
    """Random frames with pairwise L2 distance at least min_dist."""
    while True:
        e = rng.standard_normal((t_len, c_len)) * scale
        d = np.linalg.norm(e[:, None, :] - e[None, :, :], axis=2)
        d[np.diag_indices(t_len)] = np.inf
        if d.min() > min_dist:
            return e


# ---------------------------------------------------------------------------
# synthetic clips and training frame samples, one frame or clip at a time
# ---------------------------------------------------------------------------

_DIRECTIONS = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)]


def _blob_oracle(height, width, cy, cx, sigma):
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    return np.exp(-(((ys - cy) ** 2) + ((xs - cx) ** 2)) / (2.0 * sigma * sigma))


def _translate_clip_oracle(spec, rng, velocity):
    cy = float(rng.uniform(2, spec.height - 2))
    cx = float(rng.uniform(2, spec.width - 2))
    amp = float(rng.uniform(0.8, 1.2))
    base = amp * _blob_oracle(spec.height, spec.width, cy, cx,
                              sigma=max(spec.height, spec.width) / 10)
    vy, vx = velocity
    clip = np.zeros((spec.channels, spec.frames, spec.height, spec.width))
    for t in range(spec.frames):
        clip[:, t] = np.roll(base, (t * vy, t * vx), axis=(0, 1))
    if spec.noise > 0:
        clip += spec.noise * rng.standard_normal(clip.shape)
    return clip


def _oscillate_clip_oracle(spec, rng, phase):
    cy = float(rng.uniform(2, spec.height - 2))
    cx = float(rng.uniform(2, spec.width - 2))
    base = _blob_oracle(spec.height, spec.width, cy, cx, sigma=max(spec.height, spec.width) / 10)
    clip = np.zeros((spec.channels, spec.frames, spec.height, spec.width))
    for t in range(spec.frames):
        gain = 0.75 + 0.25 * np.sin(2.0 * np.pi * t / spec.frames + phase)
        clip[:, t] = gain * base
    if spec.noise > 0:
        clip += spec.noise * rng.standard_normal(clip.shape)
    return clip


def clip_oracle(spec, label, rng):
    """One clip of the spec's family, built frame by frame from `rng`."""
    if spec.family == "translate":
        vy, vx = _DIRECTIONS[label % len(_DIRECTIONS)]
        speed = 1 + label // len(_DIRECTIONS)
        return _translate_clip_oracle(spec, rng, (vy * speed, vx * speed))
    if spec.family == "oscillate":
        return _oscillate_clip_oracle(spec, rng, 2.0 * np.pi * label / spec.num_classes)
    speed = int(rng.integers(1, 3))
    clip = _translate_clip_oracle(spec, rng, (0, speed))
    return clip[:, ::-1].copy() if label == 1 else clip


def split_oracle(spec, split_id, count):
    """(clips, labels) of one split, clip by clip from (seed, split, clip)."""
    clips, labels = [], []
    for idx in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, split_id, idx]))
        clips.append(clip_oracle(spec, idx % spec.num_classes, rng))
        labels.append(idx % spec.num_classes)
    return np.stack(clips), np.array(labels, dtype=np.int64)


def frame_sample_oracle(clip, seed, epoch, clip_idx, frames_per_clip):
    """The training frame sample of one (C, T, H, W) clip: sorted frame
    indices drawn without replacement from its (seed, 3, epoch, clip)
    generator, or the whole clip when it is no longer than frames_per_clip."""
    t = clip.shape[1]
    if t <= frames_per_clip:
        return clip
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, epoch, clip_idx]))
    return clip[:, np.sort(rng.choice(t, size=frames_per_clip, replace=False))]
