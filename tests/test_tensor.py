"""Tensor engine tests: loop oracles first, then autodiff and invariants."""

import contextlib
import hashlib
import inspect
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srtg import tensor as tt
from srtg.blocks import Network
from srtg.checks import run_checks
from srtg.config import NetworkSpec, StageSpec
from srtg.tensor import (
    GraphError,
    NondeterministicError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
)

from oracles import (
    batch_norm_oracle,
    conv3d_grad_oracle,
    conv3d_oracle,
    pool_oracle,
    relu_grad_oracle,
    relu_oracle,
)

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import replay  # noqa: E402

# ---------------------------------------------------------------------------
# conv3d
# ---------------------------------------------------------------------------


def test_conv3d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 1, 3, 4, 4)))
    w = Tensor(np.ones((1, 1, 1, 1, 1)))
    out = tt.conv3d(x, w)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv3d_sum_of_ones():
    x = Tensor(np.ones((1, 1, 3, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3, 3)))
    out = tt.conv3d(x, w)
    assert out.data.shape == (1, 1, 1, 1, 1)
    assert out.data.flat[0] == 27.0


def test_conv3d_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 4, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    out = tt.conv3d(Tensor(x), Tensor(w), stride=(1, 1, 1), padding=(1, 1, 1))
    expect = conv3d_oracle(x, w, (1, 1, 1), (1, 1, 1))
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)


def test_conv3d_strided_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 5, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3, 3))
    out = tt.conv3d(Tensor(x), Tensor(w), stride=(2, 2, 2), padding=(1, 1, 1))
    expect = conv3d_oracle(x, w, (2, 2, 2), (1, 1, 1))
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)


# every kernel kind the networks use: full 3D (stem and blocks), 1x1x1
# projections and bottlenecks, and the (1,k,k) / (k,1,1) halves of a
# (2+1)D conv, each also on a 1-channel input like the stem's, and padding
# at or past the kernel's extent; the conv3d forward, and the input gradient
# of a stride-1 conv, run one matmul per (kT, kH) row of taps (the latter on
# the output gradient padded by k-1-p, or cropped where that is negative),
# while dw and a strided conv's dx run one per kernel offset, so each kind
# exercises a different tap and row layout
_KERNEL_KINDS = [
    # (x shape, w shape, stride, padding)
    ((2, 2, 4, 5, 5), (3, 2, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
    ((2, 2, 5, 5, 5), (3, 2, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
    ((2, 3, 3, 4, 4), (2, 3, 1, 1, 1), (1, 1, 1), (0, 0, 0)),
    ((2, 3, 4, 5, 5), (2, 3, 1, 1, 1), (2, 2, 2), (0, 0, 0)),
    ((2, 2, 3, 5, 5), (3, 2, 1, 3, 3), (1, 1, 1), (0, 1, 1)),
    ((2, 2, 3, 5, 5), (3, 2, 1, 3, 3), (1, 2, 2), (0, 1, 1)),
    ((2, 2, 5, 3, 3), (3, 2, 3, 1, 1), (1, 1, 1), (1, 0, 0)),
    ((2, 2, 5, 3, 3), (3, 2, 3, 1, 1), (2, 1, 1), (1, 0, 0)),
    ((2, 1, 4, 6, 6), (3, 1, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
    ((2, 1, 4, 5, 5), (3, 1, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
    ((2, 1, 3, 5, 5), (3, 1, 1, 3, 3), (1, 1, 1), (0, 1, 1)),
    ((2, 1, 5, 3, 3), (3, 1, 3, 1, 1), (1, 1, 1), (1, 0, 0)),
    ((2, 3, 3, 4, 4), (2, 3, 1, 1, 1), (1, 1, 1), (1, 1, 1)),
    ((2, 2, 5, 3, 3), (3, 2, 3, 1, 1), (1, 1, 1), (3, 0, 0)),
]
_KIND_IDS = ["3x3x3-s122", "3x3x3-s222", "1x1x1-s111", "1x1x1-s222", "1x3x3-s111",
             "1x3x3-s122", "3x1x1-s111", "3x1x1-s211", "cin1-3x3x3-s122",
             "cin1-3x3x3-s111", "cin1-1x3x3-s111", "cin1-3x1x1-s111", "1x1x1-s111-p111",
             "3x1x1-s111-p300"]


@pytest.mark.parametrize("xs, ws, stride, padding", _KERNEL_KINDS, ids=_KIND_IDS)
def test_conv3d_kernel_kinds_match_loop_oracles(xs, ws, stride, padding):
    rng = np.random.default_rng(20)
    x = rng.standard_normal(xs)
    w = rng.standard_normal(ws)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = tt.conv3d(xt, wt, stride=stride, padding=padding)
    np.testing.assert_allclose(out.data, conv3d_oracle(x, w, stride, padding),
                               rtol=0, atol=1e-12)
    g = rng.standard_normal(out.data.shape)
    backward(out, g)
    dx, dw = conv3d_grad_oracle(x, w, g, stride, padding)
    np.testing.assert_allclose(xt.grad, dx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wt.grad, dw, rtol=0, atol=1e-12)


def test_conv3d_forward_gathers_one_row_of_taps():
    # the forward copies one (kT, kH) row of kW taps at a time into a buffer
    # it reuses; a full im2col matrix would hold all 27 taps at once
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((8, 8, 8, 8, 8)))
    w = Tensor(rng.standard_normal((8, 8, 3, 3, 3)))
    padded = x.data.nbytes * 10 ** 3 // 8 ** 3
    output = x.data.nbytes  # padding 1 keeps the input's extents
    row = 3 * x.data.nbytes
    tracemalloc.start()
    try:
        tt.conv3d(x, w, padding=(1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the second output is the matmul's temporary before it is summed in
    assert peak < padded + 2 * output + 2 * row, peak


def test_conv3d_backward_gathers_one_row_of_taps():
    # a stride-1 dx is the forward's row correlation of the padded output
    # gradient with the flipped kernel: it holds the padded gradient, one row
    # buffer, dx and the matmul's temporary, never all 27 taps at once
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((8, 8, 8, 8, 8)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 8, 3, 3, 3)), requires_grad=True)
    out = tt.conv3d(x, w, padding=(1, 1, 1))
    g = rng.standard_normal(out.data.shape)
    padded = g.nbytes * 10 ** 3 // 8 ** 3  # padding k-1-p = 1 keeps the extents
    row = 3 * g.nbytes
    tracemalloc.start()
    try:
        grads = {id(t): grad for t, grad in out._bwd(g)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads[id(x)].shape == x.data.shape
    # dx and the matmul's temporary; dw, the flipped kernel's row-major copy
    # and small scratch stay under four kernels
    assert peak < padded + row + 2 * x.data.nbytes + 4 * w.data.nbytes, peak


_RERUN_SCRIPT = """
import hashlib, numpy as np
from srtg import tensor as tt
rng = np.random.default_rng(21)
xd, g = rng.standard_normal((8, 32, 32, 8, 8)), rng.standard_normal((8, 32, 32, 8, 8))
w1, w3 = rng.standard_normal((32, 32, 1, 1, 1)), rng.standard_normal((32, 32, 3, 3, 3))
gamma, beta = rng.standard_normal(32), rng.standard_normal(32)
g2 = rng.standard_normal((8, 32, 16, 4, 4))

def run(op, *leaves, g=g):
    leaves = [tt.Tensor(a, requires_grad=True) for a in leaves]
    out = op(*leaves)
    tt.backward(out, g)
    blob = out.data.tobytes() + b"".join(t.grad.tobytes() for t in leaves)
    return hashlib.sha256(blob).hexdigest()

def run_eval():
    with tt.no_grad():
        out = tt.batch_norm(tt.Tensor(xd.copy()), tt.Tensor(gamma), tt.Tensor(beta), *stats,
                            training=False, relu=True)
    return hashlib.sha256(out.data.tobytes()).hexdigest()

for _ in range(3):
    stats = np.zeros(32), np.ones(32)
    print(run(lambda x, w: tt.conv3d(x, w), xd, w1),
          run(lambda x, w: tt.conv3d(x, w, padding=(1, 1, 1)), xd, w3),
          run(lambda x, w: tt.conv3d(x, w, (2, 2, 2), (1, 1, 1)), xd, w3, g=g2),
          run(lambda x, ga, be: tt.batch_norm(x, ga, be, *stats, training=True),
              xd.copy(), gamma, beta),
          run(lambda x, ga, be: tt.batch_norm(x, ga, be, *stats, training=True, relu=True),
              xd.copy(), gamma, beta),
          hashlib.sha256(stats[0].tobytes() + stats[1].tobytes()).hexdigest(),
          run_eval())
"""


def test_conv3d_bit_identical_across_runs_with_unpinned_blas():
    # BLAS thread counts come from the environment; drop any pinning so the
    # library's default threading is what runs. Each repeat hashes a 1x1x1
    # conv, a padded 3x3x3 conv at stride 1 and at stride 2 (the two input
    # gradient paths), a training-mode batch_norm and its fused
    # relu form, forward and backward, and the batch_norm running buffers,
    # then an eval-mode fused batch_norm without a tape. batch_norm consumes
    # its input, so each gets a copy of xd.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(tt.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    lines = []
    for _ in range(2):
        run = subprocess.run([sys.executable, "-c", _RERUN_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        lines += run.stdout.splitlines()
    assert len(lines) == 6
    assert len(set(lines)) == 1


def test_conv3d_linearity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 4, 4, 4))
    w = Tensor(rng.standard_normal((2, 2, 3, 3, 3)))
    a = tt.conv3d(Tensor(3.5 * x), w, padding=(1, 1, 1))
    b = tt.conv3d(Tensor(x), w, padding=(1, 1, 1))
    np.testing.assert_allclose(a.data, 3.5 * b.data, rtol=0, atol=1e-12)


def test_conv3d_channel_mismatch_names_dimension():
    x = Tensor(np.zeros((1, 2, 3, 3, 3)))
    w = Tensor(np.zeros((1, 3, 3, 3, 3)))
    with pytest.raises(ShapeError, match="channels"):
        tt.conv3d(x, w)


def test_conv3d_nonpositive_extent():
    x = Tensor(np.zeros((1, 1, 2, 8, 8)))
    w = Tensor(np.zeros((1, 1, 3, 3, 3)))
    with pytest.raises(ShapeError, match="frames"):
        tt.conv3d(x, w)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("training, relu", [(True, False), (False, False), (True, True),
                                             (False, True)],
                         ids=["True", "False", "True-relu", "False-relu"])
def test_batch_norm_matches_loop_oracle(training, relu):
    # N=3, C=4 and unequal T, H, W: a view that mixes clips and channels fails
    rng = np.random.default_rng(17)
    xd = rng.standard_normal((3, 4, 2, 3, 5)) * 1.5 + rng.standard_normal((1, 4, 1, 1, 1))
    gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
    running_mean, running_var = rng.standard_normal(4), rng.random(4) + 0.5
    want, want_mean, want_var = batch_norm_oracle(
        xd, gamma, beta, running_mean, running_var, training)
    out = tt.batch_norm(Tensor(xd), Tensor(gamma), Tensor(beta),
                        running_mean, running_var, training, relu=relu)
    np.testing.assert_allclose(out.data, np.maximum(want, 0.0) if relu else want,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(running_mean, want_mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(running_var, want_var, rtol=0, atol=1e-14)


@pytest.mark.parametrize("tape", [True, False], ids=["tape", "no_grad"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batch_norm_fused_relu_bit_identical_to_relu_of_batch_norm(training, tape):
    rng = np.random.default_rng(23)
    xd = rng.standard_normal((3, 4, 2, 3, 5))
    gamma, beta, g = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(xd.shape)
    running = rng.standard_normal(4), rng.random(4) + 0.5

    def run(fused, xdata):
        leaves = [Tensor(a, requires_grad=True) for a in (xdata, gamma.copy(), beta.copy())]
        stats = [a.copy() for a in running]
        with contextlib.nullcontext() if tape else tt.no_grad():
            out = tt.batch_norm(*leaves, *stats, training, relu=fused)
        assert (out._bwd is not None) == tape
        data = out.data if fused else relu_oracle(out.data)
        grads = []
        if tape:
            # unfused, the relu's backward hands g * (x > 0) to the norm
            upstream = g if fused else relu_grad_oracle(out.data, g)
            backward(out, upstream)
            grads = [t.grad.tobytes() for t in leaves]
        return [data.tobytes(), *(a.tobytes() for a in stats), *grads]

    assert run(False, xd.copy()) == run(True, xd.copy())


# ---------------------------------------------------------------------------
# residual join
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tape", [True, False], ids=["tape", "no_grad"])
def test_add_relu_bit_identical_to_numpy_oracle(tape):
    rng = np.random.default_rng(29)
    a, b, g = (rng.standard_normal((3, 4, 2, 3, 5)) for _ in range(3))
    b.flat[::7] = -a.flat[::7]  # sums of exactly +0
    a.flat[1::11] = b.flat[1::11] = -0.0  # and of -0
    s = a + b
    assert (s == 0.0).sum() > 10 and (g.flat[::7] < 0).any()
    leaves = [Tensor(x.copy(), requires_grad=True) for x in (a, b)]
    with contextlib.nullcontext() if tape else tt.no_grad():
        out = tt.add_relu(*leaves)
    assert (out._bwd is not None) == tape
    assert out.data.tobytes() == relu_oracle(s).tobytes()
    assert [t.data.tobytes() for t in leaves] == [a.tobytes(), b.tobytes()]
    if tape:
        backward(out, g)
        want = relu_grad_oracle(s, g).tobytes()
        assert [t.grad.tobytes() for t in leaves] == [want, want]


def test_add_relu_rejects_unequal_shapes():
    with pytest.raises(ShapeError, match="add_relu"):
        tt.add_relu(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


# ---------------------------------------------------------------------------
# spatial average pool
# ---------------------------------------------------------------------------


def test_pool_constant_frames():
    x = np.zeros((1, 1, 2, 3, 3))
    x[0, 0, 0] = 1.0
    x[0, 0, 1] = 3.0
    out = tt.spatial_avg_pool(Tensor(x))
    np.testing.assert_array_equal(out.data, [[[1.0], [3.0]]])


def test_pool_single_pixel_passthrough():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 1, 1))
    out = tt.spatial_avg_pool(Tensor(x))
    np.testing.assert_array_equal(out.data, x[:, :, :, 0, 0].transpose(0, 2, 1))


def test_pool_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 4, 8, 6, 6))
    out = tt.spatial_avg_pool(Tensor(x))
    np.testing.assert_allclose(out.data, pool_oracle(x), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# softmax, pointwise
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    out = tt.stable_softmax(np.zeros(3))
    np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        tt.stable_softmax(np.zeros(0))


@pytest.mark.parametrize("label", [5, -1])
def test_cross_entropy_rejects_label_outside_classes(label):
    with pytest.raises(ValueError, match=rf"label {label} outside \[0, 2\)"):
        tt.softmax_cross_entropy(Tensor(np.zeros((2, 2))), [0, label])


def test_pointwise_analytic_values():
    assert tt.sigmoid(Tensor([0.0])).data[0] == 0.5


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=16), st.floats(-30, 30))
def test_softmax_normalized_and_shift_invariant(vals, shift):
    v = np.array(vals)
    y = tt.stable_softmax(v)
    assert abs(y.sum() - 1.0) <= 1e-12
    y2 = tt.stable_softmax(v + shift)
    np.testing.assert_allclose(y2, y, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    backward(tt.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_backward_sigmoid_at_zero():
    x = Tensor(np.zeros((3,)), requires_grad=True)
    backward(tt.sum_all(tt.sigmoid(x)))
    np.testing.assert_allclose(x.grad, np.full(3, 0.25), atol=1e-15)


def test_backward_fanout_accumulates():
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    # x is read by both ops: 3x + 1 + x = 9 > 0 -> grad 3 + 1 = 4
    y = tt.add_relu(tt.affine(x, Tensor([[3.0]]), Tensor([1.0])), x)
    backward(tt.sum_all(y))
    np.testing.assert_allclose(x.grad, [[4.0]])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        backward(tt.sigmoid(x))


def test_backward_rejects_a_grad_of_another_shape_before_consuming():
    x = Tensor(np.ones(3), requires_grad=True)
    out = tt.sigmoid(x)
    with pytest.raises(ShapeError, match=r"grad shape \(2,\) vs output shape \(3,\)"):
        backward(out, np.ones(2))
    assert x.grad is None
    backward(out, np.ones(3))  # the graph was left whole
    np.testing.assert_array_equal(x.grad, out.data * (1.0 - out.data))


def test_backward_seeds_the_sweep_with_grad():
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    g = rng.standard_normal((2, 3))
    g0 = g.copy()
    out = tt.sigmoid(x)
    backward(out, g)
    s = out.data
    assert x.grad.tobytes() == (g0 * s * (1.0 - s)).tobytes()
    assert g.tobytes() == g0.tobytes()


def test_double_backward_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = tt.sum_all(tt.sigmoid(x))
    backward(loss)
    with pytest.raises(GraphError, match="consumed"):
        backward(loss)


def test_graph_built_on_a_consumed_node_is_rejected():
    # backward frees a consumed node's closure and parents, not its mark or data
    x = Tensor(np.ones(3), requires_grad=True)
    h = tt.sigmoid(x)
    backward(tt.sum_all(h))
    np.testing.assert_array_equal(h.data, 1.0 / (1.0 + np.exp(-np.ones(3))))
    w = Tensor(np.full(3, 2.0), requires_grad=True)
    loss = tt.sum_all(tt.add_relu(h, w))
    with pytest.raises(GraphError, match="consumed"):
        backward(loss)
    assert w.grad is None


def test_forward_rerun_bit_identical():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 3, 4, 4))
    w = rng.standard_normal((2, 2, 3, 3, 3))
    a = tt.conv3d(Tensor(x), Tensor(w), padding=(1, 1, 1)).data
    b = tt.conv3d(Tensor(x), Tensor(w), padding=(1, 1, 1)).data
    assert np.array_equal(a, b)


def test_gradients_bit_identical_across_runs():
    rng = np.random.default_rng(8)
    xd = rng.standard_normal((2, 5))
    wd = rng.standard_normal((3, 5))
    grads = []
    for _ in range(2):
        w = Tensor(wd.copy(), requires_grad=True)
        loss = tt.sum_all(tt.sigmoid(tt.affine(Tensor(xd), w, Tensor(np.zeros(3)))))
        backward(loss)
        grads.append(w.grad.copy())
    assert np.array_equal(grads[0], grads[1])


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------


def test_grad_check_quadratic_is_exact():
    p = Tensor(np.array([[3.0]]), requires_grad=True)
    err = grad_check(lambda: tt.affine(p, p, Tensor([0.0])), [p])  # p^2
    assert err < 1e-9


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(9)
    w = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    x = Tensor(rng.standard_normal((5, 3)))
    labels = rng.integers(0, 4, size=5)

    def f():
        return tt.softmax_cross_entropy(tt.affine(x, w, b), labels)

    assert grad_check(f, [w, b]) < 1e-6


def test_grad_check_conv3d_layer():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((1, 2, 3, 3, 3)))
    w = Tensor(rng.standard_normal((2, 2, 2, 2, 2)) * 0.5, requires_grad=True)

    def f():
        return tt.conv3d(x, w, padding=(1, 1, 1))

    assert grad_check(f, [w]) < 1e-5


def test_grad_check_eps_range_enforced():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda: tt.sum_all(p), [p], eps=1e-2)


def test_grad_check_detects_nondeterminism():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    state = {"n": 0.0}

    def f():
        state["n"] += 1.0
        return tt.affine(p, Tensor([[state["n"]]]), Tensor([0.0]))

    with pytest.raises(NondeterministicError):
        grad_check(f, [p])


def _rand_params(rng, *shapes):
    return [Tensor(rng.standard_normal(s) * 0.5, requires_grad=True) for s in shapes]


def test_grad_check_every_primitive_small_shapes():
    rng = np.random.default_rng(11)
    cases = []

    a, b = _rand_params(rng, (3, 4), (3, 4))
    b.data += np.sign(a.data + b.data) * 0.2  # keep a + b away from the relu kink
    cases.append((lambda: tt.add_relu(a, b), [a, b]))

    ax, aw, ab = _rand_params(rng, (3, 4), (2, 4), (2,))
    cases.append((lambda: tt.affine(ax, aw, ab), [ax, aw, ab]))

    s = _rand_params(rng, (2, 5))[0]
    cases.append((lambda: tt.sigmoid(s), [s]))

    r = Tensor(rng.standard_normal((2, 5)) + np.sign(rng.standard_normal((2, 5))) * 0.2,
               requires_grad=True)  # keep away from the relu kink
    cases.append((lambda: tt.add_relu(r, r), [r]))  # both parents one leaf

    sm = _rand_params(rng, (3, 4))[0]
    labels = np.array([0, 3, 1])
    cases.append((lambda: tt.softmax_cross_entropy(sm, labels), [sm]))

    cx, cw = _rand_params(rng, (1, 2, 3, 3, 3), (2, 2, 3, 3, 3))
    cases.append((lambda: tt.conv3d(cx, cw, padding=(1, 1, 1)), [cx, cw]))

    pv = _rand_params(rng, (1, 3, 2, 2, 2))[0]
    cases.append((lambda: tt.spatial_avg_pool(pv), [pv]))
    cases.append((lambda: tt.global_avg_pool(pv), [pv]))

    vol, emb = _rand_params(rng, (3, 3, 2, 2, 2), (3, 2, 3))
    for multiplicative, clips in itertools.product((True, False),
                                                   (None, np.array([True, False, True]))):
        cases.append((lambda m=multiplicative, k=clips:
                      tt.fuse_embedding(vol, tt.sigmoid(emb), m, k), [vol, emb]))

    seq = _rand_params(rng, (2, 4, 3))[0]
    gates = _rand_params(rng, *[(2, 5)] * 4)
    gate_biases = _rand_params(rng, *[(2,)] * 4)
    cases.append(
        (lambda: tt.lstm_layer(seq, gates, gate_biases), [seq, *gates, *gate_biases])
    )

    mp = _rand_params(rng, (1, 2, 4, 4, 4))[0]
    cases.append(
        (lambda: tt.max_pool3d(mp, (1, 3, 3), (1, 2, 2), (0, 1, 1)), [mp])
    )

    bx, gamma, beta = _rand_params(rng, (2, 2, 2, 2, 2), (2,), (2,))
    stats = np.zeros(2), np.ones(2)
    eye = Tensor(np.eye(2).reshape(2, 2, 1, 1, 1))
    # batch_norm consumes its input, so it gets a fresh tensor, not the leaf:
    # a 1x1x1 identity conv's output, which passes dx back to bx
    cases.append(
        (lambda: tt.batch_norm(tt.conv3d(bx, eye), gamma, beta, *stats, training=True),
         [bx, gamma, beta])
    )

    for f, params in cases:
        assert grad_check(f, params) <= 1e-5


def _fuse_case(seed):
    """A (3, 2, 2, 2, 2) volume with a -0.0 in each passed clip, an
    embedding, and a mask that fuses clip 1 only."""
    rng = np.random.default_rng(seed)
    vd = rng.standard_normal((3, 2, 2, 2, 2))
    vd[0, 0, 0, 0, 0] = vd[2, 1, 1, 1, 1] = -0.0
    ed = rng.standard_normal((3, 2, 2))
    return vd, ed, np.array([False, True, False])


@pytest.mark.parametrize("multiplicative", [True, False])
def test_fuse_embedding_passed_rows_bit_identical(multiplicative):
    vd, ed, clips = _fuse_case(12)
    out = tt.fuse_embedding(Tensor(vd), Tensor(ed), multiplicative, clips).data
    assert out[~clips].tobytes() == vd[~clips].tobytes()  # keeps the sign of -0.0
    assert np.signbit(out[0, 0, 0, 0, 0]) and np.signbit(out[2, 1, 1, 1, 1])


@pytest.mark.parametrize("multiplicative", [True, False])
def test_fuse_embedding_open_rows_match_numpy_oracle(multiplicative):
    vd, ed, clips = _fuse_case(13)
    out = tt.fuse_embedding(Tensor(vd), Tensor(ed), multiplicative, clips).data
    emap = ed[1].T[:, :, None, None]
    assert np.array_equal(out[1], vd[1] * emap if multiplicative else vd[1] + emap)
    full = tt.fuse_embedding(Tensor(vd), Tensor(ed), multiplicative).data
    assert np.array_equal(out[1], full[1])


@pytest.mark.parametrize("multiplicative", [True, False])
def test_fuse_embedding_passed_rows_send_emb_exact_zero(multiplicative):
    vd, ed, clips = _fuse_case(14)
    vol, emb = Tensor(vd, requires_grad=True), Tensor(ed, requires_grad=True)
    g = np.random.default_rng(15).standard_normal(vd.shape)
    backward(tt.fuse_embedding(vol, emb, multiplicative, clips), g)
    assert emb.grad[~clips].tobytes() == np.zeros((2, 2, 2)).tobytes()
    assert vol.grad[~clips].tobytes() == g[~clips].tobytes()  # passed rows receive g
    gmap = ed[1].T[:, :, None, None]
    np.testing.assert_array_equal(vol.grad[1], g[1] * gmap if multiplicative else g[1])
    assert np.abs(emb.grad[1]).min() > 0


@pytest.mark.parametrize("clips", [np.array([True, False]), np.ones((3, 1), dtype=bool)])
def test_fuse_embedding_mask_shape_mismatch(clips):
    vd, ed, _ = _fuse_case(16)
    with pytest.raises(ShapeError, match="mask shape"):
        tt.fuse_embedding(Tensor(vd), Tensor(ed), True, clips)


def test_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((1, 2, 3, 4, 4)) * 100)
    w = Tensor(rng.standard_normal((2, 2, 3, 3, 3)), requires_grad=True)
    logits = tt.global_avg_pool(tt.conv3d(x, w, padding=(1, 1, 1)))
    loss = tt.softmax_cross_entropy(logits, [0])
    backward(loss)
    assert np.isfinite(loss.data) and np.isfinite(w.grad).all()


def test_sigmoid_extreme_inputs_stable():
    x = Tensor(np.array([-1000.0, 1000.0]))
    out = tt.sigmoid(x).data
    assert math.isfinite(out[0]) and math.isfinite(out[1])
    assert out[0] == 0.0 and out[1] == 1.0


# ---------------------------------------------------------------------------
# op coverage: the engine keeps only the ops the model or perfbench's op
# replay runs, and the grad-check battery runs every model op
# ---------------------------------------------------------------------------

# tape machinery and the gate's plain-array softmax, not tape ops
_NOT_OPS = {"backward", "grad_check", "no_grad", "stable_softmax"}
_OPS = [n for n in tt.__all__ if n not in _NOT_OPS and inspect.isfunction(getattr(tt, n))]


def _ops_called(monkeypatch, run):
    """Names of the engine ops that run() calls, by module attribute."""
    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for name in _OPS:
            m.setattr(tt, name, spy(name, getattr(tt, name)))
        run()
    return called


def _train_steps():
    """One forward, cross-entropy and backward for each conv kind, with and
    without a stem pool, in each fusion mode; every gated unit has at least
    one closed clip, so the routing runs too."""
    x = np.random.default_rng(22).standard_normal((2, 1, 8, 16, 16))
    for conv, pool, mode in itertools.product(
        ("full_3d", "two_plus_one_d"), (None, (1, 3, 3)), ("multiplicative", "additive")
    ):
        spec = NetworkSpec(
            in_channels=1, num_classes=2, conv_kind=conv, depth_kind="simple",
            placement="final", gate_active=True, fusion_mode=mode, stem_channels=4,
            stem_kernel=(3, 3, 3), stem_stride=(1, 2, 2), stem_pool_kernel=pool,
            stem_pool_stride=pool and (1, 2, 2),
            stages=[StageSpec(blocks=1, channels=4, stride=(1, 1, 1))],
        )
        logits, gate_log = Network(spec, seed=0).forward(x, training=True)
        assert gate_log and all(not all(d.fused for d in ds) for _, ds in gate_log)
        backward(tt.softmax_cross_entropy(logits, np.array([0, 1])))


def _replay_one_conv():
    """perfbench's op replay of one recorded conv3d call."""
    replay.replay([("tensor.conv3d", {
        "x": {"tensor": [1, 1, 3, 4, 4], "grad": False},
        "w": {"tensor": [2, 1, 3, 3, 3], "grad": True},
        "stride": {"value": (1, 1, 1)}, "padding": {"value": (1, 1, 1)},
    })])


def test_grad_check_battery_runs_every_model_op(monkeypatch):
    model = _ops_called(monkeypatch, _train_steps)
    battery = _ops_called(monkeypatch, run_checks)
    bench = _ops_called(monkeypatch, _replay_one_conv)
    assert model - battery == set(), "ops a train step runs that grad-check never checks"
    assert set(_OPS) - (model | battery | bench) == set(), "engine ops that nothing calls"
