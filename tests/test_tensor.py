"""Tensor engine tests: loop oracles first, then autodiff and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srtg import tensor as tt
from srtg.tensor import (
    GraphError,
    NondeterministicError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
)

from oracles import conv3d_oracle, matmul_oracle, pool_oracle

# ---------------------------------------------------------------------------
# conv3d
# ---------------------------------------------------------------------------


def test_conv3d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 1, 3, 4, 4)))
    w = Tensor(np.ones((1, 1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    out = tt.conv3d(x, w, b)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv3d_sum_of_ones():
    x = Tensor(np.ones((1, 1, 3, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3, 3)))
    out = tt.conv3d(x, w, None)
    assert out.data.shape == (1, 1, 1, 1, 1)
    assert out.data.flat[0] == 27.0


def test_conv3d_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 4, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    b = rng.standard_normal(3)
    out = tt.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=(1, 1, 1), padding=(1, 1, 1))
    expect = conv3d_oracle(x, w, b, (1, 1, 1), (1, 1, 1))
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)


def test_conv3d_strided_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 5, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3, 3))
    out = tt.conv3d(Tensor(x), Tensor(w), None, stride=(2, 2, 2), padding=(1, 1, 1))
    expect = conv3d_oracle(x, w, None, (2, 2, 2), (1, 1, 1))
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)


def test_conv3d_linearity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 4, 4, 4))
    w = Tensor(rng.standard_normal((2, 2, 3, 3, 3)))
    a = tt.conv3d(Tensor(3.5 * x), w, None, padding=(1, 1, 1))
    b = tt.conv3d(Tensor(x), w, None, padding=(1, 1, 1))
    np.testing.assert_allclose(a.data, 3.5 * b.data, rtol=0, atol=1e-12)


def test_conv3d_channel_mismatch_names_dimension():
    x = Tensor(np.zeros((1, 2, 3, 3, 3)))
    w = Tensor(np.zeros((1, 3, 3, 3, 3)))
    with pytest.raises(ShapeError, match="channels"):
        tt.conv3d(x, w, None)


def test_conv3d_nonpositive_extent():
    x = Tensor(np.zeros((1, 1, 2, 8, 8)))
    w = Tensor(np.zeros((1, 1, 3, 3, 3)))
    with pytest.raises(ShapeError, match="frames"):
        tt.conv3d(x, w, None)


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
# matmul, softmax, pointwise
# ---------------------------------------------------------------------------


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2))
    out = tt.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, matmul_oracle(a, b), rtol=0, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError, match="inner dims"):
        tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_softmax_symmetry():
    out = tt.softmax_last(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        tt.softmax_last(Tensor(np.zeros(0)))


@pytest.mark.parametrize("label", [5, -1])
def test_cross_entropy_rejects_label_outside_classes(label):
    with pytest.raises(ValueError, match=rf"label {label} outside \[0, 2\)"):
        tt.softmax_cross_entropy(Tensor(np.zeros((2, 2))), [0, label])


def test_pointwise_analytic_values():
    assert tt.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert tt.tanh(Tensor([0.0])).data[0] == 0.0


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=16), st.floats(-30, 30))
def test_softmax_normalized_and_shift_invariant(vals, shift):
    v = np.array(vals)
    y = tt.softmax_last(Tensor(v)).data
    assert abs(y.sum() - 1.0) <= 1e-12
    y2 = tt.softmax_last(Tensor(v + shift)).data
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
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = tt.add(tt.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
    backward(tt.sum_all(y))
    np.testing.assert_allclose(x.grad, [5.0])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        backward(tt.sigmoid(x))


def test_double_backward_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = tt.sum_all(tt.sigmoid(x))
    backward(loss)
    with pytest.raises(GraphError, match="consumed"):
        backward(loss)


def test_forward_rerun_bit_identical():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 3, 4, 4))
    w = rng.standard_normal((2, 2, 3, 3, 3))
    a = tt.conv3d(Tensor(x), Tensor(w), None, padding=(1, 1, 1)).data
    b = tt.conv3d(Tensor(x), Tensor(w), None, padding=(1, 1, 1)).data
    assert np.array_equal(a, b)


def test_gradients_bit_identical_across_runs():
    rng = np.random.default_rng(8)
    xd = rng.standard_normal((2, 5))
    wd = rng.standard_normal((3, 5))
    grads = []
    for _ in range(2):
        w = Tensor(wd.copy(), requires_grad=True)
        loss = tt.sum_all(tt.tanh(tt.affine(Tensor(xd), w, Tensor(np.zeros(3)))))
        backward(loss)
        grads.append(w.grad.copy())
    assert np.array_equal(grads[0], grads[1])


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------


def test_grad_check_quadratic_is_exact():
    p = Tensor(np.array([3.0]), requires_grad=True)
    err = grad_check(lambda: tt.sum_all(tt.mul(p, p)), [p])
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
    b = Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)

    def f():
        return tt.sum_all(tt.tanh(tt.conv3d(x, w, b, padding=(1, 1, 1))))

    assert grad_check(f, [w, b]) < 1e-5


def test_grad_check_eps_range_enforced():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda: tt.sum_all(p), [p], eps=1e-2)


def test_grad_check_detects_nondeterminism():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = {"n": 0.0}

    def f():
        state["n"] += 1.0
        return tt.sum_all(tt.scale(p, state["n"]))

    with pytest.raises(NondeterministicError):
        grad_check(f, [p])


def _rand_params(rng, *shapes):
    return [Tensor(rng.standard_normal(s) * 0.5, requires_grad=True) for s in shapes]


def test_grad_check_every_primitive_small_shapes():
    rng = np.random.default_rng(11)
    cases = []

    a, b = _rand_params(rng, (3, 4), (3, 4))
    cases.append((lambda: tt.sum_all(tt.mul(tt.add(a, b), tt.sub(a, b))), [a, b]))

    m1, m2 = _rand_params(rng, (3, 4), (4, 2))
    cases.append((lambda: tt.sum_all(tt.matmul(m1, m2)), [m1, m2]))

    s = _rand_params(rng, (2, 5))[0]
    cases.append((lambda: tt.sum_all(tt.mul(tt.sigmoid(s), tt.tanh(s))), [s]))

    r = Tensor(rng.standard_normal((2, 5)) + np.sign(rng.standard_normal((2, 5))) * 0.2,
               requires_grad=True)  # keep away from the relu kink
    cases.append((lambda: tt.sum_all(tt.relu(r)), [r]))

    sm = _rand_params(rng, (3, 4))[0]
    cases.append((lambda: tt.sum_all(tt.mul(tt.softmax_last(sm), sm)), [sm]))

    c1, c2 = _rand_params(rng, (2, 3), (2, 2))
    cases.append((lambda: tt.mean_all(tt.tanh(tt.concat_last(c1, c2))), [c1, c2]))

    cx, cw, cb = _rand_params(rng, (1, 2, 3, 3, 3), (2, 2, 3, 3, 3), (2,))
    cases.append(
        (lambda: tt.sum_all(tt.sigmoid(tt.conv3d(cx, cw, cb, padding=(1, 1, 1)))), [cx, cw, cb])
    )

    pv = _rand_params(rng, (1, 3, 2, 2, 2))[0]
    cases.append((lambda: tt.sum_all(tt.tanh(tt.spatial_avg_pool(pv))), [pv]))
    cases.append((lambda: tt.sum_all(tt.tanh(tt.global_avg_pool(pv))), [pv]))

    vol, emb = _rand_params(rng, (2, 3, 2, 2, 2), (2, 2, 3))
    cases.append((lambda: tt.sum_all(tt.scale_by_embedding(vol, tt.sigmoid(emb))), [vol, emb]))
    cases.append((lambda: tt.sum_all(tt.tanh(tt.add_embedding(vol, emb))), [vol, emb]))

    sa, sb = _rand_params(rng, (3, 2, 2), (3, 2, 2))
    mask = np.array([True, False, True])
    cases.append((lambda: tt.sum_all(tt.mul(tt.select_clips(mask, sa, sb), sa)), [sa, sb]))

    seq = _rand_params(rng, (2, 3, 4))[0]
    cases.append(
        (
            lambda: tt.sum_all(
                tt.stack_time([tt.tanh(tt.time_slice(seq, t)) for t in range(3)])
            ),
            [seq],
        )
    )

    mp = _rand_params(rng, (1, 2, 4, 4, 4))[0]
    cases.append(
        (lambda: tt.sum_all(tt.max_pool3d(mp, (1, 3, 3), (1, 2, 2), (0, 1, 1))), [mp])
    )

    for f, params in cases:
        assert grad_check(f, params) <= 1e-5


def test_scale_and_mean():
    x = Tensor(np.full((2, 2), 3.0), requires_grad=True)
    backward(tt.mean_all(tt.scale(x, 2.0)))
    np.testing.assert_allclose(x.grad, np.full((2, 2), 0.5))


def test_add_bias_broadcast_and_grad():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    b = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    out = tt.add_bias(x, b)
    np.testing.assert_array_equal(out.data, np.tile([1.0, -1.0], (3, 1)))
    backward(tt.sum_all(out))
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])


def test_select_clips_closed_rows_bit_identical():
    rng = np.random.default_rng(12)
    a = Tensor(rng.standard_normal((3, 2, 2)))
    b = Tensor(rng.standard_normal((3, 2, 2)))
    out = tt.select_clips(np.array([False, True, False]), a, b)
    assert np.array_equal(out.data[0], b.data[0])
    assert np.array_equal(out.data[2], b.data[2])
    assert np.array_equal(out.data[1], a.data[1])


def test_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((1, 2, 3, 4, 4)) * 100)
    w = Tensor(rng.standard_normal((2, 2, 3, 3, 3)))
    out = tt.softmax_last(tt.spatial_avg_pool(tt.conv3d(x, w, None, padding=(1, 1, 1))))
    assert np.isfinite(out.data).all()


def test_sigmoid_extreme_inputs_stable():
    x = Tensor(np.array([-1000.0, 1000.0]))
    out = tt.sigmoid(x).data
    assert math.isfinite(out[0]) and math.isfinite(out[1])
    assert out[0] == 0.0 and out[1] == 1.0
