"""Gate unit tests: scalar-loop recurrence oracle, hand-computed matching
fixtures, brute-force consistency oracle, and the gating properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srtg import gate as sg
from srtg import tensor as tt
from srtg.gate import (
    GateVerdict,
    LstmLayerParams,
    LstmParams,
    LstmState,
    cycle_consistent,
    fuse,
    init_lstm_params,
    nearest_frame_index,
    soft_match_weights,
    soft_nearest_neighbor,
    squeeze,
    srtg_unit,
)
from srtg.tensor import ShapeError, Tensor, backward, grad_check

from oracles import cycle_oracle, lstm_oracle, separated_embedding


def _layer_from_arrays(wf, wi, wc, wa, bf, bi, bc, ba):
    return LstmLayerParams(
        w_f=Tensor(wf, requires_grad=True),
        w_i=Tensor(wi, requires_grad=True),
        w_c=Tensor(wc, requires_grad=True),
        w_a=Tensor(wa, requires_grad=True),
        b_f=Tensor(bf, requires_grad=True),
        b_i=Tensor(bi, requires_grad=True),
        b_c=Tensor(bc, requires_grad=True),
        b_a=Tensor(ba, requires_grad=True),
    )


def _zero_layer(c):
    z = np.zeros((c, 2 * c))
    b = np.zeros(c)
    return _layer_from_arrays(z, z, z, z, b, b, b, b)


# ---------------------------------------------------------------------------
# squeeze
# ---------------------------------------------------------------------------


def test_squeeze_constant_per_frame():
    x = np.zeros((1, 2, 3, 4, 4))
    for t in range(3):
        x[0, 0, t] = t + 1.0
        x[0, 1, t] = -(t + 1.0)
    out = squeeze(Tensor(x))
    np.testing.assert_array_equal(out.data[0], [[1, -1], [2, -2], [3, -3]])


def test_squeeze_single_pixel_passthrough():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 5, 1, 1))
    out = squeeze(Tensor(x))
    np.testing.assert_array_equal(out.data, x[:, :, :, 0, 0].transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# lstm cell and recursion
# ---------------------------------------------------------------------------


def test_cell_zero_params_zero_output():
    layer = _zero_layer(3)
    state = LstmState(h=Tensor(np.zeros((2, 3))), c=Tensor(np.zeros((2, 3))))
    h, _ = sg.lstm_cell_step(Tensor(np.ones((2, 3))), state, layer)
    np.testing.assert_array_equal(h.data, np.zeros((2, 3)))


def test_cell_saturated_forget_gate_preserves_cell():
    c = 2
    layer = _zero_layer(c)
    layer.b_f = Tensor(np.full(c, 50.0), requires_grad=True)
    v = np.array([[0.3, -0.7]])
    state = LstmState(h=Tensor(np.zeros((1, c))), c=Tensor(v))
    _, new = sg.lstm_cell_step(Tensor(np.zeros((1, c))), state, layer)
    np.testing.assert_allclose(new.c.data, v, rtol=0, atol=1e-15)


def test_cell_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    c = 2
    arrs = {k: rng.standard_normal((c, 2 * c)) for k in "fica"}
    bs = {k: rng.standard_normal(c) * 0.3 for k in "fica"}
    layer = _layer_from_arrays(
        arrs["f"], arrs["i"], arrs["c"], arrs["a"], bs["f"], bs["i"], bs["c"], bs["a"]
    )
    xs = rng.standard_normal((3, c))
    state = LstmState(h=Tensor(np.zeros((1, c))), c=Tensor(np.zeros((1, c))))
    got = []
    for t in range(3):
        h, state = sg.lstm_cell_step(Tensor(xs[t : t + 1]), state, layer)
        got.append(h.data[0])
    expect = lstm_oracle(
        xs.tolist(),
        {k: arrs[k].tolist() for k in arrs},
        {k: bs[k].tolist() for k in bs},
    )
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_recursion_zero_params_zero_sequence():
    params = LstmParams([_zero_layer(3), _zero_layer(3)])
    out = sg.recursion(Tensor(np.ones((2, 4, 3))), params)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 3)))


def test_recursion_t1_equals_cell_composition():
    rng = np.random.default_rng(2)
    params = init_lstm_params(3, rng=rng)
    x = rng.standard_normal((1, 1, 3))
    out = sg.recursion(Tensor(x), params)
    state = LstmState(h=Tensor(np.zeros((1, 3))), c=Tensor(np.zeros((1, 3))))
    h1, _ = sg.lstm_cell_step(Tensor(x[:, 0]), state, params.layers[0])
    state2 = LstmState(h=Tensor(np.zeros((1, 3))), c=Tensor(np.zeros((1, 3))))
    h2, _ = sg.lstm_cell_step(h1, state2, params.layers[1])
    np.testing.assert_array_equal(out.data[:, 0], h2.data)


def test_recursion_matches_unrolled_oracle():
    rng = np.random.default_rng(3)
    c = 3
    layers, raw = [], []
    for _ in range(2):
        arrs = {k: rng.standard_normal((c, 2 * c)) * 0.7 for k in "fica"}
        bs = {k: rng.standard_normal(c) * 0.2 for k in "fica"}
        raw.append((arrs, bs))
        layers.append(
            _layer_from_arrays(
                arrs["f"], arrs["i"], arrs["c"], arrs["a"],
                bs["f"], bs["i"], bs["c"], bs["a"],
            )
        )
    xs = rng.standard_normal((4, c))
    out = sg.recursion(Tensor(xs[None]), LstmParams(layers))
    seq = xs.tolist()
    for arrs, bs in raw:
        seq = lstm_oracle(seq, {k: arrs[k].tolist() for k in arrs}, {k: bs[k].tolist() for k in bs})
    np.testing.assert_allclose(out.data[0], seq, rtol=0, atol=1e-12)


def test_recursion_dimension_mismatch():
    params = init_lstm_params(3, rng=np.random.default_rng(4))
    with pytest.raises(ShapeError):
        sg.recursion(Tensor(np.zeros((1, 2, 5))), params)


# ---------------------------------------------------------------------------
# soft nearest neighbor and index resolution
# ---------------------------------------------------------------------------


def test_soft_nn_dominant_weight():
    got = soft_nearest_neighbor(np.array([0.0]), np.array([[0.0], [10.0]]))
    assert abs(got[0]) < 1e-40


def test_soft_nn_hand_computed_fixture():
    # weights [1, e^-1] / (1 + e^-1) -> blend = e^-1 / (1 + e^-1)
    got = soft_nearest_neighbor(np.array([0.0]), np.array([[0.0], [1.0]]))
    expect = math.exp(-1) / (1 + math.exp(-1))
    assert abs(got[0] - expect) < 1e-12
    assert abs(got[0] - 0.26894) < 1e-5


def test_soft_nn_identical_frames_uniform():
    ref = np.tile([1.5, -2.0], (4, 1))
    z = soft_match_weights(np.array([1.5, -2.0]), ref)
    np.testing.assert_allclose(z, np.full(4, 0.25), atol=1e-15)
    np.testing.assert_allclose(soft_nearest_neighbor(np.array([1.5, -2.0]), ref), [1.5, -2.0])


def test_soft_nn_empty_reference():
    with pytest.raises(ShapeError):
        soft_nearest_neighbor(np.array([0.0]), np.zeros((0, 1)))


def test_nearest_index_hand_fixture():
    soft = soft_nearest_neighbor(np.array([0.0]), np.array([[0.0], [1.0]]))
    assert nearest_frame_index(soft, np.array([[0.0], [1.0]])) == 0


def test_nearest_index_exact_frame():
    ref = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    assert nearest_frame_index(ref[1], ref) == 1


def test_nearest_index_tie_goes_low():
    ref = np.array([[1.0], [-1.0]])
    assert nearest_frame_index(np.array([0.0]), ref) == 0


# ---------------------------------------------------------------------------
# cycle consistency
# ---------------------------------------------------------------------------


def test_cycle_self_identity():
    e = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    d = cycle_consistent(e, e)
    assert d.verdict is GateVerdict.OPEN
    assert d.match_indices_fwd == [0, 1, 2]
    assert d.match_indices_bwd == [0, 1, 2]


def test_cycle_temporal_reversal_closed():
    a = np.array([[0.0], [10.0]])
    b = np.array([[10.0], [0.0]])
    d = cycle_consistent(a, b)
    assert d.verdict is GateVerdict.CLOSED
    assert d.match_indices_fwd == [1, 0]
    assert d.match_indices_bwd == [1, 0]
    ok, fwd, bwd = cycle_oracle(a.tolist(), b.tolist())
    assert not ok and fwd == [1, 0] and bwd == [1, 0]


def test_cycle_t1_always_open():
    d = cycle_consistent(np.array([[3.0, 4.0]]), np.array([[-1.0, 2.0]]))
    assert d.verdict is GateVerdict.OPEN


def test_cycle_shape_mismatch():
    with pytest.raises(ShapeError):
        cycle_consistent(np.zeros((2, 3)), np.zeros((3, 3)))


def test_cycle_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for trial in range(60):
        t_len = int(rng.integers(1, 9))
        c_len = int(rng.integers(1, 17))
        scale = [0.3, 1.0, 4.0][trial % 3]  # mix blended and separated regimes
        a = rng.standard_normal((t_len, c_len)) * scale
        b = rng.standard_normal((t_len, c_len)) * scale
        d = cycle_consistent(a, b)
        ok, fwd, bwd = cycle_oracle(a.tolist(), b.tolist())
        assert (d.verdict is GateVerdict.OPEN) == ok
        assert d.match_indices_fwd == fwd
        assert d.match_indices_bwd == bwd


def test_cycle_symmetry_of_verdict():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t_len = int(rng.integers(1, 7))
        c_len = int(rng.integers(1, 9))
        a = rng.standard_normal((t_len, c_len))
        b = rng.standard_normal((t_len, c_len))
        assert cycle_consistent(a, b).verdict is cycle_consistent(b, a).verdict


def test_cycle_self_consistency_separated_frames():
    rng = np.random.default_rng(7)
    for _ in range(100):
        e = separated_embedding(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        d = cycle_consistent(e, e)
        assert d.verdict is GateVerdict.OPEN
        assert d.match_indices_fwd == list(range(e.shape[0]))


def test_cycle_permutation_detection():
    rng = np.random.default_rng(8)
    for _ in range(100):
        t_len = int(rng.integers(2, 9))
        e = separated_embedding(rng, t_len, int(rng.integers(2, 9)))
        perm = rng.permutation(t_len)
        while (perm == np.arange(t_len)).all():
            perm = rng.permutation(t_len)
        assert cycle_consistent(e, e[perm]).verdict is GateVerdict.CLOSED


@pytest.mark.parametrize("scale", [0.3, 1.0, 4.0])
def test_stacked_queries_equal_per_row_calls(scale):
    rng = np.random.default_rng(int(scale * 10) + 20)
    for _ in range(30):
        t_len, c_len = int(rng.integers(1, 33)), int(rng.integers(1, 17))
        queries = rng.standard_normal((int(rng.integers(1, 33)), c_len)) * scale
        ref = rng.standard_normal((t_len, c_len)) * scale
        weights = soft_match_weights(queries, ref)
        assert np.array_equal(weights, np.stack([soft_match_weights(q, ref) for q in queries]))
        soft = soft_nearest_neighbor(queries, ref)
        assert np.array_equal(soft, np.stack([soft_nearest_neighbor(q, ref) for q in queries]))
        idx = nearest_frame_index(soft, ref)
        assert idx == [nearest_frame_index(s, ref) for s in soft]
        assert all(type(i) is int for i in idx)
        # any number of leading axes: each 2-D slice is its own stack
        deep = np.stack([queries, queries[::-1]])
        assert np.array_equal(soft_nearest_neighbor(deep, ref),
                              np.stack([soft, soft_nearest_neighbor(queries[::-1], ref)]))
        assert nearest_frame_index(deep, ref) == [nearest_frame_index(d, ref) for d in deep]


def test_stacked_nearest_index_ties_go_low_per_row():
    ref = np.array([[3.0], [1.0], [-1.0], [1.0]])
    # 0.0 ties frames 1, 2, 3; 2.0 ties 0, 1, 3; 1.0 sits on 1 and 3
    assert nearest_frame_index(np.array([[0.0], [2.0], [1.0]]), ref) == [1, 0, 1]


@pytest.mark.parametrize("helper", [soft_match_weights, soft_nearest_neighbor,
                                    nearest_frame_index])
def test_stacked_query_dim_mismatch(helper):
    with pytest.raises(ShapeError, match="query dim"):
        helper(np.zeros((3, 2)), np.zeros((4, 3)))


def test_cycle_matches_bruteforce_oracle_at_t32():
    rng = np.random.default_rng(21)
    for trial in range(12):
        c_len = int(rng.integers(1, 17))
        scale = [0.3, 1.0, 4.0][trial % 3]
        a = rng.standard_normal((32, c_len)) * scale
        b = rng.standard_normal((32, c_len)) * scale
        d = cycle_consistent(a, b)
        ok, fwd, bwd = cycle_oracle(a.tolist(), b.tolist())
        assert (d.verdict is GateVerdict.OPEN) == ok
        assert d.match_indices_fwd == fwd
        assert d.match_indices_bwd == bwd
    e = separated_embedding(rng, 32, 8)
    assert cycle_consistent(e, e).verdict is GateVerdict.OPEN


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 6),
    st.integers(1, 6),
    st.floats(-100, 100),
    st.integers(0, 2**32 - 1),
)
def test_soft_weights_translation_invariant(t_len, c_len, shift, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((t_len, c_len))
    b = rng.standard_normal((t_len, c_len))
    off = np.full(c_len, shift)
    for t in range(t_len):
        z0 = soft_match_weights(a[t], b)
        z1 = soft_match_weights(a[t] + off, b + off)
        np.testing.assert_allclose(z1, z0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def test_fuse_multiplicative_zero_recurrent_halves():
    rng = np.random.default_rng(9)
    main = rng.standard_normal((2, 3, 4, 2, 2))
    out = fuse(Tensor(main), Tensor(np.zeros((2, 4, 3))), "multiplicative")
    np.testing.assert_allclose(out.data, 0.5 * main, rtol=0, atol=1e-15)


def test_fuse_additive_zero_recurrent_identity():
    rng = np.random.default_rng(10)
    main = rng.standard_normal((2, 3, 4, 2, 2))
    out = fuse(Tensor(main), Tensor(np.zeros((2, 4, 3))), "additive")
    np.testing.assert_array_equal(out.data, main)


def test_fuse_matches_broadcast_loop_oracle():
    rng = np.random.default_rng(11)
    main = rng.standard_normal((1, 2, 3, 2, 2))
    rec = rng.standard_normal((1, 3, 2))
    for mode in ("multiplicative", "additive"):
        out = fuse(Tensor(main), Tensor(rec), mode).data
        expect = np.zeros_like(main)
        for c in range(2):
            for t in range(3):
                for h in range(2):
                    for w in range(2):
                        r = rec[0, t, c]
                        if mode == "multiplicative":
                            expect[0, c, t, h, w] = main[0, c, t, h, w] / (1 + math.exp(-r))
                        else:
                            expect[0, c, t, h, w] = main[0, c, t, h, w] + r
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14)


def test_fuse_shape_mismatch():
    with pytest.raises(ShapeError):
        fuse(Tensor(np.zeros((1, 2, 3, 2, 2))), Tensor(np.zeros((1, 2, 3))))


def test_fuse_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        fuse(Tensor(np.zeros((1, 2, 3, 2, 2))), Tensor(np.zeros((1, 3, 2))), "mean")


# ---------------------------------------------------------------------------
# full unit
# ---------------------------------------------------------------------------


def test_unit_zero_lstm_gate_active_closes_to_identity():
    rng = np.random.default_rng(12)
    params = LstmParams([_zero_layer(3), _zero_layer(3)])
    x = rng.standard_normal((2, 3, 4, 2, 2))
    out, decisions = srtg_unit(Tensor(x), params, gate_active=True)
    for d in decisions:
        assert d.verdict is GateVerdict.CLOSED
        # all-zero filtered frames tie; every index resolves to 0
        assert d.match_indices_fwd == [0, 0, 0, 0]
    assert np.array_equal(out.data, x)


def test_unit_inactive_additive_zero_lstm_identity():
    rng = np.random.default_rng(13)
    params = LstmParams([_zero_layer(3), _zero_layer(3)])
    x = rng.standard_normal((1, 3, 4, 2, 2))
    out, decisions = srtg_unit(Tensor(x), params, gate_active=False, mode="additive")
    assert decisions[0].verdict is GateVerdict.INACTIVE
    np.testing.assert_array_equal(out.data, x)


def test_unit_t1_gate_active_always_open_and_fused():
    rng = np.random.default_rng(14)
    params = init_lstm_params(3, rng=rng)
    x = rng.standard_normal((2, 3, 1, 2, 2))
    out, decisions = srtg_unit(Tensor(x), params, gate_active=True)
    for d in decisions:
        assert d.verdict is GateVerdict.OPEN
    assert not np.array_equal(out.data, x)


def test_unit_closed_clip_bit_identical_open_clip_fused():
    # craft a batch where one clip closes (degenerate) and check exact routing
    rng = np.random.default_rng(15)
    params = LstmParams([_zero_layer(2), _zero_layer(2)])
    x = rng.standard_normal((3, 2, 3, 2, 2))
    out, decisions = srtg_unit(Tensor(x), params, gate_active=True)
    for clip, d in enumerate(decisions):
        assert d.verdict is GateVerdict.CLOSED
        assert np.array_equal(out.data[clip], x[clip])


def test_unit_gradients_flow_through_fused_path():
    rng = np.random.default_rng(16)
    params = init_lstm_params(2, rng=rng)
    x = Tensor(rng.standard_normal((1, 2, 3, 2, 2)), requires_grad=True)
    out, _ = srtg_unit(x, params, gate_active=False)
    backward(tt.sum_all(out))
    assert x.grad is not None and np.isfinite(x.grad).all()
    for _, p in params.named("lstm"):
        assert p.grad is not None


def test_unit_grad_check_both_modes():
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((1, 3, 4, 2, 2)))
    for mode in ("multiplicative", "additive"):
        params = init_lstm_params(3, rng=np.random.default_rng(18))
        names_params = list(params.named("lstm"))

        def f():
            out, _ = srtg_unit(x, params, gate_active=False, mode=mode)
            return tt.sum_all(tt.tanh(out))

        err = grad_check(f, [p for _, p in names_params])
        assert err <= 1e-4, f"mode={mode}: {err}"


def test_gate_decision_record_schema():
    d = cycle_consistent(np.array([[0.0], [9.0]]), np.array([[0.0], [9.0]]))
    rec = d.to_record("stage1.block0.srtg", 3)
    assert rec == {
        "layer": "stage1.block0.srtg",
        "clip_id": 3,
        "verdict": "open",
        "match_indices_fwd": [0, 1],
        "match_indices_bwd": [0, 1],
    }
