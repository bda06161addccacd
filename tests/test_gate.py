"""Gate unit tests: scalar-loop recurrence oracle, hand-computed matching
fixtures, brute-force consistency oracle, and the gating properties."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srtg import gate as sg
from srtg import tensor as tt
from srtg.gate import (
    GateRecord,
    GateVerdict,
    LstmLayerParams,
    LstmParams,
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


def _random_layer(rng, c, bias_scale=0.5):
    """A layer with random weights and biases, plus the same values as the
    nested lists lstm_oracle takes."""
    arrs = {k: rng.standard_normal((c, 2 * c)) for k in "fica"}
    bs = {k: rng.standard_normal(c) * bias_scale for k in "fica"}
    layer = _layer_from_arrays(
        arrs["f"], arrs["i"], arrs["c"], arrs["a"], bs["f"], bs["i"], bs["c"], bs["a"]
    )
    return layer, {k: v.tolist() for k, v in arrs.items()}, {k: v.tolist() for k, v in bs.items()}


def test_cell_zero_params_zero_output():
    out = sg.recursion(Tensor(np.ones((2, 5, 3))), LstmParams([_zero_layer(3)]))
    np.testing.assert_array_equal(out.data, np.zeros((2, 5, 3)))


def test_cell_saturated_forget_gate_preserves_cell():
    # the first frame opens the input gate and writes tanh(b_c), scaled per
    # clip, into the cell; afterwards the input gate is shut and b_f = 50
    # keeps the cell, so h stays o * tanh(c_0) on every later frame
    c, n, t = 2, 2, 6
    layer = _zero_layer(c)
    layer.w_i = Tensor(np.hstack([np.zeros((c, c)), 100.0 * np.eye(c)]), requires_grad=True)
    layer.b_i = Tensor(np.full(c, -50.0), requires_grad=True)
    layer.b_f = Tensor(np.full(c, 50.0), requires_grad=True)
    layer.b_c = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    layer.b_a = Tensor(np.array([0.4, -1.1]), requires_grad=True)
    x = np.zeros((n, t, c))
    x[0, 0] = 1.0
    x[1, 0] = 0.6
    out = sg.recursion(Tensor(x), LstmParams([layer]))
    gate_in = 1.0 / (1.0 + np.exp(-(100.0 * x[:, 0] - 50.0)))
    cell = gate_in * np.tanh(layer.b_c.data)
    expect = 1.0 / (1.0 + np.exp(-layer.b_a.data)) * np.tanh(cell)
    for step in range(t):
        np.testing.assert_allclose(out.data[:, step], expect, rtol=0, atol=1e-15)


def test_cell_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    c, n, t = 3, 3, 6
    layer, weights, biases = _random_layer(rng, c)
    xs = rng.standard_normal((n, t, c))
    out = sg.recursion(Tensor(xs), LstmParams([layer]))
    for clip in range(n):
        expect = lstm_oracle(xs[clip].tolist(), weights, biases)
        np.testing.assert_allclose(out.data[clip], expect, rtol=0, atol=1e-12)


def test_recursion_zero_params_zero_sequence():
    params = LstmParams([_zero_layer(3), _zero_layer(3)])
    out = sg.recursion(Tensor(np.ones((2, 4, 3))), params)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 3)))


def test_recursion_t1_equals_cell_composition():
    rng = np.random.default_rng(2)
    first, w1, b1 = _random_layer(rng, 3)
    second, w2, b2 = _random_layer(rng, 3)
    x = rng.standard_normal((2, 1, 3))
    out = sg.recursion(Tensor(x), LstmParams([first, second]))
    for clip in range(2):
        expect = lstm_oracle(lstm_oracle(x[clip].tolist(), w1, b1), w2, b2)
        np.testing.assert_allclose(out.data[clip], expect, rtol=0, atol=1e-12)


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


_RERUN_SCRIPT = """
import hashlib, numpy as np
from srtg import tensor as tt
from srtg.gate import cycle_consistent, init_lstm_params, recursion
rng = np.random.default_rng(23)
params = init_lstm_params(8, 2, rng)
xd, g = rng.standard_normal((8, 32, 8)), rng.standard_normal((8, 32, 8))
for _ in range(3):
    x = tt.Tensor(xd, requires_grad=True)
    out = recursion(x, params)
    tt.backward(out, g)
    grads = [x.grad] + [p.grad for _, p in params.named("l")]
    # a batched check blends through BLAS with stacked operands
    _, fwd, bwd = cycle_consistent(xd, g)
    blob = b"".join(a.tobytes() for a in [out.data] + grads + [fwd, bwd])
    print(hashlib.sha256(blob).hexdigest())
    for _, p in params.named("l"):
        p.zero_grad()
"""


def test_recursion_bit_identical_across_runs_with_unpinned_blas():
    # BLAS thread counts come from the environment; drop any pinning so the
    # library's default threading is what runs
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(tt.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = set()
    for _ in range(2):
        run = subprocess.run([sys.executable, "-c", _RERUN_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        lines = run.stdout.split()
        assert len(lines) == 3
        digests.update(lines)
    assert len(digests) == 1


def test_recursion_dimension_mismatch():
    params = init_lstm_params(3, 2, np.random.default_rng(4))
    with pytest.raises(ShapeError):
        sg.recursion(Tensor(np.zeros((1, 2, 5))), params)


# ---------------------------------------------------------------------------
# soft nearest neighbor and index resolution
# ---------------------------------------------------------------------------


def test_soft_nn_dominant_weight():
    got = soft_nearest_neighbor(np.array([[[0.0]]]), np.array([[[0.0], [10.0]]]))
    assert got.shape == (1, 1, 1)
    assert abs(got[0, 0, 0]) < 1e-40


def test_soft_nn_hand_computed_fixture():
    # weights [1, e^-1] / (1 + e^-1) -> blend = e^-1 / (1 + e^-1)
    got = soft_nearest_neighbor(np.array([[[0.0]]]), np.array([[[0.0], [1.0]]]))
    expect = math.exp(-1) / (1 + math.exp(-1))
    assert abs(got[0, 0, 0] - expect) < 1e-12
    assert abs(got[0, 0, 0] - 0.26894) < 1e-5


def test_soft_nn_identical_frames_uniform():
    ref = np.tile([1.5, -2.0], (1, 4, 1))
    query = np.array([[[1.5, -2.0]]])
    np.testing.assert_allclose(soft_match_weights(query, ref), np.full((1, 1, 4), 0.25),
                               atol=1e-15)
    np.testing.assert_allclose(soft_nearest_neighbor(query, ref), query)


def test_soft_nn_empty_reference():
    with pytest.raises(ShapeError):
        soft_nearest_neighbor(np.array([[[0.0]]]), np.zeros((1, 0, 1)))


def test_nearest_index_hand_fixture():
    ref = np.array([[[0.0], [1.0]]])
    soft = soft_nearest_neighbor(np.array([[[0.0]]]), ref)
    assert nearest_frame_index(soft, ref).tolist() == [[0]]


def test_nearest_index_exact_frame():
    ref = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]])
    assert nearest_frame_index(ref[:, 1:2], ref).tolist() == [[1]]


def test_nearest_index_tie_goes_low():
    ref = np.array([[[1.0], [-1.0]]])
    assert nearest_frame_index(np.array([[[0.0]]]), ref).tolist() == [[0]]


# ---------------------------------------------------------------------------
# cycle consistency
# ---------------------------------------------------------------------------


def _one_clip(a, b):
    """(passed, fwd, bwd) for one clip's (T, C) pair, checked as a batch of
    one, as a bool and two index lists like cycle_oracle's."""
    passed, fwd, bwd = cycle_consistent(a[None], b[None])
    return bool(passed[0]), fwd[0].tolist(), bwd[0].tolist()


def test_cycle_self_identity():
    e = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    assert _one_clip(e, e) == (True, [0, 1, 2], [0, 1, 2])


def test_cycle_temporal_reversal_closed():
    a = np.array([[0.0], [10.0]])
    b = np.array([[10.0], [0.0]])
    assert _one_clip(a, b) == (False, [1, 0], [1, 0])
    ok, fwd, bwd = cycle_oracle(a.tolist(), b.tolist())
    assert not ok and fwd == [1, 0] and bwd == [1, 0]


def test_cycle_t1_always_open():
    passed, _, _ = _one_clip(np.array([[3.0, 4.0]]), np.array([[-1.0, 2.0]]))
    assert passed


def test_cycle_shape_mismatch():
    with pytest.raises(ShapeError):
        cycle_consistent(np.zeros((1, 2, 3)), np.zeros((1, 3, 3)))


def _assert_matches_oracle_clip_by_clip(a, b):
    passed, fwd, bwd = cycle_consistent(a, b)
    assert passed.shape == (len(a),) and passed.dtype == bool
    assert fwd.shape == bwd.shape == a.shape[:2] and fwd.dtype.kind == bwd.dtype.kind == "i"
    for p, f, g, x, y in zip(passed, fwd, bwd, a, b):
        assert (bool(p), f.tolist(), g.tolist()) == cycle_oracle(x.tolist(), y.tolist())


def test_cycle_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(2, 5))
        t_len = int(rng.integers(1, 9))
        c_len = int(rng.integers(1, 17))
        scale = [0.3, 1.0, 4.0][trial % 3]  # mix blended and separated regimes
        a = rng.standard_normal((n, t_len, c_len)) * scale
        b = rng.standard_normal((n, t_len, c_len)) * scale
        _assert_matches_oracle_clip_by_clip(a, b)


def test_cycle_symmetry_of_verdict():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t_len = int(rng.integers(1, 7))
        c_len = int(rng.integers(1, 9))
        a = rng.standard_normal((t_len, c_len))
        b = rng.standard_normal((t_len, c_len))
        assert _one_clip(a, b)[0] == _one_clip(b, a)[0]


def test_cycle_self_consistency_separated_frames():
    rng = np.random.default_rng(7)
    for _ in range(100):
        e = separated_embedding(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        passed, fwd, _ = _one_clip(e, e)
        assert passed
        assert fwd == list(range(e.shape[0]))


def test_cycle_permutation_detection():
    rng = np.random.default_rng(8)
    for _ in range(100):
        t_len = int(rng.integers(2, 9))
        e = separated_embedding(rng, t_len, int(rng.integers(2, 9)))
        perm = rng.permutation(t_len)
        while (perm == np.arange(t_len)).all():
            perm = rng.permutation(t_len)
        assert not _one_clip(e, e[perm])[0]


@pytest.mark.parametrize("scale", [0.3, 1.0, 4.0])
def test_stacked_queries_equal_per_row_calls(scale):
    # a stack of Q queries gives the bits of Q one-query calls
    rng = np.random.default_rng(int(scale * 10) + 20)
    for _ in range(30):
        t_len, c_len = int(rng.integers(1, 33)), int(rng.integers(1, 17))
        queries = rng.standard_normal((1, int(rng.integers(1, 33)), c_len)) * scale
        ref = rng.standard_normal((1, t_len, c_len)) * scale
        rows = [queries[:, [q]] for q in range(queries.shape[1])]
        weights = soft_match_weights(queries, ref)
        assert np.array_equal(weights, np.hstack([soft_match_weights(r, ref) for r in rows]))
        soft = soft_nearest_neighbor(queries, ref)
        assert np.array_equal(soft, np.hstack([soft_nearest_neighbor(r, ref) for r in rows]))
        idx = nearest_frame_index(soft, ref)
        assert idx.shape == queries.shape[:2] and idx.dtype.kind == "i"
        assert np.array_equal(idx, np.hstack([nearest_frame_index(soft[:, [q]], ref)
                                              for q in range(soft.shape[1])]))


def test_stacked_nearest_index_ties_go_low_per_row():
    ref = np.array([[[3.0], [1.0], [-1.0], [1.0]]])
    # 0.0 ties frames 1, 2, 3; 2.0 ties 0, 1, 3; 1.0 sits on 1 and 3
    assert nearest_frame_index(np.array([[[0.0], [2.0], [1.0]]]), ref).tolist() == [[1, 0, 1]]


@pytest.mark.parametrize("helper", [soft_match_weights, soft_nearest_neighbor,
                                    nearest_frame_index])
def test_stacked_query_dim_mismatch(helper):
    # and every other pair than (N, Q, C) queries against an (N, T, C) reference:
    # a lone query, one clip's (T, C) pair, a rank-2 reference, unequal batches
    for query_shape, reference_shape in [((1, 3, 2), (1, 4, 3)), ((3,), (1, 4, 3)),
                                         ((2, 3), (4, 3)), ((1, 2, 3), (4, 3)),
                                         ((2, 2, 3), (3, 4, 3))]:
        with pytest.raises(ShapeError, match="N, Q, C"):
            helper(np.zeros(query_shape), np.zeros(reference_shape))


@pytest.mark.parametrize("scale", [0.3, 1.0, 4.0])
def test_cycle_batch_equals_per_clip_calls(scale):
    rng = np.random.default_rng(int(scale * 10) + 40)
    shapes = [(1, 1, 3), (1, 6, 2), (5, 1, 4)]
    shapes += [tuple(int(v) for v in rng.integers(1, [9, 33, 17])) for _ in range(30)]
    verdicts = set()
    for n, t_len, c_len in shapes:
        a = rng.standard_normal((n, t_len, c_len)) * scale
        b = rng.standard_normal((n, t_len, c_len)) * scale
        # an identity pair of frames 5 apart on one channel opens
        a[0] = b[0] = 0.0
        a[0, :, 0] = b[0, :, 0] = 5.0 * np.arange(t_len)
        got = cycle_consistent(a, b)
        assert [x.shape for x in got] == [(n,), (n, t_len), (n, t_len)]
        per_clip = [cycle_consistent(a[[i]], b[[i]]) for i in range(n)]
        for part, want in zip(got, zip(*per_clip)):
            assert np.array_equal(part, np.concatenate(want))
        verdicts.update(got[0].tolist())
    assert verdicts == {True, False}


@pytest.mark.parametrize("helper", [soft_match_weights, soft_nearest_neighbor,
                                    nearest_frame_index])
def test_helpers_with_stacked_references_equal_per_clip_calls(helper):
    # an (N, Q, C) query stack against (N, T, C) references: clip n's queries
    # meet reference n only, with the bits of a (1, Q, C) call
    rng = np.random.default_rng(43)
    for trial in range(30):
        q, n, t_len, c_len = (int(v) for v in rng.integers(1, [9, 9, 33, 17]))
        scale = [0.3, 1.0, 4.0][trial % 3]
        queries = rng.standard_normal((n, q, c_len)) * scale
        refs = rng.standard_normal((n, t_len, c_len)) * scale
        expect = np.concatenate([helper(queries[[i]], refs[[i]]) for i in range(n)])
        assert np.array_equal(helper(queries, refs), expect)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((4,), (4,)),
    ((4, 3), (4, 3)),
    ((2, 2, 4, 3), (2, 2, 4, 3)),
    ((2, 4, 3), (3, 4, 3)),
], ids=["rank1", "one_clip", "rank4", "batch_mismatch"])
def test_cycle_rejects_other_ranks_and_unequal_stacks(a_shape, b_shape):
    with pytest.raises(ShapeError, match="cycle_consistent"):
        cycle_consistent(np.zeros(a_shape), np.zeros(b_shape))


def test_cycle_matches_bruteforce_oracle_at_t32():
    rng = np.random.default_rng(21)
    for trial in range(12):
        c_len = int(rng.integers(1, 17))
        scale = [0.3, 1.0, 4.0][trial % 3]
        a = rng.standard_normal((3, 32, c_len)) * scale
        b = rng.standard_normal((3, 32, c_len)) * scale
        _assert_matches_oracle_clip_by_clip(a, b)
    e = separated_embedding(rng, 32, 8)
    assert _one_clip(e, e)[0]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 6),
    st.integers(1, 6),
    st.floats(-100, 100),
    st.integers(0, 2**32 - 1),
)
def test_soft_weights_translation_invariant(t_len, c_len, shift, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1, t_len, c_len))
    b = rng.standard_normal((1, t_len, c_len))
    off = np.full(c_len, shift)
    z0 = soft_match_weights(a, b)
    z1 = soft_match_weights(a + off, b + off)
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
    out, record = srtg_unit(Tensor(x), params, gate_active=True)
    for verdict, fwd in zip(record, record.match_indices()[0], strict=True):
        assert verdict is GateVerdict.CLOSED
        # all-zero filtered frames tie; every index resolves to 0
        assert fwd.tolist() == [0, 0, 0, 0]
    assert np.array_equal(out.data, x)


def test_unit_inactive_additive_zero_lstm_identity():
    rng = np.random.default_rng(13)
    params = LstmParams([_zero_layer(3), _zero_layer(3)])
    x = rng.standard_normal((1, 3, 4, 2, 2))
    out, record = srtg_unit(Tensor(x), params, gate_active=False, mode="additive")
    assert record.verdicts == (GateVerdict.INACTIVE,)
    np.testing.assert_array_equal(out.data, x)


def test_unit_t1_gate_active_always_open_and_fused():
    rng = np.random.default_rng(14)
    params = init_lstm_params(3, 2, rng)
    x = rng.standard_normal((2, 3, 1, 2, 2))
    out, record = srtg_unit(Tensor(x), params, gate_active=True)
    assert record.verdicts == (GateVerdict.OPEN,) * 2
    assert not np.array_equal(out.data, x)


def test_unit_closed_clip_bit_identical_open_clip_fused():
    # craft a batch where one clip closes (degenerate) and check exact routing
    rng = np.random.default_rng(15)
    params = LstmParams([_zero_layer(2), _zero_layer(2)])
    x = rng.standard_normal((3, 2, 3, 2, 2))
    out, record = srtg_unit(Tensor(x), params, gate_active=True)
    assert len(record) == 3
    for clip, verdict in enumerate(record):
        assert verdict is GateVerdict.CLOSED
        assert np.array_equal(out.data[clip], x[clip])


@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
def test_unit_forced_mixed_verdict_passes_closed_clips_bit_identical(monkeypatch, mode):
    real = sg.cycle_consistent

    def mixed(a, b):  # clips 0 and 2 fail, whatever the check finds
        _, fwd, bwd = real(a, b)
        return np.array([False, True, False, True]), fwd, bwd

    monkeypatch.setattr(sg, "cycle_consistent", mixed)
    params = init_lstm_params(3, 2, np.random.default_rng(21))
    x = np.random.default_rng(22).standard_normal((4, 3, 5, 2, 2))
    x[0, 1, 2, 1, 0] = -0.0
    out, record = srtg_unit(Tensor(x), params, gate_active=True, mode=mode)
    assert [v.fused for v in record] == [False, True, False, True]
    fused = fuse(Tensor(x), record.filtered, mode).data
    for clip, verdict in enumerate(record):
        expect = fused[clip] if verdict.fused else x[clip]
        assert out.data[clip].tobytes() == expect.tobytes()


def test_unit_gradients_flow_through_fused_path():
    rng = np.random.default_rng(16)
    params = init_lstm_params(2, 2, rng)
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
        params = init_lstm_params(3, 2, np.random.default_rng(18))
        names_params = list(params.named("lstm"))

        def f():
            return srtg_unit(x, params, gate_active=False, mode=mode)[0]

        err = grad_check(f, [p for _, p in names_params])
        assert err <= 1e-4, f"mode={mode}: {err}"


def _count_checks(monkeypatch):
    """Shapes of the (N, T, C) pairs passed to the gate's cycle check."""
    calls = []
    real = sg.cycle_consistent
    monkeypatch.setattr(sg, "cycle_consistent",
                        lambda a, b: calls.append(a.shape) or real(a, b))
    return calls


def test_unit_checks_the_batch_in_one_call(monkeypatch):
    calls = _count_checks(monkeypatch)
    params = init_lstm_params(3, 2, np.random.default_rng(19))
    x = np.random.default_rng(20).standard_normal((4, 3, 5, 2, 2))
    _, active = srtg_unit(Tensor(x), params, gate_active=True)
    assert calls == [(4, 5, 3)]
    _, inactive = srtg_unit(Tensor(x), params, gate_active=False)
    # routing an inactive unit needs no check
    assert [(v, v.fused) for v in inactive] == [(GateVerdict.INACTIVE, True)] * 4
    assert [v.value for v in inactive] == ["inactive"] * 4
    assert calls == [(4, 5, 3)]
    # an active record holds its routing check's indices; an inactive one
    # checks the whole batch once on every read, with no cache
    want = active.match_indices()
    assert calls == [(4, 5, 3)]
    got = inactive.match_indices()
    assert calls == [(4, 5, 3)] * 2
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert [a.tolist() for a in inactive.match_indices()] == [a.tolist() for a in got]
    assert calls == [(4, 5, 3)] * 3
    assert active.match_indices() is active.indices and calls == [(4, 5, 3)] * 3
    assert not any(a.flags.writeable for a in active.indices) and inactive.indices is None


# ---------------------------------------------------------------------------
# the unit's gate record
# ---------------------------------------------------------------------------


def test_verdict_fused_truth_table():
    assert {v: v.fused for v in GateVerdict} == {
        GateVerdict.OPEN: True, GateVerdict.CLOSED: False, GateVerdict.INACTIVE: True}


@pytest.mark.parametrize("gate_active", [False, True], ids=["inactive", "active"])
def test_record_holds_the_units_own_embeddings(monkeypatch, gate_active):
    made = []
    for name in ("squeeze", "recursion"):
        real = getattr(sg, name)
        monkeypatch.setattr(sg, name, lambda *a, real=real: made.append(real(*a)) or made[-1])
    params = LstmParams([_zero_layer(2), _zero_layer(2)])
    x = np.random.default_rng(24).standard_normal((3, 2, 4, 2, 2))
    # zero weights shut an active gate on every clip
    want = (GateVerdict.CLOSED if gate_active else GateVerdict.INACTIVE,) * 3
    _, record = srtg_unit(Tensor(x), params, gate_active=gate_active)
    assert isinstance(record, GateRecord) and len(record) == 3
    assert tuple(record) == record.verdicts == want
    emb, filtered = made
    assert record.emb is emb and record.filtered is filtered
    assert emb.shape == filtered.shape == (3, 4, 2)
