"""Squeeze, recurrent filtering and the cyclic-consistency temporal gate.

The unit squeezes an activation volume into a per-frame channel embedding,
filters it with a stacked two-layer LSTM, and fuses the filtered stream back
into the volume. When the gate is active, fusion happens only if the squeezed
and filtered embeddings are cycle-consistent: every frame's soft nearest
neighbor in the other embedding must resolve back to the same temporal index,
in both directions. The verdict is a hard, per-clip routing decision;
gradients flow through whichever branch was taken.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from srtg import tensor as tt
from srtg.tensor import ShapeError, Tensor

__all__ = [
    "GateVerdict",
    "GateDecision",
    "LstmLayerParams",
    "LstmParams",
    "LstmState",
    "init_lstm_params",
    "squeeze",
    "lstm_cell_step",
    "recursion",
    "soft_match_weights",
    "soft_nearest_neighbor",
    "nearest_frame_index",
    "cycle_consistent",
    "fuse",
    "srtg_unit",
]

FUSION_MODES = ("multiplicative", "additive")


class GateVerdict(str, enum.Enum):
    OPEN = "open"
    CLOSED = "closed"
    INACTIVE = "inactive"  # gate bypassed, streams always fused


@dataclass
class GateDecision:
    """Outcome of one clip's consistency check.

    match_indices_fwd[t] is where frame t of the squeezed embedding resolved
    inside the filtered one; _bwd is the reverse direction.
    """

    verdict: GateVerdict
    per_direction: tuple[bool, bool]
    match_indices_fwd: list[int]
    match_indices_bwd: list[int]

    @property
    def fused(self) -> bool:
        return self.verdict in (GateVerdict.OPEN, GateVerdict.INACTIVE)

    def to_record(self, layer: str, clip_id: int) -> dict:
        return {
            "layer": layer,
            "clip_id": clip_id,
            "verdict": self.verdict.value,
            "match_indices_fwd": self.match_indices_fwd,
            "match_indices_bwd": self.match_indices_bwd,
        }


@dataclass
class LstmLayerParams:
    """Gate weights of shape (C, C_in + C) acting on the concatenation [h, x]."""

    w_f: Tensor
    w_i: Tensor
    w_c: Tensor
    w_a: Tensor
    b_f: Tensor
    b_i: Tensor
    b_c: Tensor
    b_a: Tensor

    def named(self, prefix: str):
        for name in ("w_f", "w_i", "w_c", "w_a", "b_f", "b_i", "b_c", "b_a"):
            yield f"{prefix}.{name}", getattr(self, name)


@dataclass
class LstmParams:
    layers: list[LstmLayerParams] = field(default_factory=list)

    def named(self, prefix: str):
        for li, layer in enumerate(self.layers):
            yield from layer.named(f"{prefix}.layer{li}")


@dataclass
class LstmState:
    h: Tensor
    c: Tensor


def init_lstm_params(channels: int, num_layers: int = 2, rng=None) -> LstmParams:
    """Uniform(+-1/sqrt(C)) weights, zero biases, forget bias +1.

    The hidden width equals the channel count so the filtered stream can be
    fused back per channel; every layer therefore has C_in = C.
    """
    rng = rng or np.random.default_rng()
    bound = 1.0 / np.sqrt(channels)
    layers = []
    for _ in range(num_layers):
        def w():
            return Tensor(rng.uniform(-bound, bound, size=(channels, 2 * channels)),
                          requires_grad=True)

        layers.append(
            LstmLayerParams(
                w_f=w(), w_i=w(), w_c=w(), w_a=w(),
                b_f=Tensor(np.ones(channels), requires_grad=True),
                b_i=Tensor(np.zeros(channels), requires_grad=True),
                b_c=Tensor(np.zeros(channels), requires_grad=True),
                b_a=Tensor(np.zeros(channels), requires_grad=True),
            )
        )
    return LstmParams(layers)


def squeeze(volume: Tensor) -> Tensor:
    """(N, C, T, H, W) -> (N, T, C) spatial average embedding."""
    return tt.spatial_avg_pool(volume)


def lstm_cell_step(x_t: Tensor, state: LstmState, layer: LstmLayerParams):
    """One recurrent step; returns (h_t, new state).

    f, i and the output gate are sigmoids of affine maps of [h_(t-1), x_t];
    the candidate cell is a tanh; c_t = f*c_(t-1) + i*cand; h_t = o*tanh(c_t).
    """
    z = tt.concat_last(state.h, x_t)
    f = tt.sigmoid(tt.affine(z, layer.w_f, layer.b_f))
    i = tt.sigmoid(tt.affine(z, layer.w_i, layer.b_i))
    cand = tt.tanh(tt.affine(z, layer.w_c, layer.b_c))
    c = tt.add(tt.mul(f, state.c), tt.mul(i, cand))
    o = tt.sigmoid(tt.affine(z, layer.w_a, layer.b_a))
    h = tt.mul(o, tt.tanh(c))
    return h, LstmState(h=h, c=c)


def recursion(embedding: Tensor, params: LstmParams) -> Tensor:
    """Run the stacked LSTM over (N, T, C); output is the last layer's hidden
    sequence, same shape as the input."""
    n, t, c = embedding.data.shape
    seq = embedding
    for layer in params.layers:
        if layer.w_f.data.shape != (c, 2 * c):
            raise ShapeError(
                f"recursion: layer weights {layer.w_f.data.shape}, expected ({c}, {2 * c})"
            )
        state = LstmState(h=Tensor(np.zeros((n, c))), c=Tensor(np.zeros((n, c))))
        outs = []
        for step in range(t):
            h, state = lstm_cell_step(tt.time_slice(seq, step), state, layer)
            outs.append(h)
        seq = tt.stack_time(outs)
    return seq


# ---------------------------------------------------------------------------
# cyclic consistency (plain arrays: the verdict is a hard routing decision)
# ---------------------------------------------------------------------------


def _squared_distances(name: str, query, reference) -> np.ndarray:
    """(..., C) queries against a (T, C) reference -> (..., T) squared L2."""
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 2 or reference.shape[0] == 0:
        raise ShapeError(f"{name}: reference must be a non-empty (T, C) array")
    if query.ndim == 0 or query.shape[-1] != reference.shape[1]:
        raise ShapeError(f"{name}: query dim {query.shape} vs reference C {reference.shape[1]}")
    return ((reference - query[..., None, :]) ** 2).sum(axis=-1)


def soft_match_weights(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Softmax over i of -||query - reference_i||^2, one (..., T) row per
    query of a (..., C) stack; each row sums to 1."""
    return tt.stable_softmax(-_squared_distances("soft_match_weights", query, reference))


def soft_nearest_neighbor(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Distance-softmax weighted blend of reference frames, one per query."""
    reference = np.asarray(reference, dtype=np.float64)
    # a stack of row vectors keeps each blend's sum order that of a lone query
    return (soft_match_weights(query, reference)[..., None, :] @ reference)[..., 0, :]


def nearest_frame_index(soft_match: np.ndarray, reference: np.ndarray) -> int | list[int]:
    """Index of the reference frame nearest to the soft match (L2); ties go to
    the smallest index. An int for one match, a list of ints for a stack."""
    d2 = _squared_distances("nearest_frame_index", soft_match, reference)
    return np.argmin(d2, axis=-1).tolist()  # argmin returns the first minimum


def cycle_consistent(a: np.ndarray, b: np.ndarray) -> GateDecision:
    """Check that every frame of each embedding resolves back to its own index
    through the other embedding; open only if all 2T checks pass."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"cycle_consistent: embedding shapes {a.shape} vs {b.shape} differ")
    fwd = nearest_frame_index(soft_nearest_neighbor(a, b), b)
    bwd = nearest_frame_index(soft_nearest_neighbor(b, a), a)
    frames = list(range(a.shape[0]))
    fwd_ok, bwd_ok = fwd == frames, bwd == frames
    verdict = GateVerdict.OPEN if (fwd_ok and bwd_ok) else GateVerdict.CLOSED
    return GateDecision(verdict, (fwd_ok, bwd_ok), fwd, bwd)


def fuse(main: Tensor, recurrent: Tensor, mode: str = "multiplicative") -> Tensor:
    """Broadcast the (N, T, C) recurrent stream over the spatial plane and
    combine: sigmoid scaling by default, plain addition otherwise."""
    if mode == "multiplicative":
        return tt.scale_by_embedding(main, tt.sigmoid(recurrent))
    if mode == "additive":
        return tt.add_embedding(main, recurrent)
    raise ValueError(f"fuse: unknown mode {mode!r}, expected one of {FUSION_MODES}")


def srtg_unit(
    volume: Tensor,
    params: LstmParams,
    gate_active: bool = True,
    mode: str = "multiplicative",
):
    """Full squeeze -> recursion -> gate -> fuse unit.

    Each clip in the batch is gated independently; clips whose gate closes
    pass through bit-identically. Returns (output volume, per-clip decisions).
    """
    emb = squeeze(volume)
    filtered = recursion(emb, params)
    n = volume.data.shape[0]
    decisions = []
    for clip in range(n):
        d = cycle_consistent(emb.data[clip], filtered.data[clip])
        if not gate_active:
            d = GateDecision(GateVerdict.INACTIVE, d.per_direction,
                             d.match_indices_fwd, d.match_indices_bwd)
        decisions.append(d)
    fused = fuse(volume, filtered, mode)
    mask = np.array([d.fused for d in decisions], dtype=bool)
    if mask.all():
        return fused, decisions
    out = tt.select_clips(mask, fused, volume)
    return out, decisions
