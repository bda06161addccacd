"""Squeeze, recurrent filtering and the cyclic-consistency temporal gate.

The unit squeezes an activation volume into a per-frame channel embedding,
filters it with a stacked two-layer LSTM, and fuses the filtered stream back
into the volume. When the gate is active, fusion happens only if the squeezed
and filtered embeddings are cycle-consistent: every frame's soft nearest
neighbor in the other embedding must resolve back to the same temporal index,
in both directions. The verdict is a hard, per-clip routing decision;
gradients flow through whichever branch was taken. An inactive gate always
fuses, so it runs the check only when a clip's match indices are first read.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from srtg import tensor as tt
from srtg.config import FUSION_MODES
from srtg.tensor import ShapeError, Tensor

__all__ = [
    "GateVerdict",
    "GateDecision",
    "LstmLayerParams",
    "LstmParams",
    "init_lstm_params",
    "squeeze",
    "recursion",
    "soft_match_weights",
    "soft_nearest_neighbor",
    "nearest_frame_index",
    "cycle_consistent",
    "fuse",
    "srtg_unit",
]


class GateVerdict(str, enum.Enum):
    OPEN = "open"
    CLOSED = "closed"
    INACTIVE = "inactive"  # gate bypassed, streams always fused


class GateDecision:
    """Outcome of one clip's consistency check.

    match_indices_fwd[t] is where frame t of the squeezed embedding resolved
    inside the filtered one; _bwd is the reverse direction. An inactive gate
    leaves them `pending=(check, clip)`: the first read takes row `clip` of
    check(), one cached check of the unit's whole batch.
    """

    def __init__(self, verdict: GateVerdict, match_indices_fwd=None, match_indices_bwd=None,
                 pending=None):
        self.verdict = verdict
        self._indices = match_indices_fwd, match_indices_bwd
        self._pending = pending

    def _read(self):
        if self._pending is not None:
            check, clip = self._pending
            self._indices, self._pending = check()[clip]._indices, None
        return self._indices

    match_indices_fwd = property(lambda self: self._read()[0])
    match_indices_bwd = property(lambda self: self._read()[1])

    def __eq__(self, other):
        if not isinstance(other, GateDecision):
            return NotImplemented
        return (self.verdict, self._read()) == (other.verdict, other._read())

    @property
    def fused(self) -> bool:
        return self.verdict in (GateVerdict.OPEN, GateVerdict.INACTIVE)

    def to_record(self, layer: str, clip_id: int) -> dict:
        fwd, bwd = self._read()
        return {"layer": layer, "clip_id": clip_id, "verdict": self.verdict.value,
                "match_indices_fwd": fwd, "match_indices_bwd": bwd}


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


def init_lstm_params(channels: int, num_layers: int, rng: np.random.Generator) -> LstmParams:
    """Uniform(+-1/sqrt(C)) weights, zero biases, forget bias +1.

    The hidden width equals the channel count so the filtered stream can be
    fused back per channel; every layer therefore has C_in = C.
    """
    bound = 1.0 / np.sqrt(channels)

    def w():
        return Tensor(rng.uniform(-bound, bound, size=(channels, 2 * channels)),
                      requires_grad=True)

    def b(value):
        return Tensor(np.full(channels, value), requires_grad=True)

    # keyword order is draw order: the four weights, then the biases
    return LstmParams([LstmLayerParams(w_f=w(), w_i=w(), w_c=w(), w_a=w(), b_f=b(1.0),
                                       b_i=b(0.0), b_c=b(0.0), b_a=b(0.0))
                       for _ in range(num_layers)])


def squeeze(volume: Tensor) -> Tensor:
    """(N, C, T, H, W) -> (N, T, C) spatial average embedding."""
    return tt.spatial_avg_pool(volume)


def recursion(embedding: Tensor, params: LstmParams) -> Tensor:
    """Run the stacked LSTM over (N, T, C), one `tt.lstm_layer` tape node per
    layer; output is the last layer's hidden sequence, same shape as the input."""
    seq = embedding
    for layer in params.layers:
        seq = tt.lstm_layer(seq, (layer.w_f, layer.w_i, layer.w_c, layer.w_a),
                            (layer.b_f, layer.b_i, layer.b_c, layer.b_a))
    return seq


# ---------------------------------------------------------------------------
# cyclic consistency (plain arrays: the verdict is a hard routing decision)
# ---------------------------------------------------------------------------


def _squared_distances(name: str, query, reference) -> np.ndarray:
    """(N, Q, C) queries against (N, T, C) references -> (N, Q, T) squared L2;
    the queries of clip n meet clip n's reference only."""
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if (query.ndim != 3 or reference.ndim != 3 or reference.shape[1] == 0
            or query.shape[::2] != reference.shape[::2]):
        raise ShapeError(f"{name}: need (N, Q, C) queries and a non-empty (N, T, C) "
                         f"reference, got {query.shape} and {reference.shape}")
    return ((reference[:, None] - query[:, :, None]) ** 2).sum(axis=-1)


def soft_match_weights(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Softmax over i of -||query - reference_i||^2: (N, Q, T), each row
    sums to 1."""
    return tt.stable_softmax(-_squared_distances("soft_match_weights", query, reference))


def soft_nearest_neighbor(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Distance-softmax weighted blend of reference frames: (N, Q, C)."""
    weights = soft_match_weights(query, reference)
    # one (1, T) @ (T, C) product per query keeps each blend's sum order
    return (weights[..., None, :] @ np.asarray(reference, dtype=np.float64)[:, None])[..., 0, :]


def nearest_frame_index(soft_match: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """(N, Q) index of the reference frame nearest to each soft match (L2);
    ties go to the smallest index."""
    d2 = _squared_distances("nearest_frame_index", soft_match, reference)
    return np.argmin(d2, axis=-1)  # argmin returns the first minimum


def cycle_consistent(a: np.ndarray, b: np.ndarray) -> list[GateDecision]:
    """Check that every frame of each clip's embedding resolves back to its
    own index through the other embedding; a clip opens only if all 2T
    checks pass. Takes an equal (N, T, C) pair, returns N decisions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 3:
        raise ShapeError(f"cycle_consistent: embeddings must be an equal (N, T, C) pair, "
                         f"got {a.shape} and {b.shape}")
    fwd = nearest_frame_index(soft_nearest_neighbor(a, b), b)
    bwd = nearest_frame_index(soft_nearest_neighbor(b, a), a)
    frames = list(range(a.shape[1]))
    return [GateDecision(GateVerdict.OPEN if f == g == frames else GateVerdict.CLOSED, f, g)
            for f, g in zip(fwd.tolist(), bwd.tolist())]


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

    One cycle check covers the batch, but each clip is gated independently;
    clips whose gate closes pass through bit-identically. An inactive gate
    fuses every clip and leaves the check to the first read of its indices.
    Returns (output volume, per-clip decisions).
    """
    emb = squeeze(volume)
    filtered = recursion(emb, params)
    if not gate_active:
        pair = emb.data, filtered.data
        check = functools.cache(lambda: cycle_consistent(*pair))
        decisions = [GateDecision(GateVerdict.INACTIVE, pending=(check, clip))
                     for clip in range(len(pair[0]))]
        return fuse(volume, filtered, mode), decisions
    decisions = cycle_consistent(emb.data, filtered.data)
    fused = fuse(volume, filtered, mode)
    mask = np.array([d.fused for d in decisions], dtype=bool)
    if mask.all():
        return fused, decisions
    return tt.select_clips(mask, fused, volume), decisions
