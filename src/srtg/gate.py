"""Squeeze, recurrent filtering and the cyclic-consistency temporal gate.

The unit squeezes an activation volume into a per-frame channel embedding,
filters it with a stacked two-layer LSTM, and fuses the filtered stream back
into the volume. When the gate is active, fusion happens only if the squeezed
and filtered embeddings are cycle-consistent: every frame's soft nearest
neighbor in the other embedding must resolve back to the same temporal index,
in both directions. The verdict is a hard, per-clip routing decision, taken
inside the one fuse op: a clip that fails passes through unchanged and sends
the LSTM no gradient. An inactive gate always fuses and runs no check. Each
call returns one `GateRecord`: the verdicts and the two embeddings, from which
the match indices can be recomputed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from srtg import tensor as tt
from srtg.tensor import ShapeError, Tensor

__all__ = [
    "GateVerdict",
    "GateRecord",
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

    @property
    def fused(self) -> bool:
        return self is not GateVerdict.CLOSED


@dataclass(frozen=True)
class GateRecord:
    """One unit's gate state for a batch: a verdict per clip, the squeezed
    (`emb`) and LSTM-filtered (`filtered`) (N, T, C) embeddings the check
    compares, and an active gate's routing check's (fwd, bwd) indices
    (None for an inactive gate, which runs no check). Iterating it yields
    the verdicts."""

    verdicts: tuple[GateVerdict, ...]
    emb: Tensor
    filtered: Tensor
    indices: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self):
        return len(self.verdicts)

    def __iter__(self):
        return iter(self.verdicts)

    def match_indices(self):
        """(fwd, bwd) of the check of the two embeddings: (N, T) arrays,
        fwd[n, t] being where frame t of `emb` resolved inside `filtered`,
        bwd the reverse direction. An active gate's come from its routing
        check; an inactive gate's are checked afresh on every read."""
        if self.indices is not None:
            return self.indices
        return cycle_consistent(self.emb.data, self.filtered.data)[1:]


class LstmLayerParams(NamedTuple):
    """Gate weights of shape (C, C_in + C) acting on the concatenation [h, x],
    then the gate biases; the field order is the draw order."""

    w_f: Tensor
    w_i: Tensor
    w_c: Tensor
    w_a: Tensor
    b_f: Tensor
    b_i: Tensor
    b_c: Tensor
    b_a: Tensor


@dataclass
class LstmParams:
    layers: list[LstmLayerParams] = field(default_factory=list)

    def named(self, prefix: str):
        for li, layer in enumerate(self.layers):
            for name, value in zip(layer._fields, layer):
                yield f"{prefix}.layer{li}.{name}", value


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

    return LstmParams([LstmLayerParams(w(), w(), w(), w(), b(1.0), b(0.0), b(0.0), b(0.0))
                       for _ in range(num_layers)])


def squeeze(volume: Tensor) -> Tensor:
    """(N, C, T, H, W) -> (N, T, C) spatial average embedding."""
    return tt.spatial_avg_pool(volume)


def recursion(embedding: Tensor, params: LstmParams) -> Tensor:
    """Run the stacked LSTM over (N, T, C) as one `tt.lstm` tape node; output is
    the last layer's hidden sequence, same shape as the input."""
    return tt.lstm(embedding, params.layers)


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
    sums to 1. The max is subtracted first, so a far query never divides 0
    by 0."""
    v = -_squared_distances("soft_match_weights", query, reference)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def cycle_consistent(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check that every frame of each clip's embedding resolves back to its
    own index through the other embedding. Takes an equal (N, T, C) pair and
    returns (passed, fwd, bwd): an (N,) mask of the clips whose 2T checks all
    pass, and the (N, T) indices where each frame of `a` resolved inside `b`
    (fwd) and each frame of `b` inside `a` (bwd)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 3:
        raise ShapeError(f"cycle_consistent: embeddings must be an equal (N, T, C) pair, "
                         f"got {a.shape} and {b.shape}")
    fwd = nearest_frame_index(soft_nearest_neighbor(a, b), b)
    bwd = nearest_frame_index(soft_nearest_neighbor(b, a), a)
    frames = np.arange(a.shape[1])
    return ((fwd == frames) & (bwd == frames)).all(axis=1), fwd, bwd


def fuse(main: Tensor, recurrent: Tensor, clips) -> Tensor:
    """Broadcast the sigmoid of the (N, T, C) recurrent stream over the
    spatial plane and scale the clips of the (N,) bool mask `clips` by it.
    The other clips pass through unchanged."""
    return tt.fuse_embedding(main, tt.sigmoid(recurrent), clips)


def srtg_unit(volume: Tensor, params: LstmParams, gate_active: bool = True):
    """Full squeeze -> recursion -> gate -> fuse unit.

    One cycle check covers the batch, but each clip is gated independently:
    the one fuse op fuses the clips that pass and copies the others through
    bit-identically. An inactive gate runs no check and passes an all-open
    mask.
    Returns (output volume, the unit's GateRecord).
    """
    emb = squeeze(volume)
    filtered = recursion(emb, params)
    if gate_active:
        passed, fwd, bwd = cycle_consistent(emb.data, filtered.data)
        fwd.flags.writeable = bwd.flags.writeable = False  # the record is frozen
        record = GateRecord(tuple(GateVerdict.OPEN if p else GateVerdict.CLOSED
                                  for p in passed), emb, filtered, (fwd, bwd))
    else:
        passed = np.ones(len(emb.data), bool)
        record = GateRecord((GateVerdict.INACTIVE,) * len(passed), emb, filtered)
    return fuse(volume, filtered, passed), record
