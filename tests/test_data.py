"""Synthetic data generation and dataset file format tests."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srtg.config import ConfigError, SyntheticSpec
from srtg.data import (
    Dataset,
    DatasetFormatError,
    generate,
    load_dataset,
    save_dataset,
)
from oracles import split_oracle


def _spec(**kw):
    base = dict(num_classes=2, family="reversed_pair", channels=1, frames=8,
                height=16, width=16, noise=0.05, train_clips=8, val_clips=4, seed=3)
    base.update(kw)
    return SyntheticSpec(**base)


def test_translate_noise_free_frames_are_rolled_copies():
    spec = _spec(family="translate", noise=0.0, num_classes=4)
    train, _ = generate(spec)
    from srtg.data import _DIRECTIONS

    for idx in range(len(train)):
        clip = train.clips[idx]
        vy, vx = _DIRECTIONS[train.labels[idx] % len(_DIRECTIONS)]
        for t in range(spec.frames):
            np.testing.assert_array_equal(
                clip[0, t], np.roll(clip[0, 0], (t * vy, t * vx), axis=(0, 1))
            )


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("family,classes", [("translate", 16), ("oscillate", 3),
                                            ("reversed_pair", 2)])
def test_generate_matches_frame_loop_oracle(family, classes, noise, channels):
    # odd canvas, both translate speeds, both reversed_pair speeds and labels
    spec = _spec(family=family, num_classes=classes, noise=noise, channels=channels,
                 frames=5, height=13, width=9, train_clips=16, val_clips=5, seed=21)
    for split_id, ds in enumerate(generate(spec)):
        clips, labels = split_oracle(spec, split_id, len(ds))
        np.testing.assert_array_equal(ds.clips, clips)
        np.testing.assert_array_equal(ds.labels, labels)


def _content(ds):
    return ds.clips.tobytes(), ds.labels.tobytes()


def test_same_seed_bit_identical():
    a_train, a_val = generate(_spec())
    b_train, b_val = generate(_spec())
    assert _content(a_train) == _content(b_train)
    assert _content(a_val) == _content(b_val)


def test_different_seed_differs():
    a, _ = generate(_spec())
    b, _ = generate(_spec(seed=4))
    assert _content(a) != _content(b)


def test_reversed_pair_frame_multisets_match_counterpart():
    spec = _spec()
    train, _ = generate(spec)
    from srtg.data import _make_clip

    for idx in range(len(train)):
        if train.labels[idx] != 1:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0, idx]))
        counterpart = _make_clip(spec, 0, rng)
        clip = train.clips[idx]
        np.testing.assert_array_equal(clip, counterpart[:, ::-1])
        got = np.sort(clip.reshape(spec.frames, -1), axis=0)
        want = np.sort(counterpart.reshape(spec.frames, -1), axis=0)
        np.testing.assert_array_equal(got, want)


def test_reversed_pair_balanced_labels():
    train, val = generate(_spec(train_clips=10, val_clips=6))
    assert (train.labels == 0).sum() == 5
    assert (val.labels == 1).sum() == 3


def test_oscillate_family_generates():
    train, _ = generate(_spec(family="oscillate", num_classes=3, train_clips=6))
    assert train.clips.shape == (6, 1, 8, 16, 16)
    assert set(train.labels) == {0, 1, 2}


def test_degenerate_shapes_rejected():
    with pytest.raises(ConfigError):
        _spec(height=2)
    with pytest.raises(ConfigError):
        _spec(frames=0)
    with pytest.raises(ConfigError):
        _spec(family="reversed_pair", num_classes=3)


def test_roundtrip_preserves_bits(tmp_path):
    train, _ = generate(_spec())
    path = tmp_path / "train.bin"
    save_dataset(path, train)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.clips, train.clips)
    np.testing.assert_array_equal(loaded.labels, train.labels)
    assert loaded.meta["family"] == "reversed_pair"


def test_load_keeps_one_copy_as_read_only_views(tmp_path):
    train, _ = generate(_spec(train_clips=64))
    path = tmp_path / "d.bin"
    save_dataset(path, train)
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size
    assert not loaded.clips.flags.writeable and not loaded.labels.flags.writeable


def test_save_is_deterministic(tmp_path):
    train, _ = generate(_spec())
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(p1, train)
    save_dataset(p2, train)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_bytes_match_the_documented_format(tmp_path):
    # README: the SRTGDATA magic, version 1 and the header length as <IQ, the
    # JSON header with sorted keys, then the <f8 clips and the <i8 labels
    clips = np.arange(12, dtype=np.float64).reshape(2, 1, 2, 1, 3) / 7 - 0.5
    ds = Dataset(clips, np.array([1, 0], dtype=np.int64), {"seed": 4, "family": "translate"})
    header = json.dumps({"meta": {"family": "translate", "seed": 4}, "dtype": "float64",
                         "count": 2, "shape": [1, 2, 1, 3]}, sort_keys=True).encode()
    expected = (b"SRTGDATA" + struct.pack("<IQ", 1, len(header)) + header
                + struct.pack("<12d", *clips.ravel()) + struct.pack("<2q", 1, 0))
    path = tmp_path / "tiny.bin"
    save_dataset(path, ds)
    assert path.read_bytes() == expected


def test_truncated_file_rejected(tmp_path):
    train, _ = generate(_spec())
    path = tmp_path / "train.bin"
    save_dataset(path, train)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 17])
    with pytest.raises(DatasetFormatError, match=r"truncated or padded payload \("):
        load_dataset(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTADATASET" * 10)
    with pytest.raises(DatasetFormatError, match=r"\(bad magic\)$"):
        load_dataset(path)


def test_magic_only_file_rejected(tmp_path):
    path = tmp_path / "magic.bin"
    path.write_bytes(b"SRTGDATA")
    with pytest.raises(DatasetFormatError, match="truncated header"):
        load_dataset(path)


@pytest.mark.parametrize("missing", ["count", "shape"])
def test_header_without_count_or_shape_rejected(tmp_path, missing):
    train, _ = generate(_spec())
    path = tmp_path / "train.bin"
    save_dataset(path, train)
    raw = path.read_bytes()
    hlen = struct.unpack_from("<IQ", raw, 8)[1]
    header = json.loads(raw[20 : 20 + hlen])
    del header[missing]
    hjson = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<IQ", 1, len(hjson)) + hjson + raw[20 + hlen :])
    with pytest.raises(DatasetFormatError, match="count and shape"):
        load_dataset(path)


_POSITIVE = "must be positive"


@pytest.mark.parametrize("count, shape, match", [
    (-1, [-1], _POSITIVE), (0, [1, 8, 16, 16], _POSITIVE), (-2, [1, -8, 16, 16], _POSITIVE),
    (1, [1, 0, 16, 16], _POSITIVE), (2, [8, 16, 16], _POSITIVE),
    (2, [1, 1, 8, 16, 16], _POSITIVE), (1, [2**32, 2**32, 1, 1], "payload"),
], ids=["negative_pair", "zero_count", "negative_count_and_extent", "zero_extent",
        "shape_3_long", "shape_5_long", "shape_product_wraps_int64"])
def test_header_with_nonpositive_or_wrong_rank_shape_rejected(tmp_path, count, shape, match):
    # the payload is sized to match count * prod(shape) taken in int64, so
    # only the header values themselves are wrong; 2**64 wraps to 0 there
    hjson = json.dumps({"count": count, "shape": shape, "meta": {}}).encode()
    payload = bytes(8 * max(0, count * int(np.prod(shape)) + count))
    path = tmp_path / "forged.bin"
    path.write_bytes(b"SRTGDATA" + struct.pack("<IQ", 1, len(hjson)) + hjson + payload)
    with pytest.raises(DatasetFormatError, match=match):
        load_dataset(path)


# ---------------------------------------------------------------------------
# loader fuzzing: a damaged file ends in DatasetFormatError, nothing else
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    ds, _ = generate(_spec(height=4, width=4, frames=3, train_clips=2))
    path = tmp_path_factory.mktemp("fuzz") / "train.bin"
    save_dataset(path, ds)
    return path, ds


@pytest.mark.parametrize("key, value", [
    ("count", "2"), ("count", 2.9), ("count", 2.0), ("count", True),
    ("shape", "1344"), ("shape", [1, 3, 4.0, 4]), ("shape", [1, 3, "4", 4]),
    ("shape", [True, 3, 4, 4]),
], ids=["count_string", "count_float", "count_integral_float", "count_bool", "shape_string",
        "shape_float_extent", "shape_string_extent", "shape_bool_extent"])
def test_header_count_and_shape_must_be_json_integers(saved_dataset, key, value):
    # a lenient int() would load each of these: "1344" as this file's shape
    # [1, 3, 4, 4], 2.9 as the count 2
    path, _ = saved_dataset
    raw = path.read_bytes()
    hlen = struct.unpack_from("<IQ", raw, 8)[1]
    header = json.loads(raw[20 : 20 + hlen])
    header[key] = value
    hjson = json.dumps(header).encode()
    forged = path.with_name("typed.bin")
    forged.write_bytes(raw[:8] + struct.pack("<IQ", 1, len(hjson)) + hjson + raw[20 + hlen :])
    with pytest.raises(DatasetFormatError, match="JSON integers"):
        load_dataset(forged)


def test_every_truncation_rejected(saved_dataset):
    path, _ = saved_dataset
    raw = path.read_bytes()
    forged = path.with_name("truncated.bin")
    for cut in range(len(raw)):
        forged.write_bytes(raw[:cut])
        with pytest.raises(DatasetFormatError):
            load_dataset(forged)


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
                 | st.text(max_size=6))
_JSON_VALUES = _JSON_SCALARS | st.lists(_JSON_SCALARS | st.lists(_JSON_SCALARS), max_size=5)


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(["count", "shape"]), value=_JSON_VALUES)
@example(key="count", value=float("inf"))  # int(inf) raises OverflowError
@example(key="shape", value=[1, 3, 4.0, "4"])  # int() of each gives the true shape
def test_fuzz_header_count_or_shape_loads_same_or_rejected(saved_dataset, key, value):
    path, ds = saved_dataset
    raw = path.read_bytes()
    hlen = struct.unpack_from("<IQ", raw, 8)[1]
    header = json.loads(raw[20 : 20 + hlen])
    header[key] = value
    hjson = json.dumps(header).encode()
    forged = path.with_name("header.bin")
    forged.write_bytes(raw[:8] + struct.pack("<IQ", 1, len(hjson)) + hjson + raw[20 + hlen :])
    try:
        loaded = load_dataset(forged)
    except DatasetFormatError:
        return
    assert _content(loaded) == _content(ds)
    assert loaded.clips.shape == ds.clips.shape


@pytest.mark.parametrize("split", ["train_clips", "val_clips"])
def test_empty_split_rejected(split):
    with pytest.raises(ConfigError, match="at least 1"):
        _spec(**{split: 0})


def test_noise_zero_reversal_is_exact_time_mirror():
    spec = _spec(noise=0.0, train_clips=4)
    train, _ = generate(spec)
    fwd = train.clips[train.labels == 0]
    rev = train.clips[train.labels == 1]
    assert fwd.shape[0] == rev.shape[0] == 2
    # reversing a reversed clip gives a forward-style clip again
    for clip in rev:
        again = clip[:, ::-1]
        diffs = np.abs(np.diff(again, axis=1)).sum()
        assert diffs > 0  # genuinely moving


def test_dataset_len():
    train, val = generate(_spec())
    assert len(train) == 8 and len(val) == 4
