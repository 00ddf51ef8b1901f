import numpy as np
import pytest

from ladderlab.errors import TruncatedFileError, ValidationError
from ladderlab.media_io import (
    VideoClip,
    read_frames,
    write_frames,
)


def test_round_trip_identity(make_clip, tmp_path):
    rng = np.random.default_rng(0)
    frames = [
        (
            rng.integers(0, 256, (4, 4), dtype=np.uint8),
            rng.integers(0, 256, (2, 2), dtype=np.uint8),
            rng.integers(0, 256, (2, 2), dtype=np.uint8),
        )
        for _ in range(2)
    ]
    clip = make_clip(frames)
    got = list(read_frames(clip))
    assert len(got) == 2
    for (y, cb, cr), (ey, ecb, ecr) in zip(got, frames):
        assert np.array_equal(y, ey)
        assert np.array_equal(cb, ecb)
        assert np.array_equal(cr, ecr)
    # re-serializing reproduces the input bytes
    out = tmp_path / "copy.yuv"
    write_frames(out, got)
    assert out.read_bytes() == open(clip.path, "rb").read()


def test_truncated_file_names_frame_index(make_clip, tmp_path):
    frames = [(np.zeros((4, 4)), np.zeros((2, 2)), np.zeros((2, 2)))] * 2
    clip = make_clip(frames)
    data = open(clip.path, "rb").read()
    short = tmp_path / "short.yuv"
    short.write_bytes(data[: len(data) * 3 // 4])  # 1.5 frames
    bad = VideoClip(clip.clip_id, str(short), 4, 4, 60.0, 2)
    with pytest.raises(TruncatedFileError) as exc:
        list(read_frames(bad))
    assert exc.value.frame_index == 1


def test_odd_dimensions_rejected():
    with pytest.raises(ValidationError):
        VideoClip("c", "x.yuv", 5, 4, 60.0, 2)


def test_frame_count_minimum():
    with pytest.raises(ValidationError):
        VideoClip("c", "x.yuv", 4, 4, 60.0, 1)


def test_chroma_dimensions_large(make_clip):
    # dimension contract at a non-trivial size (scaled-down stand-in for UHD)
    frames = [
        (np.zeros((96, 160)), np.zeros((48, 80)), np.zeros((48, 80)))
        for _ in range(3)
    ]
    clip = make_clip(frames)
    triples = list(read_frames(clip))
    assert len(triples) == 3
    assert triples[0][0].shape == (96, 160)
    assert triples[0][1].shape == (48, 80)
    assert triples[0][2].shape == (48, 80)

