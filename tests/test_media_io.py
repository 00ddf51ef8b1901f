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
    with open(out, "wb") as f:
        write_frames(f, got)
    assert out.read_bytes() == open(clip.path, "rb").read()


def test_planes_own_their_memory_and_are_read_only(make_clip):
    rng = np.random.default_rng(1)
    clip = make_clip([(rng.integers(0, 256, (6, 8)), rng.integers(0, 256, (3, 4)),
                       rng.integers(0, 256, (3, 4))) for _ in range(2)])
    lumas = list(read_frames(clip, chroma=False))
    assert len(lumas) == 2
    for frame, luma in zip(read_frames(clip), lumas):
        assert luma.shape == (6, 8) and np.array_equal(luma, frame[0])
        for plane in (*frame, luma):
            # a kept plane holds no other plane's bytes
            assert plane.base is None and plane.flags.owndata
            assert plane.flags.c_contiguous
            assert not plane.flags.writeable
            with pytest.raises(ValueError):
                plane[0, 0] = 1


def test_truncated_file_names_frame_index(make_clip, tmp_path):
    clip = make_clip([(np.zeros((4, 4)), np.zeros((2, 2)), np.zeros((2, 2)))] * 2)
    data = open(clip.path, "rb").read()
    short = tmp_path / "short.yuv"
    bad = VideoClip(clip.clip_id, str(short), 4, 4, 60.0, 2)
    # a frame is 24 bytes: luma 0..15, Cb 16..19, Cr 20..23
    for length, frame_index in [
        (0, 0), (7, 0), (15, 0),  # inside frame 0's luma
        (24 + 12, 1),  # inside frame 1's luma
        (24 + 17, 1),  # inside frame 1's Cb
        (24 + 22, 1),  # inside frame 1's Cr
    ]:
        short.write_bytes(data[:length])
        # a luma-only read, which skips the chroma, raises at the same frame
        for frames in (read_frames(bad), read_frames(bad, chroma=False)):
            for _ in range(frame_index):
                next(frames)
            with pytest.raises(TruncatedFileError) as exc:
                next(frames)
            assert exc.value.frame_index == frame_index, length
            assert str(exc.value) == f"{short}: truncated read at frame index {frame_index}"


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

