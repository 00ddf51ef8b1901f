import subprocess
import sys

import numpy as np
import pytest

from ladderlab.errors import TruncatedFileError, ValidationError
from ladderlab.media_io import (
    PlaneRows,
    VideoClip,
    read_frames,
    write_frames,
)
from test_cold_path import child_env


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


def random_clip(make_clip, seed, frames=2, height=6, width=8):
    rng = np.random.default_rng(seed)
    return make_clip([(rng.integers(0, 256, (height, width)),
                       rng.integers(0, 256, (height // 2, width // 2)),
                       rng.integers(0, 256, (height // 2, width // 2))) for _ in range(frames)])


def assert_owned_and_read_only(plane):
    # a kept plane or band holds no other plane's bytes
    assert plane.dtype == np.uint8
    assert plane.base is None and plane.flags.owndata
    assert plane.flags.c_contiguous
    assert not plane.flags.writeable
    with pytest.raises(ValueError):
        plane[0, 0] = 1


def test_planes_own_their_memory_and_are_read_only(make_clip):
    clip = random_clip(make_clip, 1)
    frames = list(read_frames(clip))
    assert len(frames) == 2
    for frame in frames:
        for plane in frame:
            assert_owned_and_read_only(plane)


def test_row_readers_read_the_planes_rows(make_clip):
    clip = random_clip(make_clip, 2, frames=3)
    frames = read_frames(clip, rows=True)
    readers = []
    for frame, planes in zip(frames, read_frames(clip)):
        readers.append((frame, planes))
        for reader, plane in zip(frame, planes):
            assert isinstance(reader, PlaneRows)
            assert reader.shape == plane.shape and reader.size == plane.size
            assert reader.dtype == np.uint8 and reader.ndim == 2
            # slices are clipped as an array's are, and may be asked again
            for rows in (slice(None), slice(1, 3), slice(2, 99), slice(-2, None),
                         slice(3, 1), slice(1, 3), slice(None, None, 1)):
                band = reader[rows]
                assert np.array_equal(band, plane[rows]) and band.shape == plane[rows].shape
                if band.size:
                    assert_owned_and_read_only(band)
        # the previous frames' readers still read their own rows after
        # the next frame is yielded
        for old, old_planes in readers:
            for reader, plane in zip(old, old_planes):
                assert np.array_equal(reader[:], plane)
    for rows in (0, slice(0, 4, 2), (slice(None), 0)):
        with pytest.raises(TypeError, match="range of rows"):
            readers[0][0][0][rows]


def test_row_readers_refuse_to_read_once_the_generator_closes(make_clip):
    frames = read_frames(random_clip(make_clip, 3), rows=True)
    luma = next(frames)[0]
    frames.close()
    with pytest.raises(ValueError):
        luma[0:1]


# Counts glibc's new mappings for a 1 MB allocation in a fresh process,
# after row readers start if asked; prints "none" where the C library
# has no mallinfo2.
_HEAP_CHILD = """
import ctypes, sys
import numpy as np
from ladderlab.media_io import VideoClip, read_frames

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    sys.exit(print("none"))
libc.mallinfo2.restype = MallInfo2
if sys.argv[2] == "rows":
    next(read_frames(VideoClip("c", sys.argv[1], 64, 32, 30.0, 2), rows=True))
before = libc.mallinfo2().hblks
block = np.empty(1 << 20, dtype=np.uint8)
print(libc.mallinfo2().hblks - before)
"""


def test_row_readers_keep_temporaries_on_the_heap(make_clip):
    # readers free no plane, so the process would keep glibc's 128 kB
    # mmap threshold and map each band's temporaries anew
    clip = make_clip([(np.zeros((32, 64)), np.zeros((16, 32)), np.zeros((16, 32)))] * 2)

    def new_mappings(mode):
        return subprocess.run([sys.executable, "-c", _HEAP_CHILD, clip.path, mode],
                              env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True).stdout.strip()

    if new_mappings("none") != "1":
        pytest.skip("the C library maps no 1 MB block in a fresh process")
    assert new_mappings("rows") == "0"


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
        # row readers, which may never read the chroma, raise at the same frame
        for frames in (read_frames(bad), read_frames(bad, rows=True)):
            for _ in range(frame_index):
                next(frames)
            with pytest.raises(TruncatedFileError) as exc:
                next(frames)
            assert exc.value.frame_index == frame_index, length
            assert str(exc.value) == f"{short}: truncated read at frame index {frame_index}"


@pytest.mark.parametrize("plane", [0, 1, 2], ids=["luma", "cb", "cr"])
def test_row_reader_of_a_file_that_shrank_raises_at_its_frame(make_clip, plane):
    clip = random_clip(make_clip, 4, frames=3)
    want = list(read_frames(clip))
    frames = read_frames(clip, rows=True)
    first, second = next(frames), next(frames)
    # cut frame 1's plane after its first row, once the size was checked
    start, row = ((0, 8), (48, 4), (60, 4))[plane]
    with open(clip.path, "r+b") as f:
        f.truncate(clip.frame_bytes + start + row + 1)
    assert np.array_equal(first[plane][:], want[0][plane])
    assert np.array_equal(second[plane][0:1], want[1][plane][0:1])
    with pytest.raises(TruncatedFileError) as exc:
        second[plane][:]
    assert exc.value.frame_index == 1
    assert str(exc.value) == f"{clip.path}: truncated read at frame index 1"
    # the next frame's readers raise at their own frame
    with pytest.raises(TruncatedFileError) as exc:
        next(frames)[0][:]
    assert exc.value.frame_index == 2


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

