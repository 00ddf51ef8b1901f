"""Raw planar YUV420P (I420) reading and writing.

Frames are 8-bit only.  Dimensions always come from the manifest, never
from the file size (raw YUV carries no header); the file size is only
checked for consistency.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import TruncatedFileError, ValidationError

_HEAP_BLOCK = 4 << 20  # bytes: above any band's or leaf's temporaries at 2160p


def check_clip_id(clip_id):
    """Reject a clip id that would corrupt a CSV row or a curve file name."""
    if not (isinstance(clip_id, str) and clip_id) or any(c in clip_id for c in ",/\r\n"):
        raise ValidationError(f"clip_id {clip_id!r}: need a non-empty string without , / CR LF")


@dataclass(frozen=True)
class VideoClip:
    """A raw 4:2:0 clip as declared by a manifest entry."""

    clip_id: str
    path: str
    width: int
    height: int
    fps: float
    frame_count: int
    pixel_format: str = "yuv420p"

    def __post_init__(self):
        check_clip_id(self.clip_id)
        if self.width <= 0 or self.height <= 0 or self.width % 2 or self.height % 2:
            raise ValidationError(
                f"{self.clip_id}: dimensions must be even and positive, "
                f"got {self.width}x{self.height}"
            )
        if self.frame_count < 2:
            raise ValidationError(f"{self.clip_id}: frame_count must be >= 2")
        if not (self.fps > 0 and math.isfinite(self.fps)):
            raise ValidationError(
                f"{self.clip_id}: fps must be positive and finite, got {self.fps}"
            )
        if self.pixel_format.lower() != "yuv420p":
            raise ValidationError(f"{self.clip_id}: only yuv420p supported")

    @property
    def frame_bytes(self):
        return self.width * self.height * 3 // 2

    @property
    def duration_seconds(self):
        return self.frame_count / self.fps


def read_frames(clip, rows=False):
    """Yield (luma, cb, cr) uint8 planes for every frame of the clip, or
    with `rows=True` a `PlaneRows` reader of each plane.

    Chroma planes are (height/2, width/2).  Each plane is a new read-only
    array that owns its memory, so a plane kept by the caller holds no
    other plane.  The readers read nothing until asked and stay valid
    until the generator closes.  A file too short for a frame, chroma
    included, raises TruncatedFileError naming that frame's index.
    """
    if not os.path.isfile(clip.path):
        raise ValidationError(f"file not found: {clip.path}")
    w, h = clip.width, clip.height
    expected = clip.frame_count * clip.frame_bytes
    actual = os.path.getsize(clip.path)
    if actual > expected:
        raise ValidationError(
            f"{clip.path}: file size {actual} exceeds the {expected} bytes of the "
            f"manifest's {clip.frame_count} frames of {w}x{h} I420"
        )
    if rows:
        _keep_temporaries_on_heap()
    shapes = ((h, w), (h // 2, w // 2), (h // 2, w // 2))
    offsets = (0, w * h, w * h + w * h // 4)
    with open(clip.path, "rb") as f:
        for i in range(clip.frame_count):
            # decided from the size, so readers that may never read a
            # short chroma plane raise at its frame too
            if actual < (i + 1) * clip.frame_bytes:
                raise TruncatedFileError(clip.path, i)
            start = i * clip.frame_bytes
            readers = tuple(PlaneRows(f, start + offset, shape, clip.path, i)
                            for offset, shape in zip(offsets, shapes))
            # no local name holds a plane, so the generator keeps none of
            # the last frame while it reads the next
            yield readers if rows else tuple(reader[:] for reader in readers)


@functools.cache
def _keep_temporaries_on_heap():
    """Have glibc's malloc serve the row readers' bands and the kernels'
    temporaries from its heap, once per process.

    With readers no plane is allocated, so none is freed; the kernels
    then allocate and free up to about 1 MB per band or leaf, hundreds
    of times per 2160p frame.  glibc starts with a 128 kB mmap
    threshold: a larger block is a new mapping whose pages fault in on
    first touch, and a free heap top is trimmed, so SI and CF took about
    twice as long per call.  Freeing a mapped block raises the mmap
    threshold to its size and the trim threshold to twice that, for the
    rest of the process; this frees one of `_HEAP_BLOCK` bytes, never
    touched, so it adds nothing to the resident set.
    """
    np.empty(_HEAP_BLOCK, dtype=np.uint8)


class PlaneRows:
    """One uint8 plane of a clip's open file, read a range of rows at a time.

    `rows[top:end]` reads rows top..end-1, clipped as a slice of an array
    of `shape` would be, into a new read-only array that owns its memory;
    it may be asked for again and reads the file again.  A file that has
    shrunk since `read_frames` checked its size raises TruncatedFileError
    naming this plane's frame.
    """

    dtype = np.dtype(np.uint8)
    ndim = 2

    def __init__(self, f, offset, shape, path, frame_index):
        self._f = f
        self._offset = offset
        self.shape = shape
        self._path = path
        self._frame_index = frame_index

    @property
    def size(self):
        return self.shape[0] * self.shape[1]

    def __getitem__(self, rows):
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError(f"a plane reader takes a range of rows, got {rows!r}")
        top, end, _ = rows.indices(self.shape[0])
        band = np.empty((max(end - top, 0), self.shape[1]), dtype=np.uint8)
        start = self._offset + top * self.shape[1]
        if band.size and os.preadv(self._f.fileno(), [band], start) < band.size:
            raise TruncatedFileError(self._path, self._frame_index)
        band.flags.writeable = False
        return band


def write_frames(f, frames):
    """Write (luma, cb, cr) uint8 triples to the binary file `f` as I420."""
    for frame in frames:
        for plane in frame:
            f.write(np.ascontiguousarray(plane, dtype=np.uint8))

