"""Raw planar YUV420P (I420) reading and writing.

Frames are 8-bit only.  Dimensions always come from the manifest, never
from the file size (raw YUV carries no header); the file size is only
checked for consistency.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import TruncatedFileError, ValidationError


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


def read_frames(clip, chroma=True):
    """Yield (luma, cb, cr) uint8 planes for every frame of the clip, or
    with `chroma=False` each frame's luma plane alone.

    Chroma planes are (height/2, width/2); a luma-only read seeks past
    them.  Each plane is a new read-only array that owns its memory, so a
    plane kept by the caller holds no other plane.  A file too short for
    a frame, chroma included, raises TruncatedFileError naming that
    frame's index.
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
    shapes = ((h, w), (h // 2, w // 2), (h // 2, w // 2))
    with open(clip.path, "rb") as f:
        for i in range(clip.frame_count):
            # decided from the size, so a luma-only read that would skip
            # a short chroma plane raises at its frame too
            if actual < (i + 1) * clip.frame_bytes:
                raise TruncatedFileError(clip.path, i)
            f.seek(i * clip.frame_bytes)
            # no local name holds a plane, so the generator keeps none of
            # the last frame while it reads the next
            if chroma:
                yield tuple(_read_plane(f, shape, clip.path, i) for shape in shapes)
            else:
                yield _read_plane(f, shapes[0], clip.path, i)


def _read_plane(f, shape, path, frame_index):
    plane = np.empty(shape, dtype=np.uint8)
    if f.readinto(plane) < plane.size:
        raise TruncatedFileError(path, frame_index)
    plane.flags.writeable = False
    return plane


def write_frames(f, frames):
    """Write (luma, cb, cr) uint8 triples to the binary file `f` as I420."""
    for frame in frames:
        for plane in frame:
            f.write(np.ascontiguousarray(plane, dtype=np.uint8))

