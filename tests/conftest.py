import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ladderlab.media_io import VideoClip, write_frames


@pytest.fixture
def make_clip(tmp_path):
    """Write an I420 file from uint8 plane triples and return a VideoClip."""

    counter = {"n": 0}

    def _make(frames, fps=60.0, clip_id=None):
        counter["n"] += 1
        clip_id = clip_id or f"clip{counter['n']}"
        path = tmp_path / f"{clip_id}.yuv"
        frames = [
            (
                np.asarray(y, dtype=np.uint8),
                np.asarray(cb, dtype=np.uint8),
                np.asarray(cr, dtype=np.uint8),
            )
            for y, cb, cr in frames
        ]
        with open(path, "wb") as f:
            write_frames(f, frames)
        h, w = frames[0][0].shape
        return VideoClip(
            clip_id=clip_id,
            path=str(path),
            width=w,
            height=h,
            fps=fps,
            frame_count=len(frames),
        )

    return _make


def gray_frames(lumas):
    """Pair each luma plane with flat 128 chroma planes."""
    out = []
    for y in lumas:
        y = np.asarray(y, dtype=np.uint8)
        c = np.full((y.shape[0] // 2, y.shape[1] // 2), 128, dtype=np.uint8)
        out.append((y, c, c))
    return out
