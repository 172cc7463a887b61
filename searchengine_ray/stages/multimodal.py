"""Multimodal (image/audio/video) actor-pool stages.

Opaque ``binary`` payload columns + typed metadata, processed by
actor-pool ``map_batches`` stages (state — codecs/models — built once
per actor in ``__init__``).  The container ships no PIL/ffmpeg, so,
per the build charter, decode paths that would need them are STUBBED
behind clearly-marked gates while the Ray-side plumbing (schemas,
batch sizes, actor signatures, output layout) is real and tested:

* images: fully real via the deterministic repo codec
  (``sources/codec.py``) — decode, resize, feature-extract.
* audio/video: ``NotImplementedError`` unless the deterministic fake
  container format (FAUD/FVID — raw numpy + header) is used.
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.codec import decode_image, phash64


def resize_nn(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize (pure numpy, deterministic)."""
    h, w = pixels.shape[:2]
    ys = (np.arange(out_h) * h) // out_h
    xs = (np.arange(out_w) * w) // out_w
    return pixels[ys][:, xs]


class ImageDecodeResize:
    """Actor stage: decode binary image column → resized thumbnail +
    features.  batch_format='pyarrow' in, arrow out (binary columns
    never round-trip through pandas object dtype)."""

    def __init__(self, out_h: int = 8, out_w: int = 8):
        self.out_h, self.out_w = out_h, out_w

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        # zero-copy payload windows (as in FetchDecode): no per-row
        # boxing into Python bytes
        blobs = batch["bytes"].combine_chunks()
        thumbs, means, phs, ok = [], [], [], []
        for i in range(len(batch)):
            try:
                px, _ = decode_image(blobs[i].as_buffer())
                t = resize_nn(px, self.out_h, self.out_w)
                thumbs.append(t.tobytes())
                means.append(round(float(px.mean()), 4))
                phs.append(phash64(px))
                ok.append(True)
            except Exception:
                thumbs.append(b"")
                means.append(0.0)
                phs.append(0)
                ok.append(False)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "thumb": pa.array(thumbs, pa.binary()),
                "mean_pixel": pa.array(means, pa.float64()),
                "phash": pa.array(phs, pa.int64()),
                "decode_ok": pa.array(ok, pa.bool_()),
            }
        )


class AudioFeatures:
    """Actor stage for audio binary columns.

    STUB: real audio decode needs libsndfile/ffmpeg (absent here).
    Accepts only the deterministic fake 'FAUD' container
    (``b'FAUD' | n(int32) | float32 samples``); anything else raises
    NotImplementedError so the gap is explicit, not silent.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, rms, n = [], [], []
        for i in range(len(batch)):
            data = batch["audio"][i].as_py()
            if data[:4] != b"FAUD":
                raise NotImplementedError(
                    "real audio codecs unavailable in this container; "
                    "only the FAUD fake container is supported"
                )
            (cnt,) = struct.unpack("<i", data[4:8])
            samples = np.frombuffer(data[8 : 8 + 4 * cnt], np.float32)
            ids.append(batch["audio_id"][i].as_py())
            rms.append(float(np.sqrt(np.mean(samples**2))) if cnt else 0.0)
            n.append(cnt)
        return pa.table(
            {
                "audio_id": pa.array(ids, pa.string()),
                "n_samples": pa.array(n, pa.int32()),
                "rms": pa.array(rms, pa.float64()),
            }
        )


class VideoFrameSample:
    """Actor stage: sample every k-th frame of the fake 'FVID'
    container (``b'FVID' | nframes,h,w (int32) | raw RGB frames``).
    Real video decode is stubbed the same way as audio."""

    def __init__(self, every: int = 5):
        self.every = every

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids, frame_idx, frames = [], [], []
        for i in range(len(batch)):
            data = batch["video"][i].as_py()
            if data[:4] != b"FVID":
                raise NotImplementedError(
                    "real video codecs unavailable in this container; "
                    "only the FVID fake container is supported"
                )
            nf, h, w = struct.unpack("<iii", data[4:16])
            sz = h * w * 3
            for f in range(0, nf, self.every):
                vids.append(batch["video_id"][i].as_py())
                frame_idx.append(f)
                frames.append(data[16 + f * sz : 16 + (f + 1) * sz])
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(frame_idx, pa.int32()),
                "frame": pa.array(frames, pa.binary()),
            }
        )


def make_fake_audio(n_samples: int, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(n_samples).astype(np.float32)
    return b"FAUD" + struct.pack("<i", n_samples) + s.tobytes()


def make_fake_video(nframes: int, h: int, w: int, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(nframes, h, w, 3), dtype=np.uint8)
    return b"FVID" + struct.pack("<iii", nframes, h, w) + frames.tobytes()
