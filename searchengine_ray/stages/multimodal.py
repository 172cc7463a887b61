"""Multimodal (image) actor-pool stages.

Opaque ``binary`` payload columns + typed metadata, processed by
actor-pool ``map_batches`` stages (state — codecs/models — built once
per actor in ``__init__``).  Images are fully real via the
deterministic repo codec (``sources/codec.py``) — decode, resize,
feature-extract.
"""

from __future__ import annotations


import numpy as np
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
