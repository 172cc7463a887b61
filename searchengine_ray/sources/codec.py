"""Deterministic image codec + perceptual hash (pure numpy/zlib).

The container has no PIL/libjpeg, so — per the build charter — the
*decode step* is a deterministic stand-in codec while all Ray-side
plumbing (binary columns, batch sizing, actor signatures, schemas) is
real.  Formats mirror the ``input_hint`` ``fmt`` column:

* ``bmp``  — raw RGB, uncompressed (lossless)
* ``png``  — raw RGB, zlib-compressed (lossless)
* ``jpeg`` — RGB quantized to multiples of 4 then zlib-compressed
  (lossy; max per-channel error 2 → PSNR ≈ 47 dB, above the 40 dB
  invariant floor)

Layout: ``magic(4s) | w(int32 LE) | h(int32 LE) | payload``.

``phash64`` is a classic 8×8 average-hash over the grayscale
downsample — the payload-level analog of the reference's MD5 page
identity (``SearchEngine.h:213-223``); exact-duplicate pixels ⇒ equal
phash, used by the phash-dedup stage (SURVEY.md §2.7).
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache

import numpy as np

_MAGIC = {"bmp": b"FBMP", "png": b"FPNG", "jpeg": b"FJPG"}
_FMT_OF = {v: k for k, v in _MAGIC.items()}
_JPEG_Q = 4


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    """pixels: (h, w, 3) uint8 → encoded bytes."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    head = _MAGIC[fmt] + struct.pack("<ii", w, h)
    if fmt == "bmp":
        return head + pixels.tobytes()
    if fmt == "png":
        return head + zlib.compress(pixels.tobytes(), 6)
    if fmt == "jpeg":
        q = (pixels.astype(np.int16) // _JPEG_Q) * _JPEG_Q + _JPEG_Q // 2
        return head + zlib.compress(np.clip(q, 0, 255).astype(np.uint8).tobytes(), 6)
    raise ValueError(f"unknown fmt {fmt!r}")


def decode_image(data) -> tuple[np.ndarray, str]:
    """encoded bytes (or any buffer, e.g. a zero-copy ``pa.Buffer``)
    → ((h, w, 3) uint8 pixels, fmt).  No intermediate byte copies: the
    payload window is a memoryview; bmp pixels alias the input buffer."""
    view = memoryview(data)
    magic, (w, h) = bytes(view[:4]), struct.unpack_from("<ii", view, 4)
    fmt = _FMT_OF.get(magic)
    if fmt is None:
        raise ValueError(f"bad magic {magic!r}")
    payload = view[12:]
    if fmt != "bmp":
        payload = zlib.decompress(payload)
    return np.frombuffer(payload, np.uint8).reshape(h, w, 3), fmt


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


_GRAY_W = np.array([0.299, 0.587, 0.114], np.float64)


@lru_cache(maxsize=1024)
def _tiles(h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Box-downsample geometry for an (h, w) image: the 8 row and 8
    column tile starts (almost equal tiles) and the clamped 8×8 tile
    areas.  Images come in few sizes, so each is computed once."""
    ys = (np.arange(8) * h) // 8
    xs = (np.arange(8) * w) // 8
    areas = np.outer(np.diff(np.r_[ys, h]), np.diff(np.r_[xs, w]))
    return ys, xs, np.maximum(areas, 1)


def phash64(pixels: np.ndarray) -> int:
    """8×8 average-hash of the grayscale downsample → signed int64.

    Deterministic, vector-friendly; exact-duplicate payloads collide.
    Tile sums run directly on the uint8 pixels via two
    ``np.add.reduceat(..., dtype=int64)`` passes — exact integer
    channel sums, grayscale-weighted only at the 8×8×3 tile level.  No
    image-sized float temporaries: under a saturated multi-core fetch
    pool the old per-pixel float32/float64 casts (~1 MB of writes per
    192-256 px image) were pure memory-bandwidth tax.  Same bits as
    the per-pixel formulation (weighting and tile-averaging commute;
    verified over the synth corpus in tests).
    """
    h, w = pixels.shape[:2]
    if h < 8 or w < 8:  # degenerate tiles — rare tiny images
        pixels = np.pad(
            pixels, ((0, max(0, 8 - h)), (0, max(0, 8 - w)), (0, 0))
        )
        h, w = pixels.shape[:2]
    ys, xs, areas = _tiles(h, w)
    rows = np.add.reduceat(pixels, ys, axis=0, dtype=np.int64)
    sums = np.add.reduceat(rows, xs, axis=1)  # (8, 8, 3) exact sums
    cells = (sums @ _GRAY_W) / areas
    bits = (cells > cells.mean()).ravel()
    val = int.from_bytes(np.packbits(bits).tobytes(), "big")
    return val - (1 << 64) if val >= (1 << 63) else val  # as signed int64


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise Hamming distance between int64 phash arrays."""
    x = (a.astype(np.int64) ^ b.astype(np.int64)).astype(np.uint64)
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
