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
phash, used by the phash-dedup stage (SURVEY.md §2.7).  It is
``phash64_batch`` of one image; the fetch actor hashes a whole chunk's
images in one ``phash64_batch`` call.
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
    """Box-downsample geometry for an (h, w) image, h and w ≥ 8: 0/1
    matrices ``ty`` (8, h) and ``tx`` (8, w) that sum the pixel rows
    and columns of each of the 8×8 almost-equal tiles, and the 64 tile
    areas.  The sums are integers, exact in float32 while a tile's sum
    stays below 2**24 and in float64 beyond.  Images come in few
    sizes, so each is computed once."""
    ye = (np.arange(9) * h) // 8
    xe = (np.arange(9) * w) // 8
    dy, dx = np.diff(ye), np.diff(xe)
    ft = np.float32 if dy.max() * dx.max() * 255 < 1 << 24 else np.float64
    ty = (np.repeat(np.arange(8), dy) == np.arange(8)[:, None]).astype(ft)
    tx = (np.repeat(np.arange(8), dx) == np.arange(8)[:, None]).astype(ft)
    return ty, tx, np.outer(dy, dx).reshape(64).astype(np.float64)


# Pixel bytes per stacked hash: the products' float copy of the stack
# (4x this) stays in cache.  Hashing a whole 400-image chunk in one
# stack held ~5x its pixels (~400 MB at 256 px) and was slower than
# one image at a time there; see CHANGES.md for the timings.
PHASH_BATCH_BYTES = 1 << 18


def phash64_batch(images) -> np.ndarray:
    """8×8 average-hash of each image's grayscale downsample → int64
    array (the hash's 64 bits read as a signed int64), one per image.

    Images of one shape are stacked and hashed together, at most
    ``PHASH_BATCH_BYTES`` of pixels per stack (always at least one
    image); an image with h or w below 8 is zero-padded to 8 first.
    Tile sums are two matrix products with 0/1 tile matrices over the
    stack, exact because they add integers (see ``_tiles``); the
    channels are grayscale-weighted only at the 8×8×3 tile level.  The
    bits equal the per-pixel float64 formulation (grayscale every
    pixel, average each tile, threshold at the mean of the 64 tile
    means) away from float ties; ``tests/test_codec_synth.py`` checks
    that over the synth corpus and the edge shapes.
    """
    out = np.empty(len(images), np.int64)
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(images):
        groups.setdefault(p.shape, []).append(i)
    for (h, w, c), idx in groups.items():
        step = max(1, PHASH_BATCH_BYTES // max(1, h * w * c))
        for s in range(0, len(idx), step):
            sub = idx[s : s + step]
            out[sub] = _phash_stack(np.stack([images[i] for i in sub]))
    return out


def _phash_stack(stack: np.ndarray) -> np.ndarray:
    """``phash64_batch`` of a (k, h, w, 3) uint8 stack."""
    k, h, w = stack.shape[:3]
    if h < 8 or w < 8:  # degenerate tiles — rare tiny images
        pad = ((0, 0), (0, max(0, 8 - h)), (0, max(0, 8 - w)), (0, 0))
        stack = np.pad(stack, pad)
        h, w = stack.shape[1:3]
    ty, tx, areas = _tiles(h, w)
    rows = ty @ stack.reshape(k, h, w * 3).astype(ty.dtype)  # (k, 8, w*3)
    sums = tx @ rows.reshape(k * 8, w, 3)  # (k*8, 8, 3) tile sums
    cells = (sums.astype(np.float64) @ _GRAY_W).reshape(k, 64) / areas
    bits = cells > cells.sum(axis=1, keepdims=True) / 64  # the mean
    return np.packbits(bits, axis=1).view(">i8").ravel()


def phash64(pixels: np.ndarray) -> int:
    """``phash64_batch`` of one (h, w, 3) uint8 image, as a Python int:
    the payload-level identity used by the phash-dedup stage."""
    return int(phash64_batch([pixels])[0])


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise Hamming distance between int64 phash arrays."""
    x = (a.astype(np.int64) ^ b.astype(np.int64)).astype(np.uint64)
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
