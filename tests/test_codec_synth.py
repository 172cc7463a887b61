import hashlib

import numpy as np
import pyarrow as pa
import pytest

from searchengine_ray.sources import codec, synth
from searchengine_ray.sources.codec import (
    decode_image,
    encode_image,
    hamming64,
    phash64,
    phash64_batch,
    psnr,
)


def _pixels(seed=0, h=32, w=48):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)


def test_lossless_roundtrip():
    px = _pixels(1)
    for fmt in ("bmp", "png"):
        dec, f = decode_image(encode_image(px, fmt))
        assert f == fmt
        assert (dec == px).all()


def test_jpeg_lossy_psnr_floor():
    px = _pixels(2)
    dec, f = decode_image(encode_image(px, "jpeg"))
    assert f == "jpeg"
    assert psnr(px, dec) >= 40.0  # the north-rule invariant floor
    assert not (dec == px).all()  # actually lossy


def test_phash_dup_and_distance():
    a = _pixels(3)
    b = a.copy()
    assert phash64(a) == phash64(b)
    c = _pixels(4)
    d = hamming64(np.array([phash64(a)]), np.array([phash64(c)]))
    assert d[0] > 0


def _phash_spec(pixels):
    """The average hash spelled out per pixel in float64: zero-pad to at
    least 8×8, grayscale every pixel, average each of the 8×8 tiles
    (tile i spans rows ``i*h//8`` to ``(i+1)*h//8``, columns likewise),
    set a tile's bit when its mean is above the mean of the 64 tile
    means, row-major and most significant bit first, read as a signed
    int64."""
    h, w = pixels.shape[:2]
    hp, wp = max(h, 8), max(w, 8)
    px = np.zeros((hp, wp, 3))
    px[:h, :w] = pixels
    gray = 0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]
    cells = [
        gray[i * hp // 8 : (i + 1) * hp // 8, j * wp // 8 : (j + 1) * wp // 8].mean()
        for i in range(8)
        for j in range(8)
    ]
    mean = sum(cells) / 64
    val = 0
    for c in cells:
        val = 2 * val + int(c > mean)
    return val - (1 << 64) if val >= 1 << 63 else val


def _assert_phash_spec(images):
    expect = [_phash_spec(p) for p in images]
    assert [phash64(p) for p in images] == expect
    got = phash64_batch(images)
    assert got.dtype == np.int64 and got.tolist() == expect


def test_phash_equals_per_pixel_spec_on_synth_corpus():
    images = []
    for style in ("gradient", "speckle"):
        tbl, _ = synth.gen_images(80, seed=5, sizes=(16, 32), base_style=style)
        images += [decode_image(b)[0] for b in tbl["bytes"].to_pylist()]
    assert len({p.shape for p in images}) == 4
    # flat images: every tile ties with the mean, so no bit is set
    flat = [np.full((16, 16, 3), v, np.uint8) for v in (0, 200)]
    assert phash64_batch(flat).tolist() == [0, 0]
    _assert_phash_spec(images + flat)


@pytest.mark.parametrize(
    "shapes",
    [
        [(3, 20), (20, 5), (1, 1), (7, 7)],  # h or w below 8
        [(13, 21), (100, 37), (9, 8), (250, 199)],  # not divisible by 8
        [(16, 16), (5, 40), (16, 16), (33, 17), (5, 40), (16, 16)],  # mixed
        [(24, 40)],  # a batch of one
    ],
    ids=["below-8", "not-divisible", "mixed", "one"],
)
def test_phash_equals_per_pixel_spec_on_edge_shapes(shapes):
    rng = np.random.default_rng(len(shapes))
    _assert_phash_spec(
        [rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8) for h, w in shapes]
    )


def test_phash_batch_splits_stacks_by_bytes(monkeypatch):
    """A shape group larger than ``PHASH_BATCH_BYTES`` is hashed a few
    images per stack, with the same bits; an image over the bound is a
    stack of its own."""
    monkeypatch.setattr(codec, "PHASH_BATCH_BYTES", 2 * 16 * 16 * 3)
    rng = np.random.default_rng(11)
    shapes = [(16, 16)] * 5 + [(40, 24), (16, 16), (40, 24), (3, 9)]
    _assert_phash_spec(
        [rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8) for h, w in shapes]
    )


def test_phash_tile_sums_past_float32_exactness():
    """2056 px tiles are 257×257, so a tile's channel sum can pass 2**24,
    where float32 no longer holds every integer; ``_tiles`` then sums
    in float64.  A white image with 2 pixels one below white in half
    the tiles (a checkerboard) and 3 in the others has tile sums
    16842493 and 16842492: float32 rounds both to 16842492 and would
    clear every bit."""
    assert codec._tiles(2056, 2056)[0].dtype == np.float64
    assert codec._tiles(2048, 2048)[0].dtype == np.float32
    img = np.full((2056, 2056, 3), 255, np.uint8)
    for i in range(8):
        for j in range(8):
            img[257 * i, 257 * j : 257 * j + 2 + (i + j) % 2] = 254
    assert img[:257, :257].sum(dtype=np.int64) // 3 == 16842493 > 1 << 24
    assert np.float32(16842493) == np.float32(16842492)
    assert phash64(img) == _phash_spec(img) != 0
    _assert_phash_spec([img])


def test_phash_batch_of_none_is_empty():
    got = phash64_batch([])
    assert got.dtype == np.int64 and got.shape == (0,)


def test_gen_images_truth_consistency():
    images, truth = synth.gen_images(60, seed=42)
    assert images.schema.equals(synth.IMAGE_SCHEMA)
    shas = truth["pixels_sha256"].to_pylist()
    psnrs = truth["psnr_db"].to_pylist()
    for i in range(len(images)):
        dec, fmt = decode_image(images["bytes"][i].as_py())
        assert fmt == images["fmt"][i].as_py()
        assert hashlib.sha256(dec.tobytes()).hexdigest() == shas[i]
        assert phash64(dec) == images["phash"][i].as_py()
        assert psnrs[i] >= 40.0
    # some exact duplicates exist (dedup fixture requirement)
    ph = images["phash"].to_pylist()
    assert len(set(ph)) < len(ph)


def test_gen_web_deterministic():
    s1 = synth.gen_web(300, 50, seed=7)
    s2 = synth.gen_web(300, 50, seed=7)
    assert s1.urls == s2.urls
    assert (s1.status == s2.status).all()
    assert s1.links_flat_url == s2.links_flat_url
    # lookup roundtrip
    idx = s1.lookup(s1.url_hash[:20])
    assert (idx == np.arange(20)).all()
    assert s1.lookup(np.array([123456789], np.uint64))[0] == -1


def test_lookup_equals_dict_lookup():
    store = synth.gen_web(2000, 50, seed=11)
    rng = np.random.default_rng(0)
    known = rng.choice(store.url_hash, size=3000)  # repeats included
    unknown = rng.integers(0, 2**63, size=500, dtype=np.uint64)
    needles = np.concatenate([known, unknown, store.url_hash[:5]])
    rng.shuffle(needles)
    row_of: dict[int, int] = {}
    for i, h in enumerate(store.url_hash.tolist()):
        row_of.setdefault(h, i)
    got = store.lookup(needles)
    assert got.dtype == np.int64
    assert got.tolist() == [row_of.get(h, -1) for h in needles.tolist()]
    assert -1 in got.tolist()
    assert store.lookup(np.array([], np.uint64)).tolist() == []
