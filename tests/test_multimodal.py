"""Multimodal actor-stage tests: the real image decode/resize path."""

import numpy as np
import pyarrow as pa

from searchengine_ray.sources.synth import gen_images
from searchengine_ray.stages.multimodal import ImageDecodeResize, resize_nn


def test_resize_nn():
    px = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)
    out = resize_nn(px, 2, 3)
    assert out.shape == (2, 3, 3)
    assert (out[0, 0] == px[0, 0]).all()


def test_image_stage_via_ray(ray_session):
    import ray

    images, _ = gen_images(60, seed=42)
    ds = ray.data.from_arrow(images.select(["image_id", "bytes"]))
    out = ds.map_batches(
        ImageDecodeResize, batch_format="pyarrow", concurrency=2, batch_size=16
    ).to_pandas()
    assert len(out) == 60
    assert out["decode_ok"].all()
    assert (out["thumb"].str.len() == 8 * 8 * 3).all()


def test_image_stage_bad_bytes():
    stage = ImageDecodeResize()
    batch = pa.table(
        {"image_id": ["x"], "bytes": [b"not an image"]}
    )
    out = stage(batch)
    assert out["decode_ok"].to_pylist() == [False]
