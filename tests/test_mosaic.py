"""Tiled-mosaic sampling parity, grid ops, mosaic-warp Ray stage,
fixed-angle geodesic trace, and a real hot-cell salting exercise."""

import numpy as np

from projcl_ray import ops
from projcl_ray.images import decode_image, encode_image, synth_pixels
from projcl_ray.index import cut_tiles
from projcl_ray.proj import ProjParams, prepare
from projcl_ray.warp import (
    SAMPLERS,
    GeoRef,
    WarpSpec,
    default_warp_window,
    mosaic_from_tiles,
    project_grid,
    transform_grid,
    warp_image,
)


def test_mosaic_sampling_matches_whole_image():
    """A 100×70 image cut into 32-px tiles, tile (1, 1) missing, assembles
    to the tiles' full 128×96 extent (not cropped to the image) with the
    missing tile and the padding zero. Across the tile seams that avoid the
    missing tile, every sampler reads it bit-equal to the whole image, and
    anywhere it reads the uint8 mosaic bit-equal to its float32 cast — the
    per-pixel tile arithmetic of the array kernels (pl_sample_*_array)."""
    img = synth_pixels(7, 100, 70)
    m = mosaic_from_tiles(((tx, ty, t) for tx, ty, _, t in cut_tiles(img, 32)
                           if (tx, ty) != (1, 1)), 32)
    assert m.shape == (96, 128, 4) and m.dtype == np.uint8
    want = np.zeros_like(m)
    want[:70, :100] = img
    want[32:64, 32:64] = 0
    np.testing.assert_array_equal(m, want)
    rng = np.random.default_rng(0)
    # rows 0-31 hold no missing tile; x crosses the seams at 32, 64 and 96
    px = rng.uniform(1.5, 96.5, 400).astype(np.float32)
    py = rng.uniform(1.5, 28.5, 400).astype(np.float32)
    # anywhere, edges and outside included
    ax = rng.uniform(-5.0, 133.0, 2000).astype(np.float32)
    ay = rng.uniform(-5.0, 101.0, 2000).astype(np.float32)
    for f in SAMPLERS:
        np.testing.assert_array_equal(SAMPLERS[f](m, px, py), SAMPLERS[f](img, px, py))
        np.testing.assert_array_equal(SAMPLERS[f](m, ax, ay),
                                      SAMPLERS[f](m.astype(np.float32), ax, ay))


def test_transform_and_project_grid():
    gx, gy = np.meshgrid(np.linspace(0, 10, 5), np.linspace(0, 4, 3))
    tx_, ty_ = transform_grid(gx, gy, 2.0, 0.0, 1.0, 0.0, 3.0, -1.0)
    np.testing.assert_allclose(tx_, 2 * gx + 1)
    np.testing.assert_allclose(ty_, 3 * gy - 1)
    p = prepare("mercator", spheroid="SPHERE")
    px_, py_ = project_grid(p, gx, gy)
    ex, ey = p.forward(gx, gy)
    np.testing.assert_array_equal(px_, ex)
    np.testing.assert_array_equal(py_, ey)


def test_warp_tiled_mosaic_stage_matches_direct_warp(ray_session):
    """The mosaic stage's pixels equal a direct warp_image of the whole
    image byte for byte, for the nearest, bilinear and bicubic filters."""
    import pyarrow as pa
    import ray.data as rd

    img = synth_pixels(3, 96, 96)
    georef = GeoRef(10.0, 50.0, 0.01)
    rows = []
    for tx, ty, tidx, tile in cut_tiles(img, 32):
        rows.append(
            {
                "image_id": "imgA", "tile_col": tx, "tile_row": ty, "tile_size": 32,
                "bytes": encode_image(tile), "fmt": "raw", "w": 96, "h": 96,
                "lon0": georef.lon0, "lat0": georef.lat0, "px_deg": georef.px_deg,
            }
        )
    # one block: from_items would make one block, and one sort partition, per tile
    tiles = rd.from_arrow(pa.Table.from_pylist(rows))
    prepped = prepare("mercator", spheroid="WGS_84")
    ox, oy, sx, sy = default_warp_window(prepped, georef, 96, 96)
    for filt in ("nearest", "bilinear", "bicubic"):
        out = ops.warp_tiled_mosaic(tiles, "mercator", ProjParams(spheroid="WGS_84"),
                                    filter=filt).to_pandas()
        assert len(out) == 1
        got = decode_image(out.iloc[0]["bytes"], 96, 96, "raw")
        # direct whole-image warp for comparison
        spec = WarpSpec("mercator", ProjParams(spheroid="WGS_84"), ox, oy, sx, sy, 96, 96,
                        filter=filt)
        direct = np.clip(warp_image(img, georef, spec), 0, 255).astype(np.uint8)
        assert np.array_equal(got, direct), filt


def test_fixed_angle_trace_stage(ray_session):
    import ray.data as rd

    from projcl_ray.geodesic import haversine

    dists = rd.from_items([{"distance_m": float(d)} for d in (1e4, 1e5, 1e6, 5e6)])
    out = ops.forward_geodesic_fixed_angle(dists, 10.0, 20.0, 45.0).to_pandas()
    d = haversine(10.0, 20.0, out["lon2"], out["lat2"])
    np.testing.assert_allclose(d, out["distance_m"], atol=1e-6)
