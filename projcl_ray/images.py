"""The `images` table: codecs, perceptual hash, deterministic synthesis.

Authoritative schema (BASELINE.json ``input_hint``):
``(image_id: string, bytes: binary, w: int32, h: int32, fmt: string,
caption: string, phash: int64)`` plus our georeferencing sidecar columns
``(lon0: float64, lat0: float64, px_deg: float64, src_datum: string)``
(FIXTURES.md §1) needed to warp/tile.

Codec policy: ``fmt="raw"`` (uncompressed RGBA bytes, h·w·4 uint8, C-order)
plus png, jpeg, gif, bmp and tiff, each decoded by exactly one in-repo codec
(:mod:`projcl_ray.png`: zlib+numpy, lossless; :mod:`projcl_ray.jpeg`:
baseline+progressive JFIF, libjpeg's integer IDCT; hot loops in the C
accelerator of :mod:`projcl_ray.fastcodec`). The package encodes only what
the system writes: raw tiles, baseline JPEG and deflate GeoTIFF. No PIL/cv2
anywhere, so output bytes are the same in every environment and every
decoder sits behind the ``_corrupt.corrupt_guard`` error contract.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

CHANNELS = 4  # RGBA, matching the reference's float4 pixel model


def decode_image(buf: bytes, w: int, h: int, fmt: str) -> np.ndarray:
    """bytes → (h, w, 4) uint8. ``raw`` is the first-class format
    (uncompressed RGBA); the compressed formats decode via their in-repo
    codec."""
    if fmt == "raw":
        return np.frombuffer(buf, dtype=np.uint8).reshape(h, w, CHANNELS)
    if fmt == "rawrgb":  # 3-channel raw → opaque RGBA (reference accepts any
        rgb = np.frombuffer(buf, dtype=np.uint8).reshape(h, w, 3)  # channel order)
        out = np.empty((h, w, CHANNELS), np.uint8)
        out[..., :3] = rgb
        out[..., 3] = 255
        return out
    if fmt == "rawl":  # single-channel raw (e.g. density tiles) → gray RGBA
        lum = np.frombuffer(buf, dtype=np.uint8).reshape(h, w)
        out = np.empty((h, w, CHANNELS), np.uint8)
        out[..., 0] = out[..., 1] = out[..., 2] = lum
        out[..., 3] = 255
        return out
    if fmt == "png":
        from . import png as _png

        return _png.decode_png(buf)
    if fmt == "jpeg":
        from . import jpeg as _jpeg

        return _jpeg.decode_jpeg(buf)
    if fmt == "gif":
        from . import gif as _gif

        return _gif.decode_gif(buf)
    if fmt == "bmp":
        from . import bmp as _bmp

        return _bmp.decode_bmp(buf)
    if fmt == "tiff":
        from . import tiff as _tiff

        return _tiff.decode_tiff(buf)
    raise ValueError(f"unknown image format {fmt!r}")


def encode_image(arr: np.ndarray, fmt: str = "raw", **jpeg_kw) -> bytes:
    """(h, w, 4) uint8 → bytes in a format the system writes: ``raw``
    (tiles) or ``jpeg`` (:func:`projcl_ray.jpeg.encode_jpeg`; ``quality=``,
    ``subsample=`` — lossy, alpha dropped). GeoTIFF export calls
    :func:`projcl_ray.tiff.encode_tiff` itself. Nothing here writes png,
    gif or bmp: those are ingest formats (decode only)."""
    if fmt == "raw":
        return np.ascontiguousarray(arr, dtype=np.uint8).tobytes()
    if fmt == "jpeg":
        from . import jpeg as _jpeg

        return _jpeg.encode_jpeg(np.ascontiguousarray(arr, dtype=np.uint8), **jpeg_kw)
    raise NotImplementedError(f"no encoder for image format {fmt!r}")


def read_fixture(name: str) -> pa.Table:
    """The checked-in coded corpus ``fixtures/<name>.parquet`` (FIXTURES.md §8)."""
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.parquet"))


def phash64(arr: np.ndarray) -> int:
    """Deterministic 64-bit average-hash of decoded pixels: 8×8 block means of
    the luma plane, bit i set when block i ≥ global mean. Signed int64."""
    gray = arr[..., :3].astype(np.float64).mean(axis=2)
    h, w = gray.shape
    # block-mean resize to 8×8 (pad to multiples of 8 by edge-clamping)
    yi = (np.arange(8)[:, None] * h) // 8
    yj = ((np.arange(8)[:, None] + 1) * h) // 8
    xi = (np.arange(8)[None, :] * w) // 8
    xj = ((np.arange(8)[None, :] + 1) * w) // 8
    cum = np.zeros((h + 1, w + 1))
    cum[1:, 1:] = gray.cumsum(0).cumsum(1)
    sums = cum[yj, xj] - cum[yi, xj] - cum[yj, xi] + cum[yi, xi]
    areas = (yj - yi) * (xj - xi)
    blocks = sums / areas
    bits = (blocks >= blocks.mean()).ravel()
    val = 0
    for i, b in enumerate(bits):
        if b:
            val |= 1 << i
    # map to signed int64
    return val - (1 << 64) if val >= (1 << 63) else val


def synth_pixels(seed: int, w: int, h: int) -> np.ndarray:
    """Deterministic RGBA test raster: gradient + checker + seeded noise
    (FIXTURES.md §1)."""
    yy, xx = np.mgrid[0:h, 0:w]
    r = (xx * 255) // max(w - 1, 1)
    g = (yy * 255) // max(h - 1, 1)
    checker = (((xx // 8) + (yy // 8)) % 2) * 80
    rng = np.random.default_rng(42 + seed)
    noise = rng.integers(0, 40, size=(h, w))
    img = np.empty((h, w, CHANNELS), dtype=np.uint8)
    img[..., 0] = np.clip(r + noise, 0, 255)
    img[..., 1] = np.clip(g + checker, 0, 255)
    img[..., 2] = np.clip((r + g) // 2 + noise, 0, 255)
    img[..., 3] = 255
    return img


_SIZES = (64, 96, 128)
_PXDEG = (0.01, 0.02, 0.05)


def synth_images_table(n_rows: int, seed: int = 42, dup_every: int = 97,
                       hot_centers: int = 32, sizes: tuple = _SIZES) -> pa.Table:
    """Deterministic `images` table (Arrow) with Zipf-ish spatial clustering
    over ``hot_centers`` hot spots for skew/salting tests.

    Every ~dup_every-th row duplicates the pixels of the previous row (same
    phash) to create exact-dedup cases.
    """
    rng = np.random.default_rng(seed)
    centers_lon = rng.uniform(-55, 55, hot_centers)
    centers_lat = rng.uniform(-35, 75, hot_centers)
    # Zipf-like weights over centers
    weights = 1.0 / np.arange(1, hot_centers + 1) ** 1.1
    weights /= weights.sum()

    ids, bufs, ws, hs, fmts, captions, phashes = [], [], [], [], [], [], []
    lon0s, lat0s, pxds, datums_col = [], [], [], []
    prev = None
    for i in range(n_rows):
        w = sizes[i % len(sizes)]
        h = sizes[(i // len(sizes) + i) % len(sizes)]
        if dup_every and i % dup_every == dup_every - 1 and prev is not None:
            img = prev  # exact duplicate pixels (dedup case)
            w, h = img.shape[1], img.shape[0]
        else:
            img = synth_pixels(i, w, h)
        prev = img
        c = int(rng.choice(hot_centers, p=weights))
        lon0 = float(np.clip(centers_lon[c] + rng.normal(0, 2.0), -60, 60))
        lat0 = float(np.clip(centers_lat[c] + rng.normal(0, 2.0), -38, 79))
        px_deg = _PXDEG[i % len(_PXDEG)]
        ids.append(f"img{i:08d}")
        bufs.append(encode_image(img))
        ws.append(w)
        hs.append(h)
        fmts.append("raw")
        captions.append(f"synthetic scene {i} at ({lon0:.3f},{lat0:.3f})")
        phashes.append(phash64(img))
        lon0s.append(lon0)
        lat0s.append(lat0)
        pxds.append(px_deg)
        datums_col.append("WGS_84" if i % 7 else "NAD_27")

    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(bufs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(phashes, pa.int64()),
            "lon0": pa.array(lon0s, pa.float64()),
            "lat0": pa.array(lat0s, pa.float64()),
            "px_deg": pa.array(pxds, pa.float64()),
            "src_datum": pa.array(datums_col, pa.string()),
        }
    )
