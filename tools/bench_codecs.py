"""Single-core throughput of the in-repo pure-Python codecs.

Regenerates BENCH/codec_throughput_r{N}.json. Deterministic synthetic
payloads (seeded numpy), best-of-REPS wall time per codec direction,
throughput reported as MB/s of RAW (decoded) payload so encode and decode
are comparable across codecs.

Usage: PYTHONPATH=. python tools/bench_codecs.py [out.json]
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from projcl_ray import bmp, fastcodec, gif, jpeg, png, tiff

REPS = 3


def _best(fn, *a, **kw):
    best = float("inf")
    out = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        out = fn(*a, **kw)
        best = min(best, time.perf_counter() - t0)
    return out, best


def _image(px: int, seed: int = 7) -> np.ndarray:
    """Natural-ish test raster: smooth gradients + seeded texture."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:px, 0:px].astype(np.float32)
    base = 96 + 64 * np.sin(x / 19.0) + 48 * np.cos(y / 13.0)
    tex = rng.normal(0, 12, (px, px)).astype(np.float32)
    r = np.clip(base + tex, 0, 255)
    g = np.clip(base[::-1] + tex, 0, 255)
    b = np.clip(0.5 * (base + base[::-1]), 0, 255)
    return np.stack([r, g, b], axis=-1).astype(np.uint8)


def main(out_path: str) -> None:
    res: dict[str, dict] = {}
    img = _image(256)
    raw_mb = img.nbytes / 1e6

    def record(name, enc_fn, dec_fn, payload_mb, cfast=False):
        """Time encode and decode with the pure-Python loops (the determinism
        oracles, under PROJCL_NO_FASTCODEC=1); with ``cfast``, add a
        ``<name>_cfast`` row that re-times the decode with the compiled twins
        (projcl_ray/fastcodec.py), when a compiler exists. The encoders have
        no twin. JPEG rows also time the decode tail alone (``tail_MBps``:
        dequantize, IDCT, clamp, upsampling and colour conversion, on the
        coefficients of one decode)."""
        buf, te = _best(enc_fn)
        coefs = jpeg._decode_coefficients(buf) if dec_fn is jpeg.decode_jpeg else None

        def decode_row():
            row = {"dec_MBps": round(payload_mb / _best(dec_fn, buf)[1], 2)}
            if coefs is not None:
                row["tail_MBps"] = round(payload_mb / _best(jpeg._decode_tail, *coefs)[1], 2)
            return row

        res[name] = {"enc_MBps": round(payload_mb / te, 2), **decode_row(),
                     "encoded_bytes": len(buf)}
        print(f"{name:22s} {res[name]}")
        if not cfast or fastcodec.lib() is None:
            return
        os.environ["PROJCL_NO_FASTCODEC"] = ""
        try:
            res[name + "_cfast"] = {**decode_row(), "encoded_bytes": len(buf)}
        finally:
            os.environ["PROJCL_NO_FASTCODEC"] = "1"
        print(f"{name + '_cfast':22s} {res[name + '_cfast']}")

    os.environ["PROJCL_NO_FASTCODEC"] = "1"
    record("png_f4", lambda: png.encode_png(img, filter_type=4),
           png.decode_png, raw_mb, cfast=True)
    record("jpeg_q90", lambda: jpeg.encode_jpeg(img, quality=90),
           jpeg.decode_jpeg, raw_mb, cfast=True)
    record("jpeg_progressive",
           lambda: jpeg.encode_jpeg(img, quality=90, progressive=True),
           jpeg.decode_jpeg, raw_mb, cfast=True)
    # GIF is palette-based: quantize to 4 levels/channel (64 colors), RGBA.
    img64 = ((img >> 6) << 6) + 32
    rgba = np.dstack([img64, np.full(img.shape[:2], 255, np.uint8)])
    record("gif_64col", lambda: gif.encode_gif(rgba), gif.decode_gif, raw_mb,
           cfast=True)
    record("bmp", lambda: bmp.encode_bmp(img), bmp.decode_bmp, raw_mb)
    record("tiff_deflate_pred2",
           lambda: tiff.encode_tiff(img, compression="deflate", predictor=2),
           tiff.decode_tiff, raw_mb)
    record("tiff_lzw", lambda: tiff.encode_tiff(img, compression="lzw"),
           tiff.decode_tiff, raw_mb, cfast=True)

    os.environ.pop("PROJCL_NO_FASTCODEC", None)

    out = {
        "metric": ("single-core codec throughput (in-repo pure-Python "
                   "codecs, MB/s of raw payload)"),
        "codecs": res,
        "note": ("regenerated by tools/bench_codecs.py; best-of-%d per "
                 "direction on a 256px synthetic raster" % REPS),
    }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH/codec_throughput_r5.json")
