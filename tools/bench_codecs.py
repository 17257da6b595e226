"""Single-core throughput of the in-repo pure-Python codecs.

Regenerates BENCH/codec_throughput_r{N}.json: best-of-REPS wall time per
codec direction as MB/s of RAW (decoded RGB) payload. The package's writers
(baseline JPEG, deflate TIFF) encode and decode a seeded raster; PNG, GIF,
BMP, progressive JPEG and LZW TIFF decode checked-in streams (the gate's
corpora and the fuzz seeds, FIXTURES.md §8).

Usage: PYTHONPATH=. python tools/bench_codecs.py [out.json]
"""
from __future__ import annotations

import json
import sys
import time

import numpy as np

from projcl_ray import bmp, fastcodec, gif, jpeg, png, tiff
from projcl_ray.images import read_fixture

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


def _corpus(name: str, fmt: str | None = None):
    """A checked-in corpus's streams (``fmt`` rows only) and RGB payload MB."""
    rows = [r for r in read_fixture(name).to_pylist()
            if fmt is None or r["fmt"] == fmt]
    return [r["bytes"] for r in rows], sum(r["w"] * r["h"] * 3 for r in rows) / 1e6


def main(out_path: str) -> None:
    res: dict[str, dict] = {}
    img = _image(256)
    raw_mb = img.nbytes / 1e6

    def record(name, dec_fn, bufs, payload_mb, enc_s=None, cfast=False):
        """Time the decode of ``bufs`` with the pure-Python loops (under
        ``fastcodec.DISABLED``); ``enc_s`` is the encode time of a writer
        the package keeps. ``cfast`` adds a ``<name>_cfast`` row timed
        with the C twins (the encoders have none) when a compiler exists.
        JPEG rows also time the decode tail alone (``tail_MBps``)."""
        coefs = ([jpeg._decode_coefficients(b) for b in bufs]
                 if dec_fn is jpeg.decode_jpeg else None)

        def decode_row():
            t = _best(lambda: [dec_fn(b) for b in bufs])[1]
            row = {"dec_MBps": round(payload_mb / t, 2)}
            if coefs is not None:
                t = _best(lambda: [jpeg._decode_tail(*c) for c in coefs])[1]
                row["tail_MBps"] = round(payload_mb / t, 2)
            return row

        size = {"encoded_bytes": sum(len(b) for b in bufs)}
        enc = {} if enc_s is None else {"enc_MBps": round(payload_mb / enc_s, 2)}
        res[name] = {**enc, **decode_row(), **size}
        print(f"{name:26s} {res[name]}")
        fastcodec.DISABLED = False
        if cfast and fastcodec.lib() is not None:
            res[name + "_cfast"] = {**decode_row(), **size}
            print(f"{name + '_cfast':26s} {res[name + '_cfast']}")
        fastcodec.DISABLED = True

    fastcodec.DISABLED = True
    # the writers the package keeps: encode, then decode, the 256px raster
    for name, enc_fn, dec_fn, cfast in (
            ("jpeg_q90", lambda: jpeg.encode_jpeg(img, quality=90),
             jpeg.decode_jpeg, True),
            ("tiff_deflate_pred2",
             lambda: tiff.encode_tiff(img, predictor=2),
             tiff.decode_tiff, False)):
        buf, te = _best(enc_fn)
        record(name, dec_fn, [buf], raw_mb, te, cfast)
    # LZW TIFF has no writer in the package: decode the fuzz corpus's seed
    lzw = next(r["bytes"] for r in read_fixture("fuzz_seeds").to_pylist()
               if r["name"] == "tiff")
    h, w = tiff.decode_tiff(lzw).shape[:2]
    record("tiff_lzw", tiff.decode_tiff, [lzw], h * w * 3 / 1e6, cfast=True)
    # the formats the package only reads: decode the gate's coded corpora
    record("png_ingest", png.decode_png, *_corpus("png_ingest"), cfast=True)
    record("jpeg_progressive_ingest", jpeg.decode_jpeg,
           *_corpus("jpeg_progressive_ingest"), cfast=True)
    record("gif_ingest", gif.decode_gif, *_corpus("gif_bmp_ingest", "gif"),
           cfast=True)
    record("bmp_ingest", bmp.decode_bmp, *_corpus("gif_bmp_ingest", "bmp"))

    fastcodec.DISABLED = False

    out = {
        "metric": ("single-core codec throughput (in-repo pure-Python "
                   "codecs, MB/s of raw payload)"),
        "codecs": res,
        "note": ("regenerated by tools/bench_codecs.py; best-of-%d per "
                 "direction on a 256px synthetic raster (jpeg_q90, "
                 "tiff_deflate_pred2), the checked-in 48x32 LZW TIFF fuzz "
                 "seed (tiff_lzw) or a checked-in 24-image corpus "
                 "(*_ingest)" % REPS),
    }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH/codec_throughput_r5.json")
