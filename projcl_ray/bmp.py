"""Pure-Python BMP codec (Windows DIB), implemented from the public
BITMAPFILEHEADER/BITMAPINFOHEADER layout. Fully vectorized — BMP stores
raw pixels, so decode is a reshape + channel shuffle.

Scope:
- decode: BITMAPINFOHEADER (and the larger V4/V5 headers, which embed it),
  bit depths 8 (palette), 24 and 32, BI_RGB or BI_BITFIELDS with the
  standard BGRA masks, bottom-up and top-down rows, 4-byte row padding.
  RLE compression is rejected with a clear error (rare in the wild).
- no encoder: no system path writes BMP. The 24-bit writer that makes
  test and fixture files lives in tests/codec_writers.py.
"""

from __future__ import annotations

import struct

import numpy as np

from ._corrupt import corrupt_guard


@corrupt_guard("BMP")
def decode_bmp(buf: bytes) -> np.ndarray:
    """BMP bytes → (h, w, 4) uint8 RGBA."""
    if buf[:2] != b"BM":
        raise ValueError("not a BMP (no BM signature)")
    _sig, _size, _r1, _r2, data_off = struct.unpack_from("<2sIHHI", buf, 0)
    (hdr_size,) = struct.unpack_from("<I", buf, 14)
    if hdr_size < 40:
        raise NotImplementedError("BITMAPCOREHEADER (OS/2) BMP unsupported")
    _, w, h, _planes, bpp, compression, _img_size, _, _, clr_used, _ = \
        struct.unpack_from("<IiiHHIIiiII", buf, 14)
    top_down = h < 0
    h = abs(h)
    if compression not in (0, 3):  # BI_RGB / BI_BITFIELDS
        raise NotImplementedError(f"BMP compression {compression} unsupported")
    if bpp not in (8, 24, 32):
        raise NotImplementedError(f"{bpp}-bit BMP unsupported")

    palette = None
    if bpp == 8:
        n = clr_used or 256
        pal_off = 14 + hdr_size + (16 if compression == 3 else 0)
        palette = np.frombuffer(buf, np.uint8, n * 4, pal_off).reshape(n, 4)

    stride = (w * bpp // 8 + 3) & ~3
    raw = np.frombuffer(buf, np.uint8, stride * h, data_off).reshape(h, stride)
    if not top_down:
        raw = raw[::-1]
    out = np.empty((h, w, 4), np.uint8)
    if bpp == 8:
        idx = raw[:, :w]
        out[..., :3] = palette[np.minimum(idx, len(palette) - 1)][..., 2::-1]
        out[..., 3] = 255
    elif bpp == 24:
        bgr = raw[:, : w * 3].reshape(h, w, 3)
        out[..., :3] = bgr[..., ::-1]
        out[..., 3] = 255
    else:  # 32-bit BGRA (BI_RGB treats the 4th byte as alpha-or-ignored)
        bgra = raw[:, : w * 4].reshape(h, w, 4)
        out[..., 0] = bgra[..., 2]
        out[..., 1] = bgra[..., 1]
        out[..., 2] = bgra[..., 0]
        a = bgra[..., 3]
        # BI_RGB files often leave the 4th byte zero meaning opaque
        out[..., 3] = 255 if compression == 0 and not a.any() else a
    return out
