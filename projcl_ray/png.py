"""Pure-Python PNG codec (stdlib ``zlib`` + ``struct`` + numpy).

The reference ingests arbitrary images through OpenCL image buffers
(/root/reference/src/projcl_warp.c:68-107); this container ships no image
libraries, so PNG support is implemented from the PNG specification (RFC
2083 / W3C PNG) directly — no PIL/cv2 required. This makes ``fmt="png"`` a
first-class ingest format for the warp/tile pipelines.

Scope (any real-world PNG):
- decode: bit depths 1/2/4 (gray + palette), 8 and 16 (all color types the
  spec allows them for); color types 0 (gray), 2 (RGB), 3 (palette), 4
  (gray+alpha), 6 (RGBA); all five scanline filters (None/Sub/Up/Average/
  Paeth); tRNS transparency for palette and for gray/RGB colorkey (matched
  at native bit depth); BOTH non-interlaced and Adam7-interlaced streams
  (each pass unfiltered independently per the spec). Output is always
  (h, w, 4) uint8 RGBA — the engine's pixel model; 16-bit samples reduce by
  round(v/257) (exact for the 257·x replicated values 8-bit encoders emit).
- no encoder: no system path writes PNG. The writer that makes test and
  fixture files (every filter, Adam7, depth 8 and 16) lives in
  tests/codec_writers.py.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ._corrupt import corrupt_guard

_SIG = b"\x89PNG\r\n\x1a\n"
# channels per color type
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}
# bit depths the spec allows per color type
_DEPTHS = {0: (1, 2, 4, 8, 16), 2: (8, 16), 3: (1, 2, 4, 8),
           4: (8, 16), 6: (8, 16)}
# Adam7 pass layout: (x_start, y_start, x_step, y_step)
_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))


def _unfilter(stream: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse PNG scanline filtering in ONE vectorized anti-diagonal
    wavefront. Every filter predicts from the same three neighbors —
    left (x−bpp), up (y−1) and up-left — so rec[y][col] only depends on
    cells with smaller y+col: all cells on a diagonal compute together
    (np.select on the row's filter type), h+cols diagonals total instead
    of a per-pixel Python loop. Arithmetic is int16 with &255 stores,
    the spec's exact mod-256 semantics.

    Delegates to the compiled row-sequential version when available
    (projcl_ray/fastcodec.py — no per-diagonal numpy overhead); this body
    is the fallback and parity oracle."""
    from . import fastcodec

    got = fastcodec.png_unfilter(stream, h, stride, bpp)
    if got is not None:
        return got
    rows = stream.reshape(h, stride + 1)
    ftypes = rows[:, 0].astype(np.int16)
    if np.any(ftypes > 4):
        bad = int(ftypes[ftypes > 4][0])
        raise ValueError(f"corrupt PNG: filter {bad}")
    cols = stride // bpp
    raw3 = rows[:, 1:].reshape(h, cols, bpp).astype(np.int16)
    # R[y+1, c+1] = rec[y][c]; the zero pad row/col supplies the spec's
    # zero left/up/up-left neighbors at the image edges
    R = np.zeros((h + 1, cols + 1, bpp), np.int16)
    ys_all = np.arange(h)
    for d in range(h + cols - 1):
        ys = ys_all[max(0, d - cols + 1): min(h, d + 1)]
        cs = d - ys
        left = R[ys + 1, cs]
        up = R[ys, cs + 1]
        upleft = R[ys, cs]
        f = ftypes[ys][:, None]
        p = left + up - upleft
        pa = np.abs(p - left)
        pb = np.abs(p - up)
        pc = np.abs(p - upleft)
        paeth = np.where((pa <= pb) & (pa <= pc), left,
                         np.where(pb <= pc, up, upleft))
        pred = np.select(
            [f == 0, f == 1, f == 2, f == 3],
            [np.int16(0), left, up, (left + up) >> 1],
            default=paeth,
        )
        R[ys + 1, cs + 1] = (raw3[ys, cs] + pred) & 255
    return R[1:, 1:].astype(np.uint8).reshape(h, stride)


def _unpack_scanbytes(rows: np.ndarray, pw: int, ch: int,
                      depth: int) -> np.ndarray:
    """(ph, stride) unfiltered scanline bytes → (ph, pw, ch) samples at
    native precision (uint16 for depth 16, else uint8; sub-byte depths are
    raw sample values — scaling/palette lookup happens later)."""
    ph = rows.shape[0]
    if depth == 8:
        return rows[:, : pw * ch].reshape(ph, pw, ch)
    if depth == 16:
        b = rows[:, : pw * ch * 2].reshape(ph, pw * ch, 2).astype(np.uint16)
        return ((b[..., 0] << 8) | b[..., 1]).reshape(ph, pw, ch)
    # 1/2/4-bit (ch == 1): samples packed MSB-first within each byte
    bits = np.unpackbits(rows, axis=1)[:, : pw * depth]
    weights = 1 << np.arange(depth - 1, -1, -1)
    vals = (bits.reshape(ph, pw, depth) * weights).sum(axis=2)
    return vals.astype(np.uint8).reshape(ph, pw, 1)


def _decode_pixels(stream: bytes, w: int, h: int, ch: int, depth: int,
                   interlace: int) -> np.ndarray:
    """Decompressed IDAT stream → (h, w, ch) samples at native precision,
    handling both the single sequential pass and the 7 Adam7 sub-images
    (each pass is filtered independently; empty passes contribute no
    bytes)."""
    bpp = max(1, ch * depth // 8)
    data = np.frombuffer(stream, np.uint8)
    layout = _ADAM7 if interlace else ((0, 0, 1, 1),)
    # total length check BEFORE allocating (h, w) — a lying IHDR must fail
    # as corrupt input, not as a multi-GB allocation attempt
    total = 0
    for xs, ys, xst, yst in layout:
        pw = (w - xs + xst - 1) // xst
        ph = (h - ys + yst - 1) // yst
        if pw > 0 and ph > 0:
            total += ph * ((pw * ch * depth + 7) // 8 + 1)
    if total > len(data):
        raise ValueError("corrupt PNG: wrong IDAT length")
    px = np.zeros((h, w, ch), np.uint16 if depth == 16 else np.uint8)
    off = 0
    for xs, ys, xst, yst in layout:
        pw = (w - xs + xst - 1) // xst
        ph = (h - ys + yst - 1) // yst
        if pw <= 0 or ph <= 0:
            continue
        stride = (pw * ch * depth + 7) // 8
        need = ph * (stride + 1)
        rows = _unfilter(data[off : off + need], ph, stride, bpp)
        off += need
        px[ys::yst, xs::xst] = _unpack_scanbytes(rows, pw, ch, depth)
    if off != len(data):
        raise ValueError("corrupt PNG: wrong IDAT length")
    return px


@corrupt_guard("PNG")
def decode_png(buf: bytes) -> np.ndarray:
    """PNG bytes → (h, w, 4) uint8 RGBA."""
    if buf[:8] != _SIG:
        raise ValueError("not a PNG (bad signature)")
    pos = 8
    ihdr = None
    plte = None
    trns = None
    idat = bytearray()
    while pos < len(buf):
        if pos + 8 > len(buf):
            raise ValueError("corrupt PNG: truncated chunk header")
        (length,) = struct.unpack_from(">I", buf, pos)
        if pos + 12 + length > len(buf):
            raise ValueError("corrupt PNG: truncated chunk")
        tag = buf[pos + 4 : pos + 8]
        payload = buf[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack_from(">I", buf, pos + 8 + length)
        if zlib.crc32(tag + payload) & 0xFFFFFFFF != crc:
            raise ValueError(f"corrupt PNG: bad CRC in {tag!r}")
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"PLTE":
            plte = np.frombuffer(payload, np.uint8).reshape(-1, 3)
        elif tag == b"tRNS":
            trns = payload
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
        # ancillary chunks ignored
    if ihdr is None:
        raise ValueError("corrupt PNG: no IHDR")
    w, h, depth, color, comp, filt, interlace = ihdr
    if color not in _CHANNELS:
        raise NotImplementedError(f"PNG color type {color} unsupported")
    if depth not in _DEPTHS[color]:
        raise ValueError(f"corrupt PNG: depth {depth} invalid for color type {color}")
    if comp != 0 or filt != 0:
        raise ValueError("corrupt PNG: unknown compression/filter method")
    if interlace not in (0, 1):
        raise ValueError(f"corrupt PNG: unknown interlace method {interlace}")
    ch = _CHANNELS[color]
    # cap inflation at the raster the IHDR promises (+1 spare byte so a
    # too-long stream is detectable): a zlib bomb costs at most `exp`
    # bytes of memory, not whatever it inflates to
    exp = 0
    for xs, ys, xst, yst in (_ADAM7 if interlace else ((0, 0, 1, 1),)):
        pw = (w - xs + xst - 1) // xst
        ph = (h - ys + yst - 1) // yst
        if pw > 0 and ph > 0:
            exp += ph * ((pw * ch * depth + 7) // 8 + 1)
    px = _decode_pixels(zlib.decompressobj().decompress(bytes(idat), exp + 1),
                        w, h, ch, depth, interlace)

    # native→8-bit sample reduction: 16-bit rounds by /257; sub-byte gray
    # scales by 255/(2^d−1) (exact: 1→255, 3→85, 15→17); palette indices
    # pass through unscaled.
    def to8(p: np.ndarray) -> np.ndarray:
        if depth == 16:
            return ((p.astype(np.uint32) * 255 + 32767) // 65535).astype(np.uint8)
        if depth < 8 and color != 3:
            return (p * (255 // ((1 << depth) - 1))).astype(np.uint8)
        return p

    keymask = (1 << depth) - 1  # tRNS colorkeys match at native depth
    out = np.empty((h, w, 4), np.uint8)
    if color == 6:  # RGBA
        out[:] = to8(px)
    elif color == 2:  # RGB (+ optional colorkey tRNS)
        out[..., :3] = to8(px)
        out[..., 3] = 255
        if trns is not None and len(trns) >= 6:
            key = np.array(struct.unpack(">HHH", trns[:6]), np.uint16) & keymask
            out[..., 3] = np.where(np.all(px == key[None, None, :], axis=2), 0, 255)
    elif color == 0:  # gray
        g = to8(px)[..., 0]
        out[..., 0] = out[..., 1] = out[..., 2] = g
        out[..., 3] = 255
        if trns is not None and len(trns) >= 2:
            (key,) = struct.unpack(">H", trns[:2])
            out[..., 3] = np.where(px[..., 0] == (key & keymask), 0, 255)
    elif color == 4:  # gray + alpha
        ga = to8(px)
        out[..., 0] = out[..., 1] = out[..., 2] = ga[..., 0]
        out[..., 3] = ga[..., 1]
    elif color == 3:  # palette
        if plte is None:
            raise ValueError("corrupt PNG: palette image without PLTE")
        idx = px[..., 0]
        if int(idx.max(initial=0)) >= len(plte):
            raise ValueError("corrupt PNG: palette index out of range")
        out[..., :3] = plte[idx]
        if trns is not None:
            alpha = np.full(len(plte), 255, np.uint8)
            alpha[: len(trns)] = np.frombuffer(trns, np.uint8)
            out[..., 3] = alpha[idx]
        else:
            out[..., 3] = 255
    return out
