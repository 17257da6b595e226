"""Pure-Python GIF codec, implemented from the public GIF89a specification
(W3C/CompuServe GRAPHICS INTERCHANGE FORMAT 89a) — the container ships no
image libraries, so GIF ingest is implemented from the spec directly, same
policy as png.py/jpeg.py. This module is the one GIF codec
(images.decode_image dispatches here).

Scope:
- decode: GIF87a + GIF89a; global/local color tables, interlaced images
  (4-pass), graphic control extensions (transparency, frame delay, disposal
  methods 0-3 incl. restore-to-background and restore-to-previous),
  animation frame composition onto the logical screen, NETSCAPE/comment/
  plain-text extensions skipped per the sub-block grammar. LZW is the GIF
  variant (variable 3-12 bit codes, clear/end codes, deferred clear).
- no encoder: no system path writes GIF. The writer that makes test and
  fixture streams lives in tests/codec_writers.py.

Pixel work (palette lookup, interlace reorder, frame composition) is
vectorized NumPy; only the LZW code loop is sequential, which is inherent
to the format (each code's meaning depends on the full prior code stream).
"""

from __future__ import annotations

import struct

import numpy as np

from ._corrupt import corrupt_guard

_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _interlace_order(h: int) -> np.ndarray:
    return np.concatenate([np.arange(start, h, step) for start, step in _INTERLACE_PASSES]) \
        if h > 0 else np.empty(0, np.int64)


# ---------------------------------------------------------------------------
# LZW (GIF variant)
# ---------------------------------------------------------------------------


def _lzw_decode(data: bytes, min_code_size: int, n_pixels: int) -> np.ndarray:
    """GIF LZW → index array. LSB-first variable-width codes. Delegates to
    the compiled bit-exact twin when available (projcl_ray/fastcodec.py);
    this body is the fallback and parity oracle."""
    if not 1 <= min_code_size <= 11:  # 12-bit code space (spec: 2..8)
        raise ValueError("corrupt GIF: bad LZW minimum code size")
    # a 9-bit code emits at most a 4096-byte dictionary string, so the
    # frame can't be bigger than ~4096x its LZW data — reject a lying
    # descriptor before allocating the pixel buffer
    if n_pixels > 4096 * len(data) + 64:
        raise ValueError("corrupt GIF: frame larger than its data could code")
    from . import fastcodec

    got = fastcodec.gif_lzw_decode(data, min_code_size, n_pixels)
    if got is not None:
        return got
    clear = 1 << min_code_size
    end = clear + 1
    out = np.empty(n_pixels, np.uint8)
    oi = 0
    # dictionary of byte strings; slots 0..clear-1 are roots
    base = [bytes([i]) for i in range(clear)] + [b"", b""]
    table = list(base)
    width = min_code_size + 1
    acc = 0
    nbits = 0
    pos = 0
    prev: bytes | None = None
    n = len(data)
    while oi < n_pixels:
        while nbits < width:
            if pos >= n:
                raise ValueError("GIF: LZW stream truncated")
            acc |= data[pos] << nbits
            nbits += 8
            pos += 1
        code = acc & ((1 << width) - 1)
        acc >>= width
        nbits -= width
        if code == clear:
            table = list(base)
            width = min_code_size + 1
            prev = None
            continue
        if code == end:
            break
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            if len(table) < 4096:
                table.append(prev + entry[:1])
        elif code == len(table) and len(table) < 4096:
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("GIF: corrupt LZW code")
        take = min(len(entry), n_pixels - oi)
        out[oi:oi + take] = np.frombuffer(entry[:take], np.uint8)
        oi += take
        prev = entry
        if len(table) == (1 << width) and width < 12:
            width += 1
    if oi < n_pixels:
        raise ValueError("GIF: LZW stream ended early")
    return out


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------


@corrupt_guard("GIF")
def decode_gif_frames(buf: bytes) -> tuple[np.ndarray, list[int]]:
    """GIF bytes → ((n, h, w, 4) uint8 RGBA composed frames, delays in ms).
    Frames are composed onto the logical screen per the GCE disposal rules,
    i.e. what a viewer shows at each step."""
    if buf[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF (bad signature)")
    w, h, flags, _bg, _aspect = struct.unpack_from("<HHBBB", buf, 6)
    pos = 13
    gct = None
    if flags & 0x80:
        n = 2 << (flags & 0x07)
        gct = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
        pos += n * 3

    # every coded pixel costs LZW data, and a 9-bit code emits at most a
    # 4096-byte string, so a screen bigger than ~4096x the file is lying —
    # reject it before allocating the canvas (and a copy of it per frame)
    if h * w > 4096 * len(buf) + 64:
        raise ValueError("corrupt GIF: logical screen larger than its data could code")
    canvas = np.zeros((h, w, 4), np.uint8)  # transparent logical screen
    frames: list[np.ndarray] = []
    delays: list[int] = []
    transparent = -1
    disposal = 0
    delay_ms = 0

    def skip_subblocks(p: int) -> int:
        while True:
            ln = buf[p]
            p += 1
            if ln == 0:
                return p
            p += ln

    while pos < len(buf):
        block = buf[pos]
        pos += 1
        if block == 0x3B:  # trailer
            break
        if block == 0x21:  # extension
            label = buf[pos]
            pos += 1
            if label == 0xF9:  # graphic control
                sz = buf[pos]
                gflags, delay_cs, tidx = struct.unpack_from("<BHB", buf, pos + 1)
                pos = skip_subblocks(pos + 1 + sz)
                disposal = (gflags >> 2) & 0x07
                transparent = tidx if (gflags & 1) else -1
                delay_ms = delay_cs * 10
            else:  # application / comment / plain text: skip sub-blocks
                pos = skip_subblocks(pos)
            continue
        if block != 0x2C:
            raise ValueError(f"GIF: unknown block 0x{block:02x}")
        left, top, fw, fh, iflags = struct.unpack_from("<HHHHB", buf, pos)
        pos += 9
        if iflags & 0x80:  # local color table
            n = 2 << (iflags & 0x07)
            ct = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
            pos += n * 3
        else:
            ct = gct
        if ct is None:
            raise ValueError("GIF: image has no color table")
        mcs = buf[pos]
        pos += 1
        data = bytearray()
        while True:
            ln = buf[pos]
            pos += 1
            if ln == 0:
                break
            data += buf[pos:pos + ln]
            pos += ln
        idx = _lzw_decode(bytes(data), mcs, fw * fh).reshape(fh, fw)
        if iflags & 0x40:  # interlaced: rows arrive in pass order
            rows = np.empty((fh, fw), np.uint8)
            rows[_interlace_order(fh)] = idx
            idx = rows
        rgba = np.empty((fh, fw, 4), np.uint8)
        rgba[..., :3] = ct[np.minimum(idx, len(ct) - 1)]
        rgba[..., 3] = 255
        opaque = np.ones((fh, fw), bool) if transparent < 0 else idx != transparent

        before = canvas.copy() if disposal == 3 else None
        region = canvas[top:top + fh, left:left + fw]
        region[opaque] = rgba[opaque]
        frames.append(canvas.copy())
        delays.append(delay_ms)
        if disposal == 2:  # restore region to (transparent) background
            canvas[top:top + fh, left:left + fw] = 0
        elif disposal == 3 and before is not None:
            canvas = before
        transparent = -1
        disposal = 0
        delay_ms = 0
    if not frames:
        raise ValueError("GIF contains no image data")
    return np.stack(frames), delays


def decode_gif(buf: bytes) -> np.ndarray:
    """GIF bytes → (h, w, 4) uint8 RGBA (first composed frame)."""
    return decode_gif_frames(buf)[0][0]
