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
- encode: single frame or animation from (h, w, 4) uint8 RGBA; exact
  (lossless) for frames with <=255 distinct RGB colors (one slot is
  reserved for transparency when any alpha < 128) — raise otherwise; the
  caller quantizes. Optional interlacing. Deterministic bytes.

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


def _lzw_encode(indices: np.ndarray, min_code_size: int) -> bytes:
    """Index array → GIF LZW bytes (always emits a leading clear code and
    re-clears when the table fills — the maximally-compatible strategy).
    Pure Python: no measured path encodes GIF, so it has no C twin."""
    clear = 1 << min_code_size
    end = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    # (prefix_code, next_byte) → code keys: O(1) per pixel, no byte-string
    # building (root codes are implicit: code == index value)
    table: dict[tuple[int, int], int] = {}
    next_code = end + 1
    width = min_code_size + 1
    emit(clear, width)
    prev_code = -1
    for b in indices.astype(np.uint8).tobytes():
        if prev_code < 0:
            prev_code = b
            continue
        hit = table.get((prev_code, b))
        if hit is not None:
            prev_code = hit
            continue
        emit(prev_code, width)
        if next_code < 4096:
            table[(prev_code, b)] = next_code
            if next_code == (1 << width) and width < 12:
                width += 1
            next_code += 1
        else:
            emit(clear, width)
            table = {}
            next_code = end + 1
            width = min_code_size + 1
        prev_code = b
    if prev_code >= 0:
        emit(prev_code, width)
    emit(end, width)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _sub_blocks(payload: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(payload), 255):
        chunk = payload[i:i + 255]
        out.append(len(chunk))
        out += chunk
    out.append(0)
    return bytes(out)


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


# ---------------------------------------------------------------------------
# Encode
# ---------------------------------------------------------------------------


def _build_palette(frames: np.ndarray) -> tuple[np.ndarray, int]:
    """Shared palette over all frames; returns (palette (n,3), transparent
    index or -1). Raises when >255 distinct colors (GIF is palette-based —
    quantize upstream)."""
    any_alpha = bool((frames[..., 3] < 128).any())
    rgb = frames[..., :3].reshape(-1, 3)
    opaque = rgb[frames[..., 3].reshape(-1) >= 128] if any_alpha else rgb
    if len(opaque):
        # unique over PACKED uint32 keys, not rows: np.unique(axis=0) sorts
        # structured rows and was ~97% of encode wall time (the r4
        # "palette-mapping-bound" ceiling); the 1-D sort is ~50x faster and
        # yields the same colors in the same lexicographic order
        packed = ((opaque[:, 0].astype(np.uint32) << 16)
                  | (opaque[:, 1].astype(np.uint32) << 8)
                  | opaque[:, 2].astype(np.uint32))
        upk = np.unique(packed)
        colors = np.stack([(upk >> 16) & 0xFF, (upk >> 8) & 0xFF,
                           upk & 0xFF], axis=1).astype(np.uint8)
    else:
        colors = np.zeros((1, 3), np.uint8)
    limit = 255 if any_alpha else 256
    if len(colors) > limit:
        raise ValueError(
            f"GIF encode needs <= {limit} distinct colors, got {len(colors)}; "
            "quantize before encoding (GIF is a palette format)")
    if any_alpha:
        # reserve slot 0 for transparency, colored with an RGB no opaque
        # pixel uses so the color→index map can never alias it
        used = set((colors[:, 0].astype(int) << 16 | colors[:, 1].astype(int) << 8
                    | colors[:, 2]).tolist())
        cand = next(c for c in range(1 << 24) if c not in used)
        slot = np.array([[cand >> 16, (cand >> 8) & 0xFF, cand & 0xFF]], np.uint8)
        palette = np.vstack([slot, colors])
        return palette, 0
    return colors, -1


def _map_indices(frame: np.ndarray, palette: np.ndarray, transparent: int) -> np.ndarray:
    """RGBA frame → palette indices (vectorized via packed-int searchsorted)."""
    key = (palette[:, 0].astype(np.int64) << 16) | (palette[:, 1].astype(np.int64) << 8) | palette[:, 2]
    order = np.argsort(key)
    pk = key[order]
    rgb = frame[..., :3].astype(np.int64)
    fk = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    loc = np.searchsorted(pk, fk.ravel())
    idx = order[np.minimum(loc, len(pk) - 1)].astype(np.uint8).reshape(frame.shape[:2])
    if transparent >= 0:
        idx[frame[..., 3] < 128] = transparent
    return idx


def encode_gif(frames: np.ndarray, *, delays_ms: int | list[int] = 100,
               interlace: bool = False, loop: bool = True) -> bytes:
    """(h, w, 4) or (n, h, w, 4) uint8 RGBA → GIF89a bytes. Lossless for
    <=255 distinct colors; alpha < 128 becomes GIF binary transparency."""
    frames = np.ascontiguousarray(frames, np.uint8)
    if frames.ndim == 3:
        frames = frames[None]
    n, h, w = frames.shape[:3]
    if isinstance(delays_ms, int):
        delays_ms = [delays_ms] * n
    palette, transparent = _build_palette(frames)
    # color table size: power of two >= len(palette), min 2
    ct_bits = max(1, int(np.ceil(np.log2(max(len(palette), 2)))))
    ct = np.zeros((1 << ct_bits, 3), np.uint8)
    ct[:len(palette)] = palette

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | ((ct_bits - 1) & 7), 0, 0)
    out += ct.tobytes()
    if n > 1 and loop:  # NETSCAPE2.0 infinite-loop extension
        out += b"\x21\xFF\x0BNETSCAPE2.0\x03\x01\x00\x00\x00"
    for i in range(n):
        if n > 1 or transparent >= 0:
            gflags = (1 if transparent >= 0 else 0)
            out += b"\x21\xF9\x04" + struct.pack(
                "<BHB", gflags, delays_ms[i] // 10, max(transparent, 0)) + b"\x00"
        out += b"\x2C" + struct.pack("<HHHHB", 0, 0, w, h, 0x40 if interlace else 0)
        idx = _map_indices(frames[i], palette, transparent)
        if interlace:
            idx = idx[_interlace_order(h)]
        mcs = max(2, ct_bits)
        out.append(mcs)
        out += _sub_blocks(_lzw_encode(idx.ravel(), mcs))
    out += b"\x3B"
    return bytes(out)
