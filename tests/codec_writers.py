"""Writers for what the engine only reads: GIF, BMP, PNG, progressive
JPEG, the sequential JPEG layouts beyond baseline (one scan per component,
restart markers, 12-bit) and the TIFF layouts beyond deflate strips (LZW,
uncompressed, tiles). They make test inputs and the checked-in coded
corpora of ``projcl_ray/fixtures/`` (FIXTURES.md §8), which
test_fixture_provenance.py checks they still make byte for byte. They
call package internals (``jpeg._frame``, ``jpeg._scan``, ``tiff._layout``,
``png._ADAM7``, ...) and copy none. Not a test module.

    PYTHONPATH=. python tests/codec_writers.py [out_dir=projcl_ray/fixtures]
"""
from __future__ import annotations

import os
import struct
import sys
import zlib

import numpy as np
import pyarrow as pa

from projcl_ray import gif, jpeg, png, tiff
from projcl_ray.images import decode_image, synth_images_table, synth_pixels

# --- GIF89a: shared palette, LZW, optional interlace and animation ---

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
            idx = idx[gif._interlace_order(h)]
        mcs = max(2, ct_bits)
        out.append(mcs)
        out += _sub_blocks(_lzw_encode(idx.ravel(), mcs))
    out += b"\x3B"
    return bytes(out)


# --- BMP: 24-bit BI_RGB, bottom-up rows (alpha dropped, gray replicated) ---

def encode_bmp(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, np.uint8)
    if arr.ndim == 2:
        arr = arr[..., None].repeat(3, axis=-1)
    h, w = arr.shape[:2]
    bgr = arr[..., 2::-1] if arr.shape[2] >= 3 else arr
    stride = (w * 3 + 3) & ~3
    rows = np.zeros((h, stride), np.uint8)
    rows[:, : w * 3] = bgr.reshape(h, w * 3)
    pixels = rows[::-1].tobytes()  # bottom-up
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(pixels),
                       2835, 2835, 0, 0)
    off = 14 + len(info)
    header = struct.pack("<2sIHHI", b"BM", off + len(pixels), 0, 0, off)
    return header + info + pixels


# --- PNG: every scanline filter, Adam7, depth 8 and 16 ---

def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _filtered_stream(raw: np.ndarray, bpp: int, filter_type: int) -> bytes:
    """raw: (h, stride) uint8 original scanlines → filtered stream."""
    h, stride = raw.shape
    r16 = raw.astype(np.int16)
    left = np.zeros_like(r16)
    left[:, bpp:] = r16[:, :-bpp]
    up = np.zeros_like(r16)
    up[1:] = r16[:-1]
    ul = np.zeros_like(r16)
    ul[1:, bpp:] = r16[:-1, :-bpp]
    if filter_type == 0:
        filt = raw
    elif filter_type == 1:  # Sub
        filt = ((r16 - left) & 0xFF).astype(np.uint8)
    elif filter_type == 2:  # Up
        filt = ((r16 - up) & 0xFF).astype(np.uint8)
    elif filter_type == 3:  # Average
        filt = ((r16 - (left + up) // 2) & 0xFF).astype(np.uint8)
    elif filter_type == 4:  # Paeth
        pred = _paeth(left, up, ul)
        filt = ((r16 - pred) & 0xFF).astype(np.uint8)
    else:
        raise ValueError(f"unknown PNG filter {filter_type}")
    out = np.empty((h, stride + 1), np.uint8)
    out[:, 0] = filter_type
    out[:, 1:] = filt
    return out.tobytes()


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor (spec pseudocode, vectorized; int16-safe)."""
    p = a + b - c
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def encode_png(arr: np.ndarray, *, level: int = 6, filter_type: int = 0,
               interlace: bool = False) -> bytes:
    """(h, w) gray / (h, w, 3) RGB / (h, w, 4) RGBA → PNG bytes.
    uint8 input emits depth 8; uint16 input emits depth 16 (big-endian
    samples). ``interlace=True`` emits an Adam7 stream (each pass filtered
    independently, per the spec)."""
    depth = 16 if np.asarray(arr).dtype == np.uint16 else 8
    arr = np.ascontiguousarray(arr, np.uint16 if depth == 16 else np.uint8)
    if arr.ndim == 2:
        color, ch = 0, 1
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color, ch = 2, 3
    elif arr.ndim == 3 and arr.shape[2] == 4:
        color, ch = 6, 4
    else:
        raise ValueError(f"unsupported array shape {arr.shape} for PNG encode")
    h, w = arr.shape[:2]
    arr = arr.reshape(h, w, ch)
    bpp = ch * depth // 8
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, int(interlace))
    stream = bytearray()
    for xs, ys, xst, yst in (png._ADAM7 if interlace else ((0, 0, 1, 1),)):
        sub = arr[ys::yst, xs::xst]
        ph, pw = sub.shape[:2]
        if ph == 0 or pw == 0:
            continue
        if depth == 16:
            raw = np.ascontiguousarray(sub.astype(">u2")).view(np.uint8)
        else:
            raw = sub
        stream += _filtered_stream(raw.reshape(ph, pw * bpp), bpp, filter_type)
    idat = zlib.compress(bytes(stream), level)
    return png._SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


# --- Sequential JPEG beyond baseline: jpeg._frame, then jpeg._scan ---

def _gen_huffman(freq: np.ndarray) -> tuple[list[int], list[int]]:
    """Optimal Huffman table from symbol frequencies → (BITS[1..16], HUFFVAL),
    per the ITU T.81 Annex K.2 code-length flowchart (two-least-frequent
    merge over FREQ/CODESIZE/OTHERS) and the K.3 16-bit length adjustment.
    A reserved pseudo-symbol (index 256, freq 1) guarantees no real symbol
    gets the all-ones code. Ties pick the larger symbol value."""
    f = np.zeros(257, np.int64)
    f[:256] = freq
    f[256] = 1
    codesize = np.zeros(257, np.int64)
    others = np.full(257, -1, np.int64)
    while True:
        c1, v = -1, None
        for i in range(257):
            if f[i] and (v is None or f[i] <= v):
                v, c1 = f[i], i
        c2, v = -1, None
        for i in range(257):
            if f[i] and i != c1 and (v is None or f[i] <= v):
                v, c2 = f[i], i
        if c2 < 0:
            break
        f[c1] += f[c2]
        f[c2] = 0
        codesize[c1] += 1
        while others[c1] >= 0:
            c1 = others[c1]
            codesize[c1] += 1
        others[c1] = c2
        codesize[c2] += 1
        while others[c2] >= 0:
            c2 = others[c2]
            codesize[c2] += 1
    bits = np.zeros(33, np.int64)
    for i in range(257):
        if codesize[i]:
            bits[codesize[i]] += 1
    for i in range(32, 16, -1):  # K.3: fold lengths > 16 down
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
    i = 16
    while bits[i] == 0:
        i -= 1
    bits[i] -= 1  # drop the reserved pseudo-symbol's code point
    huffval = [s for size in range(1, 33) for s in range(256)
               if codesize[s] == size]
    return [int(b) for b in bits[1:17]], huffval


class _Counts:
    """A Huffman code table's stand-in in a statistics pass: counts each
    symbol ``jpeg._encode_block`` looks up and gives it an empty code."""

    def __init__(self):
        self.freq = np.zeros(256, np.int64)

    def __getitem__(self, s: int):
        self.freq[s] += 1
        return 0, 0


def encode_jpeg_sequential(arr: np.ndarray, *, quality: int = 90,
                           subsample: bool = False, multiscan: bool = False,
                           restart_interval: int = 0,
                           precision: int | None = None) -> bytes:
    """Sequential JFIF in the layouts ``jpeg.encode_jpeg`` does not write.
    ``multiscan=True`` emits one non-interleaved scan per component (the
    T.81 §A.2 layout libjpeg scan scripts produce), each over the
    component's own ceil-grid in raster order. ``restart_interval=N``
    emits a DRI marker and RSTn markers every N MCUs (data units in a
    per-component scan) with DC-predictor resets. ``precision=12``
    (the default for uint16 input) emits the T.81 extended-sequential
    12-bit form — SOF1, 16-bit DQT, level shift 2048 — as one scan per
    component with optimal per-table Huffman codes from a statistics pass
    (the Annex-K example tables stop at DC category 11 / AC size 10, below
    what 12-bit magnitudes need). At 8 bits the coefficients equal
    ``encode_jpeg``'s, so every layout decodes to the same pixels."""
    if precision is None:
        precision = 12 if np.asarray(arr).dtype == np.uint16 else 8
    if precision == 12:
        arr = np.ascontiguousarray(arr, np.uint16)
        if arr.max(initial=0) > 4095:
            raise ValueError("12-bit JPEG samples must be in 0..4095")
        multiscan = True
    elif precision == 8:
        arr = np.ascontiguousarray(arr, np.uint8)
    else:
        raise ValueError("precision must be 8 or 12")
    # SOF0 baseline (8-bit), SOF1 extended sequential (12-bit)
    out, comps, mcus_x, mcus_y = jpeg._frame(
        arr, quality, subsample, precision,
        0xC1 if precision == 12 else 0xC0, restart_interval)

    def scans(out: bytearray, tables: list):
        if not multiscan:
            return jpeg._scan(out, comps, jpeg._mcus(comps, mcus_x, mcus_y),
                              tables, restart_interval)
        for c, t in zip(comps, tables):
            units = ([(0, c["zz"][r * c["bpr"] + k])]
                     for r in range(c["hib"]) for k in range(c["wib"]))
            jpeg._scan(out, [c], units, [t], restart_interval)

    specs = jpeg.STD_HUFFMAN
    if precision == 12:
        counts = [_Counts() for _ in range(2 if len(comps) == 1 else 4)]
        scans(bytearray(), [tuple(counts[:2])] + [tuple(counts[2:])] * (len(comps) - 1))
        specs = [_gen_huffman(c.freq) for c in counts]
    scans(out, jpeg._dht(out, specs, len(comps)))
    out += b"\xFF\xD9"
    return bytes(out)


# --- Progressive JPEG (SOF2): jpeg._frame, then the scan script ---

def encode_jpeg_progressive(arr: np.ndarray, *, quality: int = 90,
                            subsample: bool = False) -> bytes:
    """8-bit gray/RGB/RGBA → SOF2 multi-scan JFIF with per-scan optimized
    Huffman tables. Same coefficients as ``jpeg.encode_jpeg`` at the same
    quality and subsampling, so its decode is bit-identical."""
    if np.asarray(arr).dtype == np.uint16:
        raise NotImplementedError("12-bit progressive encode unsupported")
    out, comps, mcus_x, mcus_y = jpeg._frame(
        np.ascontiguousarray(arr, np.uint8), quality, subsample, 8, 0xC2)
    _emit_progressive(out, comps, mcus_x, mcus_y)
    out += b"\xFF\xD9"
    return bytes(out)


class _StatSink:
    """Pass-1 emission target: counts Huffman symbol frequencies per table."""

    def __init__(self):
        self.freq: dict[tuple, np.ndarray] = {}

    def symbol(self, tbl: tuple, s: int):
        if tbl not in self.freq:
            self.freq[tbl] = np.zeros(256, np.int64)
        self.freq[tbl][s] += 1

    def bits(self, v: int, n: int):
        pass


class _WriteSink:
    """Pass-2 emission target: writes Huffman codes + raw bits."""

    def __init__(self, codes: dict):
        self.w = jpeg._BitWriter()
        self.codes = codes

    def symbol(self, tbl: tuple, s: int):
        c, ln = self.codes[tbl][s]
        self.w.write(c, ln)

    def bits(self, v: int, n: int):
        if n:
            self.w.write(v, n)


def _emit_dc_scan(sink, scan_comps: list[dict], mcus_x: int, mcus_y: int,
                  Ah: int, Al: int):
    """DC first (Ah=0: diff-coded at precision Al) or DC refinement (one
    appended bit per block); interleaved when the scan has >1 component."""
    preds = [0] * len(scan_comps)

    def one(ci: int, c: dict, bidx: int):
        dc = int(c["zz"][bidx, 0])
        if Ah == 0:
            v = dc >> Al  # arithmetic shift (T.81 G.1.2.1)
            diff = v - preds[ci]
            preds[ci] = v
            size = abs(diff).bit_length()
            sink.symbol(("dc", c["td"]), size)
            sink.bits(diff if diff >= 0 else diff + (1 << size) - 1, size)
        else:
            sink.bits((dc >> Al) & 1, 1)

    if len(scan_comps) > 1:
        for my in range(mcus_y):
            for mx in range(mcus_x):
                for ci, c in enumerate(scan_comps):
                    for by in range(c["v"]):
                        for bx in range(c["h"]):
                            one(ci, c, (my * c["v"] + by) * c["bpr"]
                                + (mx * c["h"] + bx))
    else:
        c = scan_comps[0]
        for row in range(c["hib"]):
            for col in range(c["wib"]):
                one(0, c, row * c["bpr"] + col)


def _emit_ac_first(sink, c: dict, Ss: int, Se: int, Al: int):
    """First AC scan for a band: run/size coding with EOB-run accumulation
    (T.81 G.1.2.2); point transform is a magnitude shift."""
    tbl = ("ac", c["ta"])
    eobrun = 0

    def flush_eob():
        nonlocal eobrun
        if eobrun > 0:
            nbits = eobrun.bit_length() - 1
            sink.symbol(tbl, nbits << 4)
            sink.bits(eobrun & ((1 << nbits) - 1), nbits)
            eobrun = 0

    for row in range(c["hib"]):
        for col in range(c["wib"]):
            zz = c["zz"][row * c["bpr"] + col]
            run = 0
            for k in range(Ss, Se + 1):
                t = int(zz[k])
                t = (t >> Al) if t >= 0 else -((-t) >> Al)
                if t == 0:
                    run += 1
                    continue
                flush_eob()
                while run > 15:
                    sink.symbol(tbl, 0xF0)  # ZRL
                    run -= 16
                size = abs(t).bit_length()
                sink.symbol(tbl, (run << 4) | size)
                sink.bits(t if t >= 0 else t + (1 << size) - 1, size)
                run = 0
            if run > 0:
                eobrun += 1
                if eobrun == 0x7FFF:
                    flush_eob()
    flush_eob()


def _emit_ac_refine(sink, c: dict, Ss: int, Se: int, Al: int):
    """AC refinement scan: one correction bit per already-nonzero
    coefficient, run/1 codes for newly-nonzero ones, correction bits
    buffered across ZRL/EOB boundaries (T.81 G.1.2.3, the
    encode_mcu_AC_refine discipline)."""
    tbl = ("ac", c["ta"])
    p1 = 1 << Al
    eobrun = 0
    be_bits: list[int] = []  # correction bits riding the pending EOB run

    def flush_eob():
        nonlocal eobrun, be_bits
        if eobrun > 0:
            nbits = eobrun.bit_length() - 1
            sink.symbol(tbl, nbits << 4)
            sink.bits(eobrun & ((1 << nbits) - 1), nbits)
            eobrun = 0
        for b in be_bits:
            sink.bits(b, 1)
        be_bits = []

    for row in range(c["hib"]):
        for col in range(c["wib"]):
            zz = c["zz"][row * c["bpr"] + col]
            absv = {}
            eob = 0  # position AFTER which no newly-nonzero coef remains
            for k in range(Ss, Se + 1):
                t = int(zz[k])
                t = (-t if t < 0 else t) >> Al
                absv[k] = t
                if t == 1:
                    eob = k
            r = 0
            br: list[int] = []  # this block's pending correction bits
            for k in range(Ss, Se + 1):
                t = absv[k]
                if t == 0:
                    r += 1
                    continue
                # ZRLs only when a newly-nonzero coef still follows; zeros
                # at the band tail fold into the EOB run instead
                while r > 15 and k <= eob:
                    flush_eob()
                    sink.symbol(tbl, 0xF0)
                    r -= 16
                    for b in br:
                        sink.bits(b, 1)
                    br = []
                if t > 1:  # history coefficient: buffer its correction bit
                    br.append(t & 1)
                    continue
                flush_eob()
                sink.symbol(tbl, (r << 4) | 1)
                sink.bits(1 if int(zz[k]) >= 0 else 0, 1)
                for b in br:
                    sink.bits(b, 1)
                br = []
                r = 0
            if r > 0 or br:
                eobrun += 1
                be_bits.extend(br)
                if eobrun == 0x7FFF:
                    flush_eob()
    flush_eob()


def _emit_progressive(out: bytearray, comps: list[dict],
                      mcus_x: int, mcus_y: int):
    """SOF2 scan script: interleaved DC first (Al=1), per-component AC
    bands 1–5 and 6–63 (Al=1), interleaved DC refinement, per-component AC
    refinements — libjpeg's simple script shape. Each Huffman-coded scan
    runs twice: a stats pass feeding Annex-K optimal table generation,
    then the write pass; DHT precedes each SOS it serves."""
    scans: list[tuple[list[dict], int, int, int, int]] = [(comps, 0, 0, 0, 1)]
    for c in comps:
        scans += [([c], 1, 5, 0, 1), ([c], 6, 63, 0, 1)]
    scans.append((comps, 0, 0, 1, 0))
    for c in comps:
        scans += [([c], 1, 5, 1, 0), ([c], 6, 63, 1, 0)]

    for scan_comps, Ss, Se, Ah, Al in scans:
        def run(sink):
            if Ss == 0:
                _emit_dc_scan(sink, scan_comps, mcus_x, mcus_y, Ah, Al)
            elif Ah == 0:
                _emit_ac_first(sink, scan_comps[0], Ss, Se, Al)
            else:
                _emit_ac_refine(sink, scan_comps[0], Ss, Se, Al)

        stats = _StatSink()
        run(stats)
        codes = {}
        for tbl_key, freq in sorted(stats.freq.items()):
            bits, vals = _gen_huffman(freq)
            codes[tbl_key] = jpeg._canonical_codes(bits, vals)
            tc = 0 if tbl_key[0] == "dc" else 1
            out += b"\xFF\xC4" + struct.pack(
                ">HB", 3 + 16 + len(vals), (tc << 4) | tbl_key[1])
            out += bytes(bits) + bytes(vals)
        ns = len(scan_comps)
        out += b"\xFF\xDA" + struct.pack(">HB", 6 + 2 * ns, ns)
        for c in scan_comps:
            out += struct.pack("BB", c["cid"], (c["td"] << 4) | c["ta"])
        out += struct.pack("BBB", Ss, Se, (Ah << 4) | Al)
        wsink = _WriteSink(codes)
        run(wsink)
        wsink.w.flush()
        out += wsink.w.buf


# --- TIFF beyond deflate strips: tiff._samples, tiff._predicted, tiff._layout ---

def _lzw_encode_tiff(data: bytes) -> bytes:
    """Bytes → TIFF LZW (MSB-first codes, early change, a clear code first
    and again before the table tops out)."""
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int):
        nonlocal acc, nbits
        acc = (acc << width) | code
        nbits += width
        while nbits >= 8:
            out.append((acc >> (nbits - 8)) & 0xFF)
            nbits -= 8
            acc &= (1 << nbits) - 1  # drop emitted high bits (keep acc small)

    # (prefix_code, next_byte) → code keys: O(1) per input byte, no
    # byte-string building (roots are implicit: code == byte value)
    table: dict[tuple[int, int], int] = {}
    next_code = 258
    width = 9
    emit(256, width)  # clear
    prev_code = -1
    for byte in data:
        if prev_code < 0:
            prev_code = byte
            continue
        hit = table.get((prev_code, byte))
        if hit is not None:
            prev_code = hit
            continue
        emit(prev_code, width)
        table[(prev_code, byte)] = next_code
        next_code += 1
        # early change: the decoder grows its width when table len hits
        # 2^w - 1; with the decoder one entry behind, that is when our
        # just-assigned code is 2^w - 1, i.e. next_code reaches 2^w
        if next_code == (1 << width) and width < 12:
            width += 1
        if next_code == 4094:  # re-clear before the table tops out
            emit(256, width)
            table = {}
            next_code = 258
            width = 9
        prev_code = byte
    if prev_code >= 0:
        emit(prev_code, width)
    emit(257, width)  # EOI
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def encode_tiff_layout(arr: np.ndarray, *, compression: str = "deflate",
                       rows_per_strip: int = 64, tiled: bool = False,
                       tile_size: int = 64, predictor: int = 1,
                       geo: tiff.GeoTags | None = None) -> bytes:
    """``tiff.encode_tiff`` in another layout: ``compression`` "deflate"
    (tag 8), "lzw" (tag 5, TIFF variant) or "none" (tag 1); strips of
    ``rows_per_strip`` rows, or with ``tiled`` square tiles of
    ``tile_size`` (TileWidth/TileLength, edge tiles zero-padded per
    spec)."""
    px = tiff._samples(arr, predictor)
    h, w, spp = px.shape
    if tiled:
        ny, nx = -(-h // tile_size), -(-w // tile_size)
        padded = np.zeros((ny * tile_size, nx * tile_size, spp), px.dtype)
        padded[:h, :w] = px
        segs = [padded[ty * tile_size:(ty + 1) * tile_size,
                       tx * tile_size:(tx + 1) * tile_size]
                for ty in range(ny) for tx in range(nx)]
    else:
        segs = [px[y:y + rows_per_strip] for y in range(0, h, rows_per_strip)]
    pack, tag = {"none": (bytes, 1), "lzw": (_lzw_encode_tiff, 5),
                 "deflate": (lambda b: zlib.compress(b, 6), 8)}[compression]
    return tiff._layout(px, [pack(tiff._predicted(s, predictor)) for s in segs],
                        tag, predictor, geo, rows_per_strip,
                        tile_size if tiled else 0)


# --- The checked-in coded corpora (FIXTURES.md §8) ---

def _recoded(encode) -> pa.Table:
    """``synth_images_table(24, 42)`` with each row's pixels re-encoded by
    ``encode(i, img) -> (bytes, fmt)``."""
    rows = synth_images_table(24, seed=42).to_pylist()
    for i, r in enumerate(rows):
        img = decode_image(r["bytes"], r["w"], r["h"], "raw")
        r["bytes"], r["fmt"] = encode(i, img)
    return pa.Table.from_pylist(rows)


def _gif_or_bmp(i: int, img: np.ndarray):
    if i % 2:
        return encode_bmp(img), "bmp"
    quant = ((img >> 6) << 6).astype("uint8")  # <=64 colors for GIF
    quant[..., 3] = 255
    return encode_gif(quant, interlace=bool(i % 4)), "gif"


def fuzz_seeds() -> pa.Table:
    """One valid stream per decoder branch the corrupt-input fuzz mutates
    (tools/fuzz_codecs.py, tests/test_codec_property.py)."""
    img = synth_pixels(3, 48, 32)
    img64 = ((img >> 6) << 6) + 32  # <=64 colors for the palette format
    seeds = [("jpeg", "jpeg", jpeg.encode_jpeg(img)),
             ("jpeg_prog", "jpeg", encode_jpeg_progressive(img)),
             ("png", "png", encode_png(img)),
             ("gif", "gif", encode_gif(img64)),
             ("bmp", "bmp", encode_bmp(img[..., :3])),
             ("tiff", "tiff", encode_tiff_layout(img[..., :3], compression="lzw"))]
    return pa.Table.from_pylist([dict(zip(("name", "fmt", "bytes"), s))
                                 for s in seeds])


CORPORA = {
    "gif_bmp_ingest": lambda: _recoded(_gif_or_bmp),
    # Paeth filter; Adam7 on odd rows
    "png_ingest": lambda: _recoded(lambda i, img: (
        encode_png(img, filter_type=4, interlace=bool(i % 2)), "png")),
    "jpeg_progressive_ingest": lambda: _recoded(lambda i, img: (
        encode_jpeg_progressive(img, quality=92, subsample=True), "jpeg")),
    "fuzz_seeds": fuzz_seeds,
}


if __name__ == "__main__":
    import pyarrow.parquet as pq

    out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "projcl_ray", "fixtures")
    os.makedirs(out_dir, exist_ok=True)
    for name, build in CORPORA.items():
        pq.write_table(build(), os.path.join(out_dir, f"{name}.parquet"))
