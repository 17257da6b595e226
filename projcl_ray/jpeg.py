"""Pure-Python baseline JPEG codec (stdlib ``struct`` + numpy).

Like :mod:`projcl_ray.png`, this removes an environment-forced codec stub:
the reference ingests arbitrary images (projcl_warp.c:68-107) and this
container ships no image libraries, so baseline JFIF support is implemented
from the JPEG specification (ITU T.81) directly.

Scope:
- decode (``decode_jpeg``): baseline/extended sequential DCT (SOF0/1) AND
  progressive DCT (SOF2 — spectral selection + successive approximation
  per ITU T.81 §G.1.2, multi-scan, EOB runs, refinement correction bits),
  1 or 3 components, standard or custom DQT/DHT tables (including
  per-scan redefinition), restart markers (DRI/RSTn), 0xFF00 byte
  unstuffing. 8-bit files return (h, w, 4) uint8 RGBA; 12-bit SOF1 files
  return native-range uint16. The SOF check admits sampling factors 1–4
  (T.81 A.1.1); subsampled planes are upsampled by nearest neighbour at
  the integer ratio to the largest factor. The tests cover 4:4:4 (all
  factors 1) and 4:2:0 (luma 2×2), single- and multi-scan. Arithmetic
  coding and hierarchical modes are rejected with a clear error.
- encode (``encode_jpeg``): gray/RGB/RGBA → 8-bit baseline JFIF, one
  interleaved scan, with the Annex-K standard quantization (libjpeg
  quality scaling) and Huffman tables; 4:4:4 by default, optional 4:2:0
  (``subsample=True``). Deterministic bytes. That is the only JPEG a
  system path writes; the writers of the other layouts the decoder reads
  (one scan per component, restart markers, 12-bit SOF1, progressive)
  live with the tests (tests/codec_writers.py) and build on
  :func:`_frame`, :func:`_dht` and :func:`_scan`.

Numerics: decode is libjpeg's integer arithmetic. The IDCT is jidctint.c's
"islow" (CONST_BITS 13, PASS1_BITS 2 at 8-bit and 1 at 12-bit) in int64,
vectorized over all blocks of a component; each sample is then clamped to
[0, 2^P − 1] (T.81 A.3.1), and YCbCr → RGB uses jdcolor.c's SCALEBITS-16
fixed-point tables. 8-bit pixels therefore equal libjpeg's islow decode
without fancy upsampling, sample for sample (tests/test_image_codecs.py
checks against the installed libjpeg). The encoder's FDCT is the exact
orthonormal 8×8 DCT-II applied to all blocks as two float64 GEMMs. At
8-bit the entropy decode and the decode tail (one call per component, one
for the colour conversion) run in C when fastcodec is built, else in
Python; encoding is always Python.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from ._corrupt import corrupt_guard

# --- constant tables (ITU T.81 Annex K) -------------------------------------

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

QUANT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
], np.float64).reshape(8, 8)
QUANT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
], np.float64).reshape(8, 8)

# standard Huffman specs: (BITS[1..16], HUFFVAL)
DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMA_VALS = list(range(12))
DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROMA_VALS = list(range(12))
AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125]
AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119]
AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]

# orthonormal 8×8 DCT-II matrix (the encoder's FDCT)
_k = np.arange(8)[:, None]
_n = np.arange(8)[None, :]
_C = np.cos((2 * _n + 1) * _k * np.pi / 16.0) * np.sqrt(2.0 / 8.0)
_C[0] /= np.sqrt(2.0)


def _canonical_codes(bits: list[int], vals: list[int]):
    """(BITS, HUFFVAL) → {symbol: (code, length)} (T.81 C.2)."""
    out = {}
    code = 0
    i = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[i]] = (code, length)
            code += 1
            i += 1
        code <<= 1
    return out


@functools.lru_cache(maxsize=32)
def _decode_lut(table: bytes) -> tuple[bytes, bytes]:
    """DHT table body (BITS[1..16] then HUFFVAL) → 16-bit-prefix lookup
    tables: prefix → symbol and prefix → code length, 65536 bytes each.

    Canonical codes (T.81 C.2) tile the 16-bit prefix space contiguously
    from 0 in HUFFVAL order, a code of length L spanning 2^(16-L)
    prefixes, so each table is one repeat of the values by their spans,
    zero-padded (length 0 marks an invalid code). Spans summing past 2^16
    are an over-subscribed code — libjpeg's JERR_BAD_HUFF_TABLE.

    Memoized on the table bytes: a worker decoding a corpus that shares
    its tables builds each one once, and the C and pure scan decoders
    index the same immutable ``bytes``. At most 32 entries (4 MiB)."""
    bits = np.frombuffer(table, np.uint8, 16)
    vals = np.frombuffer(table, np.uint8, offset=16)
    lengths = np.repeat(np.arange(1, 17, dtype=np.uint8), bits)
    spans = 1 << (16 - lengths.astype(np.int64))
    used = int(spans.sum())
    if len(vals) > 256 or used > 1 << 16:
        raise ValueError("corrupt JPEG: bad Huffman table")
    pad = bytes((1 << 16) - used)
    return (bytes(np.repeat(vals, spans)) + pad,
            bytes(np.repeat(lengths, spans)) + pad)


def _quality_tables(quality: int):
    quality = min(100, max(1, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    qy = np.clip(np.floor((QUANT_LUMA * scale + 50) / 100), 1, 255)
    qc = np.clip(np.floor((QUANT_CHROMA * scale + 50) / 100), 1, 255)
    return qy, qc


def _to_ycbcr(arr: np.ndarray, level: float = 128.0):
    r, g, b = (arr[..., i].astype(np.float64) for i in range(3))
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + level
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + level
    return y, cb, cr


def _plane_blocks(plane: np.ndarray, bx: int | None = None,
                  by: int | None = None) -> np.ndarray:
    """(H, W) → (n_blocks, 8, 8) row-major, edge-replicated to the target
    block grid (bx × by blocks; defaults to ceil(dim/8) — interleaved scans
    need the MCU-aligned grid, which can exceed that)."""
    h, w = plane.shape
    W = (bx or -(-w // 8)) * 8
    H = (by or -(-h // 8)) * 8
    if (H, W) != (h, w):
        p = np.empty((H, W), plane.dtype)
        p[:h, :w] = plane
        p[h:, :w] = plane[h - 1 : h, :]
        p[:h, w:] = plane[:, w - 1 : w]
        p[h:, w:] = plane[h - 1, w - 1]
        plane = p
    return plane.reshape(H // 8, 8, W // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


def _fdct_quant(blocks: np.ndarray, qtbl: np.ndarray,
                level: float = 128.0) -> np.ndarray:
    # two whole-image GEMMs instead of einsum's per-block loop:
    # f = C @ (blocks-level) @ C.T for all blocks at once
    n = blocks.shape[0]
    b = blocks - level
    t = (_C @ b.transpose(1, 0, 2).reshape(8, n * 8)).reshape(8, n, 8)
    f = (t.transpose(1, 0, 2).reshape(n * 8, 8) @ _C.T).reshape(n, 8, 8)
    return np.round(f / qtbl).astype(np.int32)


# jidctint.c's "islow" IDCT (Loeffler, Ligtenberg & Moschytz 1989): FIX(x)
# = round(x · 2^13) for each rotator constant, CONST_BITS 13, PASS1_BITS 2
# at 8-bit precision and 1 at 12-bit
_CONST_BITS = 13


def _fix(v: float, bits: int) -> int:
    """libjpeg's FIX(v): v in fixed point with ``bits`` fraction bits."""
    return int(v * (1 << bits) + 0.5)


(_F0_298, _F0_390, _F0_541, _F0_765, _F0_899, _F1_175, _F1_501, _F1_847,
 _F1_961, _F2_053, _F2_562, _F3_072) = (
    _fix(v, _CONST_BITS) for v in (
        0.298631336, 0.390180644, 0.541196100, 0.765366865, 0.899976223,
        1.175875602, 1.501321110, 1.847759065, 1.961570560, 2.053119869,
        2.562915447, 3.072711026))


def _islow_1d(x, shift: int) -> list:
    """One 8-point pass of islow over ``x[0..7]`` (int64 arrays of one
    shape), each output descaled by ``shift`` bits with rounding."""
    z1 = (x[2] + x[6]) * _F0_541  # even part
    t2 = z1 - x[6] * _F1_847
    t3 = z1 + x[2] * _F0_765
    t0 = (x[0] + x[4]) << _CONST_BITS
    t1 = (x[0] - x[4]) << _CONST_BITS
    e10, e13, e11, e12 = t0 + t3, t0 - t3, t1 + t2, t1 - t2
    z5 = (x[7] + x[5] + x[3] + x[1]) * _F1_175  # odd part
    z1 = (x[7] + x[1]) * -_F0_899
    z2 = (x[5] + x[3]) * -_F2_562
    z3 = (x[7] + x[3]) * -_F1_961 + z5
    z4 = (x[5] + x[1]) * -_F0_390 + z5
    o0 = x[7] * _F0_298 + z1 + z3
    o1 = x[5] * _F2_053 + z2 + z4
    o2 = x[3] * _F3_072 + z2 + z3
    o3 = x[1] * _F1_501 + z1 + z4
    r = 1 << (shift - 1)
    return [(v + r) >> shift for v in (e10 + o3, e11 + o2, e12 + o1, e13 + o0,
                                       e13 - o0, e12 - o1, e11 - o2, e10 - o3)]


def _idct_islow(coef: np.ndarray, q: np.ndarray, prec: int) -> np.ndarray:
    """(n, 64) zigzag-order coefficients and a natural-order quantization
    table → (n, 8, 8) int64 samples of P-bit precision, level-shifted and
    clamped to [0, 2^P − 1] (T.81 A.3.1). libjpeg wraps with ``&
    RANGE_MASK`` instead; the two agree whenever the IDCT output lies within
    ±512 of the level, as in every conformant file. Vectorized over all
    blocks in int64, so no dequantized coefficient can overflow."""
    pass1 = 2 if prec == 8 else 1
    d = (coef[:, UNZIGZAG].astype(np.int64) * q).reshape(-1, 8, 8)
    # pass 1 runs down every column (ws[r]: row r of all blocks), pass 2
    # along every row (px[c]: column c of all blocks)
    ws = _islow_1d(d.transpose(1, 0, 2), _CONST_BITS - pass1)
    px = _islow_1d(np.stack(ws, axis=1).transpose(2, 0, 1),
                   _CONST_BITS + pass1 + 3)
    return np.clip(np.stack(px, axis=2) + (1 << (prec - 1)), 0, (1 << prec) - 1)


@functools.lru_cache(maxsize=2)
def _ycc_tables(prec: int) -> tuple[np.ndarray, ...]:
    """jdcolor.c's YCbCr → RGB tables at P-bit precision (SCALEBITS 16),
    indexed by the Cb or Cr sample: Cr→R and Cb→B rounded to integers,
    Cr→G and Cb→G (carrying the rounding half) still scaled by 2^16."""
    x = np.arange(1 << prec, dtype=np.int64) - (1 << (prec - 1))
    half = 1 << 15
    return ((_fix(1.40200, 16) * x + half) >> 16, -_fix(0.71414, 16) * x,
            -_fix(0.34414, 16) * x + half, (_fix(1.77200, 16) * x + half) >> 16)


def _component_plane(coef: np.ndarray, q: np.ndarray, bpr: int, bpc: int,
                     prec: int) -> np.ndarray:
    """One component's coefficient store → its (bpc·8, bpr·8) sample plane:
    uint8 at 8-bit precision, uint16 at 12-bit."""
    if prec == 8:
        from . import fastcodec

        plane = fastcodec.jpeg_idct_plane(coef, q, bpr, bpc)
        if plane is not None:
            return plane
    px = _idct_islow(coef, q, prec).astype(np.uint8 if prec == 8 else np.uint16)
    return px.reshape(bpc, bpr, 8, 8).transpose(0, 2, 1, 3).reshape(bpc * 8, bpr * 8)


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            byte = (self.acc >> (self.n - 8)) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)  # byte stuffing
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def flush(self):
        if self.n:
            self.write(0x7F, 8 - self.n)  # pad with 1-bits


def _encode_block(w: _BitWriter, zz: np.ndarray, pred: int,
                  dc_codes: dict, ac_codes: dict) -> int:
    dc = int(zz[0])
    diff = dc - pred
    size = int(abs(diff)).bit_length()
    code, length = dc_codes[size]
    w.write(code, length)
    if size:
        bitsval = diff if diff > 0 else diff + (1 << size) - 1
        w.write(bitsval, size)
    nz = np.nonzero(zz[1:])[0] + 1
    prev = 0
    for idx in nz:
        run = int(idx) - prev - 1
        while run >= 16:
            c, ln = ac_codes[0xF0]  # ZRL
            w.write(c, ln)
            run -= 16
        v = int(zz[idx])
        size = int(abs(v)).bit_length()
        c, ln = ac_codes[(run << 4) | size]
        w.write(c, ln)
        w.write(v if v > 0 else v + (1 << size) - 1, size)
        prev = int(idx)
    if prev != 63:
        c, ln = ac_codes[0x00]  # EOB
        w.write(c, ln)
    return dc


def _frame(arr: np.ndarray, quality: int, subsample: bool, precision: int,
           sof: int, restart_interval: int = 0):
    """What every JFIF writer shares: per component the quantized zigzag
    coefficients over the MCU lattice plus scan geometry, and the headers
    through the ``sof`` segment (16-bit DQT at ``precision`` 12, DRI first
    when ``restart_interval``). Returns (header bytes, components, mcus_x,
    mcus_y)."""
    level = float(1 << (precision - 1))
    gray = arr.ndim == 2
    h, w = arr.shape[:2]
    qy, qc = _quality_tables(quality)
    if precision == 12:
        qy, qc = qy * 16.0, qc * 16.0  # scale the example tables to 12-bit

    if gray:
        planes = [arr.astype(np.float64)]
        samp = [(1, 1)]
    else:
        y, cb, cr = _to_ycbcr(arr, level)
        if subsample:
            # 2×2 box-mean chroma (pad odd dims by edge replication first)
            def ds(p):
                H, W = -(-h // 2) * 2, -(-w // 2) * 2
                q = np.empty((H, W))
                q[:h, :w] = p
                q[h:, :w] = p[h - 1 : h, :]
                q[:h, w:] = q[:h, w - 1 : w]
                q[h:, w:] = q[h - 1, w - 1]
                return q.reshape(H // 2, 2, W // 2, 2).mean(axis=(1, 3))

            planes = [y, ds(cb), ds(cr)]
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            planes = [y, cb, cr]
            samp = [(1, 1), (1, 1), (1, 1)]

    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    ncomp = 1 if gray else 3
    comps = []  # per component: coefficient grid + scan geometry
    for ci, (p, q, (hi, vi)) in enumerate(
            zip(planes, ([qy, qc, qc] if not gray else [qy]), samp)):
        # interleaved MCUs require the component's block grid to cover the
        # FULL MCU lattice (mcus_x·h_i × mcus_y·v_i), not just ceil(dim/8)
        blocks = _plane_blocks(p, mcus_x * hi, mcus_y * vi)
        zz = _fdct_quant(blocks, q, level).reshape(-1, 64)[:, ZIGZAG]
        comps.append({
            "zz": zz, "bpr": mcus_x * hi, "h": hi, "v": vi, "cid": ci + 1,
            "td": 0 if ci == 0 else 1, "ta": 0 if ci == 0 else 1,
            # non-interleaved (AC) scans cover only the ceil-grid blocks
            "wib": -(-(-(-w * hi // hmax)) // 8),
            "hib": -(-(-(-h * vi // vmax)) // 8),
        })

    out = bytearray(b"\xFF\xD8")  # SOI
    out += b"\xFF\xE0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tid, q in enumerate([qy] if gray else [qy, qc]):
        if precision == 12:  # Pq=1: 16-bit table entries (T.81 B.2.4.1)
            zzq = q.reshape(-1)[ZIGZAG].astype(">u2").tobytes()
            out += b"\xFF\xDB" + struct.pack(">HB", 3 + 128, 0x10 | tid) + zzq
        else:
            zzq = q.reshape(-1)[ZIGZAG].astype(np.uint8).tobytes()
            out += b"\xFF\xDB" + struct.pack(">HB", 3 + 64, tid) + zzq
    if restart_interval:
        out += b"\xFF\xDD" + struct.pack(">HH", 4, restart_interval)
    out += bytes([0xFF, sof]) + struct.pack(">HBHHB", 8 + 3 * ncomp, precision,
                                            h, w, ncomp)
    for c in comps:
        out += struct.pack("BBB", c["cid"], (c["h"] << 4) | c["v"],
                           0 if c["cid"] == 1 else 1)
    return out, comps, mcus_x, mcus_y


# the Annex-K example Huffman tables as (BITS, HUFFVAL), in DHT order: luma
# DC, luma AC, chroma DC, chroma AC
STD_HUFFMAN = ((DC_LUMA_BITS, DC_LUMA_VALS), (AC_LUMA_BITS, AC_LUMA_VALS),
               (DC_CHROMA_BITS, DC_CHROMA_VALS), (AC_CHROMA_BITS, AC_CHROMA_VALS))


def _dht(out: bytearray, specs, ncomp: int) -> list:
    """Append one DHT segment per table of ``specs`` ((BITS, HUFFVAL) in
    :data:`STD_HUFFMAN` order; the chroma pair only when ``ncomp`` > 1) and
    return each component's (DC codes, AC codes)."""
    specs = specs[:2 if ncomp == 1 else 4]
    for i, (bits, vals) in enumerate(specs):
        out += b"\xFF\xC4" + struct.pack(">HB", 3 + 16 + len(vals),
                                          (i % 2) << 4 | i // 2)
        out += bytes(bits) + bytes(vals)
    codes = [_canonical_codes(*s) for s in specs]
    return [tuple(codes[:2])] + [tuple(codes[2:])] * (ncomp - 1)


def _mcus(comps: list, mcus_x: int, mcus_y: int):
    """The interleaved scan's MCUs in raster order, each a list of
    (component index, zigzag block) pairs in coding order (T.81 A.2.3)."""
    for my in range(mcus_y):
        for mx in range(mcus_x):
            yield [(ci, c["zz"][(my * c["v"] + by) * c["bpr"] + mx * c["h"] + bx])
                   for ci, c in enumerate(comps)
                   for by in range(c["v"]) for bx in range(c["h"])]


def _scan(out: bytearray, comps: list, mcus, tables: list,
          restart_interval: int = 0) -> None:
    """Append one sequential scan of ``comps``: the SOS header, then every
    MCU of ``mcus`` (lists of (index into ``comps``, zigzag block))
    Huffman-coded with ``tables[index]``, with an RSTn marker and DC
    predictor reset every ``restart_interval`` MCUs when it is nonzero."""
    out += b"\xFF\xDA" + struct.pack(">HB", 6 + 2 * len(comps), len(comps))
    for c in comps:
        out += struct.pack("BB", c["cid"], (c["td"] << 4) | c["ta"])
    out += b"\x00\x3F\x00"
    wtr = _BitWriter()
    preds = [0] * len(comps)
    for m, mcu in enumerate(mcus):
        if restart_interval and m and m % restart_interval == 0:
            wtr.flush()
            out += wtr.buf
            out += bytes([0xFF, 0xD0 + (m // restart_interval - 1) % 8])
            wtr = _BitWriter()
            preds = [0] * len(comps)
        for ci, zz in mcu:
            preds[ci] = _encode_block(wtr, zz, preds[ci], *tables[ci])
    wtr.flush()
    out += wtr.buf


def encode_jpeg(arr: np.ndarray, *, quality: int = 90,
                subsample: bool = False) -> bytes:
    """(h, w) gray / (h, w, 3) RGB / (h, w, 4) RGBA uint8 → baseline JFIF
    bytes: 8-bit samples, one interleaved scan, the Annex-K example Huffman
    tables. RGBA alpha is dropped (JPEG has no alpha). ``subsample=True``
    emits 4:2:0 chroma (smaller files, exercises the decoder's interleaved
    MCU path); default is 4:4:4. Other sample types raise ``ValueError``
    (the 12-bit form of uint16 input is written only by the tests)."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ValueError(f"encode_jpeg writes 8-bit samples, not {arr.dtype}")
    out, comps, mcus_x, mcus_y = _frame(np.ascontiguousarray(arr), quality,
                                        subsample, 8, 0xC0)
    tables = _dht(out, STD_HUFFMAN, len(comps))
    _scan(out, comps, _mcus(comps, mcus_x, mcus_y), tables)
    out += b"\xFF\xD9"  # EOI
    return bytes(out)


class _BitReader:
    """Bit reader over the unstuffed entropy bytes (MSB first)."""

    def __init__(self, data: bytes):
        self.data = data + b"\x00\x00\x00\x00"
        self.pos = 0  # bit position

    def peek16(self) -> int:
        byte = self.pos >> 3
        chunk = int.from_bytes(self.data[byte : byte + 4], "big")
        return (chunk >> (16 - (self.pos & 7))) & 0xFFFF

    def take(self, n: int) -> int:
        byte = self.pos >> 3
        chunk = int.from_bytes(self.data[byte : byte + 5], "big")
        v = (chunk >> (40 - (self.pos & 7) - n)) & ((1 << n) - 1)
        self.pos += n
        return v


def _receive_extend(r: _BitReader, size: int) -> int:
    if size == 0:
        return 0
    v = r.take(size)
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


def _split_entropy(buf: bytes, pos: int) -> tuple[list[bytes], int]:
    """Entropy-coded bytes starting at ``pos``: unstuff 0xFF00, split at
    RSTn markers; returns (segments, position of the next real marker).

    Vectorized: every 0xFF in the stream is a pair-start (stuffed 0x00 or
    RSTn second bytes are never 0xFF), so one flatnonzero finds them all —
    the first whose successor is a real marker ends the scan. The old
    per-byte loop was ~25% of a full decode once entropy moved to C."""
    a = np.frombuffer(buf, np.uint8)
    n = len(a)
    ff = np.flatnonzero(a[pos:] == 0xFF) + pos
    # successor byte; a trailing 0xFF with nothing after acts as EOI
    nxt = np.where(ff + 1 < n, a[np.minimum(ff + 1, n - 1)], 0xD9)
    is_stuff = nxt == 0x00
    is_rst = (nxt >= 0xD0) & (nxt <= 0xD7)
    stops = np.flatnonzero(~(is_stuff | is_rst))
    end = int(ff[stops[0]]) if len(stops) else n
    in_scan = ff < end
    rst = ff[is_rst & in_scan]
    stuff = ff[is_stuff & in_scan]
    seg_starts = np.concatenate([[pos], rst + 2])
    seg_stops = np.concatenate([rst, [end]])
    segments = []
    for s0, s1 in zip(seg_starts, seg_stops):
        seg = a[s0:s1]
        st = stuff[(stuff >= s0) & (stuff < s1)]
        if len(st):
            seg = np.delete(seg, st - s0 + 1)  # drop the 0x00 after each FF
        segments.append(seg.tobytes())
    return segments, end


def _decode_baseline_scan(store, scan, huff, restart_interval, segments,
                          mcus_x, mcus_y):
    """Sequential (SOF0/1) scan → full coefficient blocks. A multi-component
    scan walks the interleaved MCU lattice (v×h blocks per component per
    MCU); a single-component scan is non-interleaved per T.81 §A.2 — one
    data unit per MCU over the component's OWN ceil-grid (wib×hib) in
    raster order, the geometry multi-scan baseline files (e.g. libjpeg
    scan scripts) require.

    The hot loop is fully inlined: bit reads work on local (data, pos)
    ints, the 16-bit Huffman lookahead tables in ``huff`` arrive as plain
    ``bytes`` built once per table content by the memoized _decode_lut
    (C-speed indexing — ``int(np_scalar)`` per coefficient was ~40% of
    entropy time), and each block's coefficients build in a Python list
    with one vectorized copy into the numpy store.

    When a C compiler is present, the bit-exact compiled version of this
    loop takes over (projcl_ray/fastcodec.py — entropy decoding is
    sequential by construction, so C is the only way past the Python
    bytecode ceiling); this body is the always-available fallback and the
    parity oracle."""
    from . import fastcodec

    if fastcodec.jpeg_baseline_scan(store, scan, huff, restart_interval,
                                    segments, mcus_x, mcus_y):
        return
    seg_i = 0
    data = segments[0] + b"\x00" * 8
    pos = 0
    preds = {s["id"]: 0 for s in scan}
    from_bytes = int.from_bytes
    interleaved = len(scan) > 1
    units = mcus_x * mcus_y if interleaved else scan[0]["wib"] * scan[0]["hib"]
    for m in range(units):
        if restart_interval and m and m % restart_interval == 0:
            seg_i += 1
            data = segments[seg_i] + b"\x00" * 8
            pos = 0
            preds = {s["id"]: 0 for s in scan}
        for s in scan:
            dsym, dlen = huff[(0, s["dc"])]
            asym, alen = huff[(1, s["ac"])]
            sid = s["id"]
            st = store[sid]
            pred = preds[sid]
            if interleaved:
                my, mx = divmod(m, mcus_x)
                bidxs = [(my * s["v"] + by) * s["bpr"] + (mx * s["h"] + bx)
                         for by in range(s["v"]) for bx in range(s["h"])]
            else:
                row, col = divmod(m, s["wib"])
                bidxs = [row * s["bpr"] + col]
            for bidx in bidxs:
                    zz = [0] * 64
                    byte = pos >> 3
                    pk = (from_bytes(data[byte:byte + 4], "big")
                          >> (16 - (pos & 7))) & 0xFFFF
                    size = dsym[pk]
                    ln = dlen[pk]
                    if ln == 0:
                        raise ValueError("corrupt JPEG: bad DC Huffman code")
                    pos += ln
                    if size:
                        byte = pos >> 3
                        v = (from_bytes(data[byte:byte + 5], "big")
                             >> (40 - (pos & 7) - size)) & ((1 << size) - 1)
                        pos += size
                        pred += v if v >= (1 << (size - 1)) else v - (1 << size) + 1
                    zz[0] = pred
                    k = 1
                    while k < 64:
                        byte = pos >> 3
                        pk = (from_bytes(data[byte:byte + 4], "big")
                              >> (16 - (pos & 7))) & 0xFFFF
                        rs = asym[pk]
                        ln = alen[pk]
                        if ln == 0:
                            raise ValueError("corrupt JPEG: bad AC Huffman code")
                        pos += ln
                        if rs == 0x00:  # EOB
                            break
                        if rs == 0xF0:  # ZRL
                            k += 16
                            continue
                        k += rs >> 4
                        if k > 63:
                            raise ValueError("corrupt JPEG: AC index overflow")
                        size = rs & 15
                        byte = pos >> 3
                        v = (from_bytes(data[byte:byte + 5], "big")
                             >> (40 - (pos & 7) - size)) & ((1 << size) - 1)
                        pos += size
                        zz[k] = v if v >= (1 << (size - 1)) else v - (1 << size) + 1
                        k += 1
                    st[bidx] = zz
            preds[sid] = pred


def _decode_progressive_scan(store, scan, huff, Ss, Se, Ah, Al,
                             restart_interval, segments, mcus_x, mcus_y):
    """One progressive (SOF2) scan per ITU T.81 §G.1.2: DC first/refine
    (interleaved allowed), AC first/refine with EOB runs and correction
    bits (single-component, non-interleaved). Mutates ``store`` in place;
    coefficients live in zigzag order at successive-approximation precision.

    Delegates to the compiled bit-exact version when available (see
    _decode_baseline_scan); this body is the fallback and parity oracle."""
    from . import fastcodec

    if fastcodec.jpeg_progressive_scan(store, scan, huff, Ss, Se, Ah, Al,
                                       restart_interval, segments,
                                       mcus_x, mcus_y):
        return
    seg_i = 0
    r = _BitReader(segments[0])
    eobrun = 0
    preds = {s["id"]: 0 for s in scan}

    def restart():
        nonlocal r, seg_i, eobrun, preds
        seg_i += 1
        r = _BitReader(segments[seg_i])
        eobrun = 0
        preds = {s["id"]: 0 for s in scan}

    def huffdec(tbl):
        sym, ln = tbl
        pk = r.peek16()
        l = ln[pk]
        if l == 0:
            raise ValueError("corrupt JPEG: bad Huffman code")
        r.pos += l
        return sym[pk]

    if Ss == 0:  # DC scan (first or refinement)
        if Se != 0:
            raise ValueError("corrupt JPEG: DC scan with Se != 0")
        interleaved = len(scan) > 1
        units = mcus_x * mcus_y if interleaved else scan[0]["wib"] * scan[0]["hib"]
        for m in range(units):
            if restart_interval and m and m % restart_interval == 0:
                restart()
            for s in scan:
                st = store[s["id"]]
                if interleaved:
                    my, mx = divmod(m, mcus_x)
                    blocks = [
                        (my * s["v"] + by) * s["bpr"] + (mx * s["h"] + bx)
                        for by in range(s["v"]) for bx in range(s["h"])
                    ]
                else:
                    row, col = divmod(m, s["wib"])
                    blocks = [row * s["bpr"] + col]
                for bidx in blocks:
                    if Ah == 0:
                        size = huffdec(huff[(0, s["dc"])])
                        preds[s["id"]] += _receive_extend(r, size)
                        st[bidx, 0] = preds[s["id"]] << Al
                    elif r.take(1):
                        st[bidx, 0] |= 1 << Al
        return

    # AC scan: single component, non-interleaved (T.81 G.1.1.1)
    if len(scan) != 1:
        raise ValueError("corrupt JPEG: interleaved progressive AC scan")
    s = scan[0]
    st = store[s["id"]]
    atbl = huff[(1, s["ac"])]
    p1, m1 = 1 << Al, -1 << Al
    for m in range(s["wib"] * s["hib"]):
        if restart_interval and m and m % restart_interval == 0:
            restart()
        row, col = divmod(m, s["wib"])
        blk = st[row * s["bpr"] + col]
        if Ah == 0:  # first scan for this band
            if eobrun > 0:
                eobrun -= 1
                continue
            k = Ss
            while k <= Se:
                rs = huffdec(atbl)
                r4, sz = rs >> 4, rs & 15
                if sz:
                    k += r4
                    if k > Se:
                        raise ValueError("corrupt JPEG: AC index overflow")
                    blk[k] = _receive_extend(r, sz) << Al
                    k += 1
                elif r4 != 15:  # EOBn
                    eobrun = (1 << r4) - 1
                    if r4:
                        eobrun += r.take(r4)
                    break
                else:  # ZRL
                    k += 16
        else:  # refinement scan (T.81 G.1.2.3 / libjpeg decode_mcu_AC_refine)
            k = Ss
            if eobrun == 0:
                while k <= Se:
                    rs = huffdec(atbl)
                    r4, sz = rs >> 4, rs & 15
                    val = 0
                    if sz == 0:
                        if r4 != 15:  # EOBn: rest of band via the tail below
                            eobrun = 1 << r4
                            if r4:
                                eobrun += r.take(r4)
                            break
                        # ZRL: skip 16 zero-history coefficients
                    else:
                        val = p1 if r.take(1) else m1  # newly nonzero ±1<<Al
                    # advance over r4 zero-history coefficients, applying
                    # correction bits to every nonzero-history one passed
                    while k <= Se:
                        c = int(blk[k])
                        if c != 0:
                            if r.take(1) and (c & p1) == 0:
                                blk[k] = c + (p1 if c >= 0 else m1)
                        else:
                            if r4 == 0:
                                break
                            r4 -= 1
                        k += 1
                    if val:
                        if k > Se:
                            raise ValueError("corrupt JPEG: AC index overflow")
                        blk[k] = val
                    k += 1
            if eobrun > 0:
                while k <= Se:  # tail of this block: correction bits only
                    c = int(blk[k])
                    if c != 0:
                        if r.take(1) and (c & p1) == 0:
                            blk[k] = c + (p1 if c >= 0 else m1)
                    k += 1
                eobrun -= 1


@corrupt_guard("JPEG")
def decode_jpeg(buf: bytes) -> np.ndarray:
    """Baseline (SOF0/1) or progressive (SOF2) JFIF bytes → (h, w, 4) uint8
    RGBA. Progressive files decode scan by scan into the shared coefficient
    store; tables may be redefined between scans.

    12-bit-precision files (SOF1 extended sequential, the archival/DEM
    variant; 16-bit DQT supported) return native-range uint16 instead —
    (h, w) for grayscale, (h, w, 3) for color — the same deep-sample
    convention as tiff.decode_tiff_native."""
    return _decode_tail(*_decode_coefficients(buf))


def _decode_coefficients(buf: bytes) -> tuple:
    """Markers and scans of a JPEG file → (frame, coefficient store,
    quantization tables, sample precision), the input of _decode_tail."""
    if buf[:2] != b"\xFF\xD8":
        raise ValueError("not a JPEG (no SOI)")
    pos = 2
    qtbl: dict[int, np.ndarray] = {}  # natural order, int32
    huff: dict[tuple[int, int], tuple[bytes, bytes]] = {}
    restart_interval = 0
    frame = None
    sample_prec = 8
    progressive = False
    store: dict[int, np.ndarray] | None = None
    comps: list[dict] = []
    mcus_x = mcus_y = 0
    while pos + 2 <= len(buf):
        if buf[pos] != 0xFF:
            raise ValueError("corrupt JPEG: lost marker sync")
        # T.81 B.1.1.2: any number of 0xFF fill bytes may precede a marker
        while pos + 2 <= len(buf) and buf[pos + 1] == 0xFF:
            pos += 1
        if pos + 2 > len(buf):
            break
        marker = buf[pos + 1]
        if marker == 0xD9:  # EOI
            break
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:  # standalone markers
            pos += 2
            continue
        (seglen,) = struct.unpack_from(">H", buf, pos + 2)
        seg = buf[pos + 4 : pos + 2 + seglen]
        pos += 2 + seglen
        if marker == 0xDB:  # DQT (Pq=0: 8-bit entries; Pq=1: 16-bit — the
            p = 0           # 12-bit-sample form, T.81 B.2.4.1)
            while p < len(seg):
                prec, tid = seg[p] >> 4, seg[p] & 15
                if prec not in (0, 1):
                    raise ValueError("corrupt JPEG: bad DQT precision")
                q = np.zeros(64, np.int32)  # natural order
                if prec == 0:
                    q[ZIGZAG] = np.frombuffer(seg[p + 1 : p + 65], np.uint8)
                    p += 65
                else:
                    q[ZIGZAG] = np.frombuffer(seg[p + 1 : p + 129], ">u2")
                    p += 129
                qtbl[tid] = q
        elif marker == 0xC4:  # DHT
            p = 0
            while p < len(seg):
                if p + 17 > len(seg):
                    raise ValueError("corrupt JPEG: truncated DHT segment")
                tc, tid = seg[p] >> 4, seg[p] & 15
                nv = sum(seg[p + 1 : p + 17])
                if p + 17 + nv > len(seg):
                    raise ValueError("corrupt JPEG: truncated DHT segment")
                huff[(tc, tid)] = _decode_lut(bytes(seg[p + 1 : p + 17 + nv]))
                p += 17 + nv
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1 baseline, SOF2 progressive
            progressive = marker == 0xC2
            prec, fh, fw, nc = struct.unpack_from(">BHHB", seg, 0)
            if prec not in (8, 12):  # 12 = extended sequential (T.81 §4.11)
                raise NotImplementedError("only 8- and 12-bit JPEG supported")
            sample_prec = prec
            comps = []
            for i in range(nc):
                cid, hv, tq = struct.unpack_from("BBB", seg, 6 + 3 * i)
                hi, vi = hv >> 4, hv & 15
                # T.81 A.1.1: sampling factors are 1..4 — reject here so
                # file-controlled factors can't oversize the per-MCU block
                # list anywhere downstream
                if not (1 <= hi <= 4 and 1 <= vi <= 4):
                    raise ValueError(f"corrupt JPEG: sampling factor {hi}x{vi}")
                comps.append({"id": cid, "h": hi, "v": vi, "tq": tq})
            frame = (fh, fw, comps)
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                "only baseline (SOF0/1) and progressive (SOF2) JPEG supported")
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xDA:  # SOS — decode this scan's entropy data inline
            if frame is None:
                raise ValueError("corrupt JPEG: SOS before SOF")
            fh, fw, comps = frame
            if store is None:
                hmax = max(c["h"] for c in comps)
                vmax = max(c["v"] for c in comps)
                mcus_x = -(-fw // (8 * hmax))
                mcus_y = -(-fh // (8 * vmax))
                # every coded block costs >= 1 bit of some scan, so a real
                # image can't have more blocks than 8x its file size — a
                # lying SOF must fail as corrupt, not as a 17 GB allocation
                total_blocks = sum(
                    (mcus_y * c["v"]) * (mcus_x * c["h"]) for c in comps)
                if total_blocks > 8 * len(buf) + 1024:
                    raise ValueError(
                        "corrupt JPEG: frame larger than its data could code")
                store = {}
                for c in comps:
                    c["bpr"] = mcus_x * c["h"]
                    c["bpc"] = mcus_y * c["v"]
                    # non-interleaved scans cover only the component's own
                    # ceil-grid, not the MCU-aligned padding blocks
                    comp_w = -(-fw * c["h"] // hmax)
                    comp_h = -(-fh * c["v"] // vmax)
                    c["wib"] = -(-comp_w // 8)
                    c["hib"] = -(-comp_h // 8)
                    store[c["id"]] = np.zeros((c["bpc"] * c["bpr"], 64), np.int32)
            ns = seg[0]
            if len(seg) < 4 + 2 * ns:
                raise ValueError("corrupt JPEG: truncated SOS header")
            by_id = {c["id"]: c for c in comps}
            scan = []
            for i in range(ns):
                cs, tt = seg[1 + 2 * i], seg[2 + 2 * i]
                if cs not in by_id:
                    raise ValueError(
                        "corrupt JPEG: scan references undefined component")
                sc = {"id": cs, "dc": tt >> 4, "ac": tt & 15}
                sc.update(by_id[cs])
                scan.append(sc)
            Ss, Se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ah_al = seg[3 + 2 * ns]
            Ah, Al = ah_al >> 4, ah_al & 15
            # T.81 G.1.1.1.1: DC scans are exactly band 0..0, AC scans a
            # band inside 1..63 — out-of-range Se would index past the
            # 64-coefficient block in every scan decoder
            if progressive and not (
                    (Ss == 0 and Se == 0) or 0 < Ss <= Se <= 63):
                raise ValueError("corrupt JPEG: invalid spectral selection")
            for sc in scan:  # every table the scan decoders will look up
                if progressive:
                    needs = ([(0, sc["dc"])] if Ss == 0 and Ah == 0 else [])
                    needs += [(1, sc["ac"])] if Ss > 0 else []
                else:
                    needs = [(0, sc["dc"]), (1, sc["ac"])]
                for key in needs:
                    if key not in huff:
                        raise ValueError(
                            "corrupt JPEG: scan uses undefined Huffman table")
            segments, pos = _split_entropy(buf, pos)
            if progressive:
                _decode_progressive_scan(store, scan, huff, Ss, Se, Ah, Al,
                                         restart_interval, segments,
                                         mcus_x, mcus_y)
            else:
                _decode_baseline_scan(store, scan, huff, restart_interval,
                                      segments, mcus_x, mcus_y)
        # APPn/COM/others: skipped
    if frame is None or store is None:
        raise ValueError("corrupt JPEG: missing SOF/SOS")
    return frame, store, qtbl, sample_prec


def _decode_tail(frame: tuple, store: dict, qtbl: dict, prec: int) -> np.ndarray:
    """Dequantize, IDCT and clamp each component (_component_plane), upsample
    each plane by replication to the largest sampling factor (libjpeg's
    non-fancy upsampling) and convert: (h, w, 4) uint8 RGBA at 8-bit
    precision; native-range uint16, (h, w) gray or (h, w, 3) RGB, at 12-bit."""
    fh, fw, comps = frame
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    if any(hmax % c["h"] or vmax % c["v"] for c in comps):
        raise NotImplementedError("JPEG: non-integral sampling ratios unsupported")
    comps = comps[:3]  # gray, or YCbCr from the first three components
    planes = [_component_plane(store[c["id"]], qtbl[c["tq"]], c["bpr"], c["bpc"],
                               prec) for c in comps]
    factors = [(hmax // c["h"], vmax // c["v"]) for c in comps]
    if prec == 8:
        from . import fastcodec

        out = fastcodec.jpeg_ycc_rgba(planes, factors, fh, fw)
        if out is not None:
            return out
    full = [np.repeat(np.repeat(p, fy, axis=0), fx, axis=1)[:fh, :fw]
            for p, (fx, fy) in zip(planes, factors)]
    if len(full) == 1:
        rgb = full[0]
    else:
        y, cb, cr = full
        crr, crg, cbg, cbb = _ycc_tables(prec)
        y = y.astype(np.int64)
        rgb = np.clip(np.stack([y + crr[cr], y + ((cbg[cb] + crg[cr]) >> 16),
                                y + cbb[cb]], axis=-1), 0, (1 << prec) - 1)
    if prec == 12:
        # deep samples keep their native range: the archival/DEM layout,
        # same convention as tiff.decode_tiff_native
        return rgb.astype(np.uint16)
    out = np.empty((fh, fw, 4), np.uint8)
    out[..., :3] = rgb[..., None] if rgb.ndim == 2 else rgb
    out[..., 3] = 255
    return out
