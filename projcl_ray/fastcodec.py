"""Optional C accelerator for the sequential codec hot loops and the warp
kernel's bilinear sampler.

The in-repo codecs are pure Python by design (always available, the
determinism oracle) — but entropy decoding is one-Huffman-code-at-a-time
sequential and can't be vectorized with numpy, so on a compressed image
corpus the Python loop is the throughput ceiling (~2 MB/s/core). When a
system C compiler is present, `_fastcodec.c` (the same T.81 algorithm,
bit-exact) is compiled ONCE per machine into a cached shared object and
loaded with ctypes; every failure mode — no compiler, build error, load
error, `PROJCL_NO_FASTCODEC=1` — falls back to the pure-Python path
silently. Parity is pinned in tests/test_warp.py (JPEG/PNG/TIFF) and
tests/test_mosaic_media.py (FLAC); the bilinear sampler (the one per-pixel
loop numpy runs as 4 gathers plus ~12 temporaries) in tests/test_warp.py.

Concurrency: Ray workers race to build on first use; each builds to a
pid-suffixed temp file and `os.replace`s it into place (atomic on POSIX),
so the winner is complete and the losers' work is discarded.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

_LIB = None
_TRIED = False


def _disabled() -> bool:
    return os.environ.get("PROJCL_NO_FASTCODEC", "").lower() in (
        "1", "true", "yes", "on")


def lib():
    """The loaded shared object, building it first if needed; None when
    unavailable for any reason (the caller uses the pure-Python path)."""
    global _LIB, _TRIED
    if _TRIED:
        return _LIB
    _TRIED = True
    src = os.path.join(os.path.dirname(__file__), "_fastcodec.c")
    try:
        with open(src, "rb") as f:
            tag = hashlib.sha256(f.read()).hexdigest()[:16]
    except OSError:
        return None
    cache_dir = os.environ.get("PROJCL_FASTCODEC_DIR")
    if cache_dir is None:
        # a predictable path in world-writable /tmp would let another local
        # user plant a .so before our first build — use a 0700 dir we own
        cache_dir = os.path.join(
            os.path.expanduser("~"), ".cache", "projcl_ray")
    try:
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        st = os.stat(cache_dir)
        if st.st_uid != os.getuid() or (st.st_mode & 0o022):
            cache_dir = tempfile.mkdtemp(prefix="projcl_fastcodec_")
    except OSError:
        try:
            cache_dir = tempfile.mkdtemp(prefix="projcl_fastcodec_")
        except OSError:
            return None
    so = os.path.join(cache_dir, f"projcl_fastcodec_{tag}.so")
    if not os.path.exists(so):
        tmp = f"{so}.build{os.getpid()}"
        try:
            subprocess.run(
                ["cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                 "-o", tmp, src],
                check=True, capture_output=True, timeout=120)
            os.replace(tmp, so)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
    try:
        L = ctypes.CDLL(so)
        i32p = ctypes.POINTER(ctypes.c_int32)
        strs = ctypes.POINTER(ctypes.c_char_p)
        L.jpeg_baseline_segment.restype = ctypes.c_long
        L.jpeg_baseline_segment.argtypes = [
            ctypes.c_char_p, ctypes.c_long,                 # data, nbytes
            ctypes.c_long, ctypes.c_long, ctypes.c_long,    # m_start/count, mcus_x
            ctypes.c_int, ctypes.c_int,                     # interleaved, ncomp
            strs, strs, strs, strs,                         # dc/ac LUTs
            i32p, i32p, i32p, i32p,                         # v, h, bpr, wib
            ctypes.POINTER(i32p),
        ]
        L.jpeg_prog_dc_segment.restype = ctypes.c_long
        L.jpeg_prog_dc_segment.argtypes = [
            ctypes.c_char_p, ctypes.c_long,                 # data, nbytes
            ctypes.c_long, ctypes.c_long, ctypes.c_long,
            ctypes.c_int, ctypes.c_int,                     # interleaved, ncomp
            ctypes.c_int, ctypes.c_int,                     # Ah, Al
            strs, strs,                                     # dc LUTs
            i32p, i32p, i32p, i32p,
            ctypes.POINTER(i32p),
        ]
        L.jpeg_prog_ac_segment.restype = ctypes.c_long
        L.jpeg_prog_ac_segment.argtypes = [
            ctypes.c_char_p, ctypes.c_long,                 # data, nbytes
            ctypes.c_long, ctypes.c_long,
            ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,  # Ss Se Ah Al
            ctypes.c_char_p, ctypes.c_char_p,               # ac LUT
            ctypes.c_int32, ctypes.c_int32,                 # bpr, wib
            i32p,
        ]
        i64p = ctypes.POINTER(ctypes.c_int64)
        L.flac_rice.restype = ctypes.c_long
        L.flac_rice.argtypes = [
            ctypes.c_char_p, ctypes.c_long, ctypes.c_long,  # data, nbits, pos
            ctypes.c_long, ctypes.c_int, i64p,              # n, k, out
        ]
        L.flac_lpc_restore.restype = None
        L.flac_lpc_restore.argtypes = [
            i64p, ctypes.c_int, i64p, ctypes.c_long,        # warm, order, res, n
            i32p, ctypes.c_int, i64p,                       # coefs, shift, out
        ]
        L.flac_crc16.restype = ctypes.c_long
        L.flac_crc16.argtypes = [ctypes.c_char_p, ctypes.c_long]
        u8p = ctypes.POINTER(ctypes.c_uint8)
        L.png_unfilter.restype = ctypes.c_long
        L.png_unfilter.argtypes = [
            u8p, ctypes.c_long, ctypes.c_long, ctypes.c_int, u8p,
        ]
        L.tiff_lzw_decode.restype = ctypes.c_long
        L.tiff_lzw_decode.argtypes = [
            ctypes.c_char_p, ctypes.c_long, u8p, ctypes.c_long,
        ]
        u16p = ctypes.POINTER(ctypes.c_uint16)
        i64pp = ctypes.POINTER(ctypes.POINTER(ctypes.c_int64))
        L.jpeg_prog_enc_dc.restype = ctypes.c_long
        L.jpeg_prog_enc_dc.argtypes = [
            ctypes.POINTER(i32p), ctypes.c_long, ctypes.c_long,
            ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
            i32p, i32p, i32p, i32p, i32p,                   # v h bpr wib hib
            ctypes.c_int, i64pp,
            ctypes.POINTER(u16p), ctypes.POINTER(u8p),
            u8p, ctypes.c_long,
        ]
        L.jpeg_prog_enc_ac_first.restype = ctypes.c_long
        L.jpeg_prog_enc_ac_first.argtypes = [
            i32p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
            ctypes.c_int, ctypes.c_int, ctypes.c_int,
            ctypes.c_int, ctypes.POINTER(ctypes.c_int64),
            u16p, u8p, u8p, ctypes.c_long,
        ]
        L.jpeg_prog_enc_ac_refine.restype = ctypes.c_long
        L.jpeg_prog_enc_ac_refine.argtypes = [
            i32p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
            ctypes.c_int, ctypes.c_int, ctypes.c_int,
            ctypes.c_int, ctypes.POINTER(ctypes.c_int64),
            u16p, u8p, u8p, ctypes.c_long, u8p, ctypes.c_long,
        ]
        L.jpeg_encode_segment.restype = ctypes.c_long
        L.jpeg_encode_segment.argtypes = [
            ctypes.POINTER(i32p),                           # stores
            ctypes.c_long, ctypes.c_long, ctypes.c_long,    # m_start/count, mcus_x
            ctypes.c_int, ctypes.c_int,                     # interleaved, ncomp
            ctypes.POINTER(u16p), ctypes.POINTER(u8p),      # dc code/len
            ctypes.POINTER(u16p), ctypes.POINTER(u8p),      # ac code/len
            i32p, i32p, i32p, i32p,                         # v, h, bpr, wib
            u8p, ctypes.c_long,                             # out, cap
        ]
        L.gif_lzw_decode.restype = ctypes.c_long
        L.gif_lzw_decode.argtypes = [
            ctypes.c_char_p, ctypes.c_long, ctypes.c_int, u8p, ctypes.c_long,
        ]
        i16p = ctypes.POINTER(ctypes.c_int16)
        L.tiff_lzw_encode.restype = ctypes.c_long
        L.tiff_lzw_encode.argtypes = [
            ctypes.c_char_p, ctypes.c_long, i16p, u8p, ctypes.c_long,
        ]
        L.gif_lzw_encode.restype = ctypes.c_long
        L.gif_lzw_encode.argtypes = [
            ctypes.c_char_p, ctypes.c_long, ctypes.c_int, i16p, u8p,
            ctypes.c_long,
        ]
        L.ima_encode_rows.restype = None
        L.ima_encode_rows.argtypes = [
            i32p, ctypes.c_long, ctypes.c_long,             # flat, rows, spb
            i32p, u8p,                                      # idx0, nibs out
        ]
        L.ima_decode_rows.restype = None
        L.ima_decode_rows.argtypes = [
            u8p, ctypes.c_long, ctypes.c_long,              # nibs, rows, steps
            i32p, i32p, i16p,                               # pred0, idx0, out
        ]
        L.flac_plan_full.restype = ctypes.c_long
        L.flac_plan_full.argtypes = [
            i64p, ctypes.c_long, ctypes.c_long,             # res, n, bs
            ctypes.c_int, u8p, i32p,                        # order, kinds, vals
            i32p,                                           # porder out
        ]
        f32p = ctypes.POINTER(ctypes.c_float)
        L.warp_bilinear_u8.restype = None
        L.warp_bilinear_u8.argtypes = [
            u8p, ctypes.c_long, ctypes.c_long, ctypes.c_long,  # img, h, w, c
            f32p, f32p, ctypes.c_long, f32p,                # px, py, n, out
        ]
        _LIB = L
    except OSError:
        _LIB = None
    return _LIB


def jpeg_baseline_scan(store, scan, huff, restart_interval, segments,
                       mcus_x, mcus_y) -> bool:
    """C path for jpeg._decode_baseline_scan. Returns True when it decoded
    the scan (store mutated in place), False when the caller must run the
    pure-Python loop. Raises the same ValueError the pure loop raises on
    corrupt entropy data."""
    if _disabled():
        return False
    L = lib()
    if L is None:
        return False
    ncomp = len(scan)
    if ncomp > 4:
        return False
    interleaved = ncomp > 1
    units = mcus_x * mcus_y if interleaved else scan[0]["wib"] * scan[0]["hib"]
    luts = {}
    for s in scan:
        for key in ((0, s["dc"]), (1, s["ac"])):
            if key not in luts:
                sym, ln = huff[key]
                luts[key] = (sym.tobytes(), ln.tobytes())
    dsym = (ctypes.c_char_p * ncomp)(*[luts[(0, s["dc"])][0] for s in scan])
    dlen = (ctypes.c_char_p * ncomp)(*[luts[(0, s["dc"])][1] for s in scan])
    asym = (ctypes.c_char_p * ncomp)(*[luts[(1, s["ac"])][0] for s in scan])
    alen = (ctypes.c_char_p * ncomp)(*[luts[(1, s["ac"])][1] for s in scan])
    vv = (ctypes.c_int32 * ncomp)(*[s["v"] for s in scan])
    hh = (ctypes.c_int32 * ncomp)(*[s["h"] for s in scan])
    bpr = (ctypes.c_int32 * ncomp)(*[s["bpr"] for s in scan])
    wib = (ctypes.c_int32 * ncomp)(*[s["wib"] for s in scan])
    arrs = []
    ptrs = (ctypes.POINTER(ctypes.c_int32) * ncomp)()
    for i, s in enumerate(scan):
        a = store[s["id"]]
        if a.dtype != np.int32 or not a.flags.c_contiguous:
            return False  # pure path handles it; never hand ctypes a bad view
        arrs.append(a)
        ptrs[i] = a.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))
    step = restart_interval or units
    if len(segments) * step < units:
        raise ValueError("corrupt JPEG: missing restart segments")
    for i, seg in enumerate(segments):
        m_start = i * step
        m_count = min(step, units - m_start)
        if m_count <= 0:
            break
        rc = L.jpeg_baseline_segment(
            seg + b"\x00" * 64, len(seg), m_start, m_count, mcus_x,
            int(interleaved), ncomp, dsym, dlen, asym, alen,
            vv, hh, bpr, wib, ptrs)
        if rc != 0:
            raise ValueError(f"corrupt JPEG: entropy decode failed ({rc})")
    return True


def jpeg_progressive_scan(store, scan, huff, Ss, Se, Ah, Al,
                          restart_interval, segments, mcus_x, mcus_y) -> bool:
    """C path for one progressive (SOF2) scan — DC first/refine (interleaved
    allowed) or AC first/refine with EOB runs. Same return/raise contract
    as jpeg_baseline_scan; invalid scan headers return False so the pure
    loop raises its specific error."""
    if _disabled():
        return False
    L = lib()
    if L is None:
        return False
    if Ss == 0:  # DC scan
        if Se != 0 or len(scan) > 4:
            return False
        ncomp = len(scan)
        interleaved = ncomp > 1
        units = (mcus_x * mcus_y if interleaved
                 else scan[0]["wib"] * scan[0]["hib"])
        tabs = [huff[(0, s["dc"])] for s in scan] if Ah == 0 else None
        syms = ([t[0].tobytes() for t in tabs] if tabs
                else [b""] * ncomp)  # refinement reads raw bits only
        lens = [t[1].tobytes() for t in tabs] if tabs else [b""] * ncomp
        dsym = (ctypes.c_char_p * ncomp)(*syms)
        dlen = (ctypes.c_char_p * ncomp)(*lens)
        vv = (ctypes.c_int32 * ncomp)(*[s["v"] for s in scan])
        hh = (ctypes.c_int32 * ncomp)(*[s["h"] for s in scan])
        bpr = (ctypes.c_int32 * ncomp)(*[s["bpr"] for s in scan])
        wib = (ctypes.c_int32 * ncomp)(*[s["wib"] for s in scan])
        ptrs = (ctypes.POINTER(ctypes.c_int32) * ncomp)()
        arrs = []
        for i, s in enumerate(scan):
            a = store[s["id"]]
            if a.dtype != np.int32 or not a.flags.c_contiguous:
                return False  # pure path handles it; never hand ctypes a bad view
            arrs.append(a)
            ptrs[i] = a.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))
        step = restart_interval or units
        if len(segments) * step < units:
            raise ValueError("corrupt JPEG: missing restart segments")
        for i, seg in enumerate(segments):
            m_start = i * step
            m_count = min(step, units - m_start)
            if m_count <= 0:
                break
            rc = L.jpeg_prog_dc_segment(
                seg + b"\x00" * 64, len(seg), m_start, m_count, mcus_x,
                int(interleaved), ncomp, Ah, Al, dsym, dlen,
                vv, hh, bpr, wib, ptrs)
            if rc != 0:
                raise ValueError(f"corrupt JPEG: entropy decode failed ({rc})")
        return True
    # AC scan: single component, non-interleaved
    if len(scan) != 1:
        return False
    s = scan[0]
    a = store[s["id"]]
    if a.dtype != np.int32 or not a.flags.c_contiguous:
        return False  # pure path handles it; never hand ctypes a bad view
    sym, ln = huff[(1, s["ac"])]
    sym_b, len_b = sym.tobytes(), ln.tobytes()
    units = s["wib"] * s["hib"]
    step = restart_interval or units
    if len(segments) * step < units:
        raise ValueError("corrupt JPEG: missing restart segments")
    for i, seg in enumerate(segments):
        m_start = i * step
        m_count = min(step, units - m_start)
        if m_count <= 0:
            break
        rc = L.jpeg_prog_ac_segment(
            seg + b"\x00" * 64, len(seg), m_start, m_count, Ss, Se, Ah, Al,
            sym_b, len_b, s["bpr"], s["wib"],
            a.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)))
        if rc != 0:
            raise ValueError(f"corrupt JPEG: entropy decode failed ({rc})")
    return True


def flac_rice(data: bytes, nbits: int, pos: int, n: int, k: int):
    """C path for flac._rice_decode: returns (values int64 array, new bit
    position) or None when unavailable. Raises on truncation like the pure
    loop."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    out = np.empty(n, np.int64)
    rc = L.flac_rice(data, nbits, pos, n, k,
                     out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)))
    if rc < 0:
        raise ValueError("corrupt FLAC: truncated Rice partition")
    return out, int(rc)


def flac_crc16(data: bytes):
    """C path for flac._crc16 (byte-sequential table CRC); None when
    unavailable."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    return int(L.flac_crc16(data, len(data)))


def flac_lpc_restore(warm, res, coefs, shift):
    """C path for flac._lpc_restore: returns the restored int64 array or
    None when unavailable."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    warm = np.ascontiguousarray(warm, np.int64)
    res = np.ascontiguousarray(res, np.int64)
    cf = np.ascontiguousarray(coefs, np.int32)
    out = np.empty(len(warm) + len(res), np.int64)
    i64p = ctypes.POINTER(ctypes.c_int64)
    L.flac_lpc_restore(
        warm.ctypes.data_as(i64p), len(warm),
        res.ctypes.data_as(i64p), len(res),
        cf.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)), shift,
        out.ctypes.data_as(i64p))
    return out


def png_unfilter(stream, h: int, stride: int, bpp: int):
    """C path for png._unfilter: returns the (h, stride) uint8 array or
    None when unavailable. Raises ValueError on a bad filter type like the
    pure path."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    stream = np.ascontiguousarray(stream, np.uint8)
    out = np.empty((h, stride), np.uint8)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    rc = L.png_unfilter(stream.ctypes.data_as(u8p), h, stride, bpp,
                        out.ctypes.data_as(u8p))
    if rc != 0:
        raise ValueError(f"corrupt PNG: filter {-rc}")
    return out


def tiff_lzw_decode(data: bytes, expected: int):
    """C path for tiff._lzw_decode_tiff: returns the decoded bytes (short
    if EOI ends the stream early, like the pure path) or None when
    unavailable. Raises ValueError on truncation/corrupt codes."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    out = np.empty(expected, np.uint8)
    rc = L.tiff_lzw_decode(data, len(data),
                           out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
                           expected)
    if rc == -1:
        raise ValueError("TIFF: LZW stream truncated")
    if rc < 0:
        raise ValueError("TIFF: corrupt LZW code")
    return out[:rc].tobytes()


def gif_lzw_decode(data: bytes, min_code_size: int, n_pixels: int):
    """C path for gif._lzw_decode: returns the (n_pixels,) uint8 index
    array or None when unavailable. Raises the pure path's errors on
    truncated/corrupt streams."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    out = np.empty(n_pixels, np.uint8)
    rc = L.gif_lzw_decode(data, len(data), min_code_size,
                          out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
                          n_pixels)
    if rc == -1:
        raise ValueError("GIF: LZW stream truncated")
    if rc == -3:
        raise ValueError("GIF: LZW stream ended early")
    if rc < 0:
        raise ValueError("GIF: corrupt LZW code")
    return out


def _codes_to_arrays(codes: dict):
    code = np.zeros(256, np.uint16)
    ln = np.zeros(256, np.uint8)
    for s, (c, l) in codes.items():
        code[s] = c
        ln[s] = l
    return code, ln


def jpeg_encode_scan(comps, tables, restart_interval, mcus_x, mcus_y,
                     *, interleaved):
    """C path for a baseline entropy scan (jpeg.encode_jpeg's writer loop):
    returns the complete stuffed byte stream including RSTn markers, or
    None when the compiled path is unavailable. Bit-exact with the pure
    _BitWriter/_encode_block path (parity pinned in pytest)."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    ncomp = len(comps)
    if ncomp > 4:
        return None
    units = (mcus_x * mcus_y if interleaved
             else comps[0]["wib"] * comps[0]["hib"])
    blocks_per_unit = (sum(c["v"] * c["h"] for c in comps)
                       if interleaved else 1)
    i32p = ctypes.POINTER(ctypes.c_int32)
    u16p = ctypes.POINTER(ctypes.c_uint16)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    arrs = []
    stores = (i32p * ncomp)()
    for i, c in enumerate(comps):
        a = np.ascontiguousarray(c["zz"], np.int32)
        arrs.append(a)
        stores[i] = a.ctypes.data_as(i32p)
    tabs = [tuple(_codes_to_arrays(t) for t in tables[i]) for i in range(ncomp)]
    arrs += [x for pair in tabs for t in pair for x in t]
    dcc = (u16p * ncomp)(*[t[0][0].ctypes.data_as(u16p) for t in tabs])
    dcl = (u8p * ncomp)(*[t[0][1].ctypes.data_as(u8p) for t in tabs])
    acc = (u16p * ncomp)(*[t[1][0].ctypes.data_as(u16p) for t in tabs])
    acl = (u8p * ncomp)(*[t[1][1].ctypes.data_as(u8p) for t in tabs])
    vv = (ctypes.c_int32 * ncomp)(*[c["v"] for c in comps])
    hh = (ctypes.c_int32 * ncomp)(*[c["h"] for c in comps])
    bpr = (ctypes.c_int32 * ncomp)(*[c["bpr"] for c in comps])
    wib = (ctypes.c_int32 * ncomp)(*[c["wib"] for c in comps])
    step = restart_interval or units
    pieces = []
    i = 0
    m_start = 0
    while m_start < units:
        m_count = min(step, units - m_start)
        cap = m_count * blocks_per_unit * 456 + 64
        buf = np.empty(cap, np.uint8)
        rc = L.jpeg_encode_segment(stores, m_start, m_count, mcus_x,
                                   int(interleaved), ncomp, dcc, dcl,
                                   acc, acl, vv, hh, bpr, wib,
                                   buf.ctypes.data_as(u8p), cap)
        if rc < 0:
            return None  # overflow/absent symbol: let the pure path handle it
        if i > 0:
            pieces.append(bytes([0xFF, 0xD0 + ((i - 1) % 8)]))
        pieces.append(buf[:rc].tobytes())
        m_start += m_count
        i += 1
    return b"".join(pieces)


def jpeg_prog_emit(scan_comps, Ss, Se, Ah, Al, mcus_x, mcus_y, codes=None):
    """C path for one progressive-encode scan emission. With codes=None
    (stats pass) returns {table_key: freq ndarray} like _StatSink.freq;
    with codes (write pass) returns the flushed stuffed bytes. None when
    the compiled path is unavailable."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    i32p = ctypes.POINTER(ctypes.c_int32)
    i64p = ctypes.POINTER(ctypes.c_int64)
    u16p = ctypes.POINTER(ctypes.c_uint16)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    write = codes is not None
    if Ss == 0:  # DC scan (interleaved allowed)
        ncomp = len(scan_comps)
        if ncomp > 4:
            return None
        interleaved = ncomp > 1
        arrs = []
        stores = (i32p * ncomp)()
        for i, c in enumerate(scan_comps):
            a = np.ascontiguousarray(c["zz"], np.int32)
            arrs.append(a)
            stores[i] = a.ctypes.data_as(i32p)
        vv = (ctypes.c_int32 * ncomp)(*[c["v"] for c in scan_comps])
        hh = (ctypes.c_int32 * ncomp)(*[c["h"] for c in scan_comps])
        bpr = (ctypes.c_int32 * ncomp)(*[c["bpr"] for c in scan_comps])
        wib = (ctypes.c_int32 * ncomp)(*[c["wib"] for c in scan_comps])
        hib = (ctypes.c_int32 * ncomp)(*[c["hib"] for c in scan_comps])
        units = (mcus_x * mcus_y if interleaved
                 else scan_comps[0]["wib"] * scan_comps[0]["hib"])
        blocks = units * (sum(c["v"] * c["h"] for c in scan_comps)
                          if interleaved else 1)
        if write:
            if Ah == 0:
                tabs = {}
                for c in scan_comps:
                    key = ("dc", c["td"])
                    if key not in tabs:
                        tabs[key] = _codes_to_arrays(codes[key])
                arrs += [x for t in tabs.values() for x in t]
                codep = (u16p * ncomp)(*[
                    tabs[("dc", c["td"])][0].ctypes.data_as(u16p)
                    for c in scan_comps])
                clenp = (u8p * ncomp)(*[
                    tabs[("dc", c["td"])][1].ctypes.data_as(u8p)
                    for c in scan_comps])
            else:  # DC refinement: raw bits only, no Huffman tables
                codep = clenp = None
            cap = blocks * 8 + 64
            buf = np.empty(cap, np.uint8)
            rc = L.jpeg_prog_enc_dc(stores, mcus_x, mcus_y, int(interleaved),
                                    ncomp, Ah, Al, vv, hh, bpr, wib, hib,
                                    1, None, codep, clenp,
                                    buf.ctypes.data_as(u8p), cap)
            return None if rc < 0 else buf[:rc].tobytes()
        if Ah != 0:
            return {}  # DC refinement emits no Huffman symbols
        freq_map = {}
        fptrs = (i64p * ncomp)()
        for i, c in enumerate(scan_comps):
            key = ("dc", c["td"])
            if key not in freq_map:
                freq_map[key] = np.zeros(256, np.int64)
            fptrs[i] = freq_map[key].ctypes.data_as(i64p)
        rc = L.jpeg_prog_enc_dc(stores, mcus_x, mcus_y, int(interleaved),
                                ncomp, Ah, Al, vv, hh, bpr, wib, hib,
                                0, fptrs, None, None, None, 0)
        return None if rc < 0 else freq_map
    # AC scan: single component
    c = scan_comps[0]
    a = np.ascontiguousarray(c["zz"], np.int32)
    key = ("ac", c["ta"])
    blocks = c["wib"] * c["hib"]
    if write:
        codearr, lenarr = _codes_to_arrays(codes[key])
        cap = blocks * 456 + 64
        buf = np.empty(cap, np.uint8)
        freq_arg = None
        code_arg = codearr.ctypes.data_as(u16p)
        len_arg = lenarr.ctypes.data_as(u8p)
        out_arg, cap_arg = buf.ctypes.data_as(u8p), cap
        mode = 1
    else:
        freq = np.zeros(256, np.int64)
        freq_arg = freq.ctypes.data_as(i64p)
        code_arg = len_arg = out_arg = None
        cap_arg = 0
        mode = 0
    if Ah == 0:
        rc = L.jpeg_prog_enc_ac_first(
            a.ctypes.data_as(i32p), c["wib"], c["hib"], c["bpr"],
            Ss, Se, Al, mode, freq_arg, code_arg, len_arg, out_arg, cap_arg)
    else:
        be = np.empty(blocks * 64 + 64, np.uint8)
        rc = L.jpeg_prog_enc_ac_refine(
            a.ctypes.data_as(i32p), c["wib"], c["hib"], c["bpr"],
            Ss, Se, Al, mode, freq_arg, code_arg, len_arg,
            be.ctypes.data_as(u8p), len(be), out_arg, cap_arg)
    if rc < 0:
        return None
    return buf[:rc].tobytes() if write else {key: freq}


def _lzw_encode_c(fn_name: str, data: bytes, *extra):
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    table = np.empty(4096 * 256, np.int16)
    cap = len(data) * 2 + 64  # worst case ~12 bits per input byte
    out = np.empty(cap, np.uint8)
    fn = getattr(L, fn_name)
    rc = fn(data, len(data), *extra,
            table.ctypes.data_as(ctypes.POINTER(ctypes.c_int16)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)), cap)
    return None if rc < 0 else out[:rc].tobytes()


def tiff_lzw_encode(data: bytes):
    """C path for tiff._lzw_encode_tiff; None when unavailable."""
    return _lzw_encode_c("tiff_lzw_encode", data)


def gif_lzw_encode(data: bytes, min_code_size: int):
    """C path for gif._lzw_encode; None when unavailable."""
    return _lzw_encode_c("gif_lzw_encode", data, min_code_size)


def ima_encode_rows(flat, idx0):
    """C path for media._ima_encode's greedy quantizer loop: flat is the
    (rows, spb) int32 PCM matrix (row = one block×channel chain), idx0 the
    per-row initial step index. Returns the (rows, spb-1) nibble matrix or
    None when unavailable (caller runs the lockstep numpy loop)."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    if (flat.dtype != np.int32 or not flat.flags.c_contiguous
            or flat.ndim != 2 or flat.shape[1] < 1):
        return None
    idx0 = np.ascontiguousarray(idx0, np.int32)
    rows, spb = flat.shape
    nibs = np.empty((rows, spb - 1), np.uint8)
    i32p = ctypes.POINTER(ctypes.c_int32)
    L.ima_encode_rows(flat.ctypes.data_as(i32p), rows, spb,
                      idx0.ctypes.data_as(i32p),
                      nibs.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)))
    return nibs


def ima_decode_rows(nibs, pred0, idx0):
    """C path for media._ima_decode's state walk: nibs is the (rows, T)
    uint8 nibble matrix, pred0/idx0 the per-row block-header state.
    Returns the (rows, T+1) int16 sample matrix (column 0 = predictor) or
    None when unavailable."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    if nibs.dtype != np.uint8 or not nibs.flags.c_contiguous or nibs.ndim != 2:
        return None
    pred0 = np.ascontiguousarray(pred0, np.int32)
    idx0 = np.ascontiguousarray(idx0, np.int32)
    rows, steps = nibs.shape
    out = np.empty((rows, steps + 1), np.int16)
    i32p = ctypes.POINTER(ctypes.c_int32)
    L.ima_decode_rows(nibs.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
                      rows, steps,
                      pred0.ctypes.data_as(i32p), idx0.ctypes.data_as(i32p),
                      out.ctypes.data_as(ctypes.POINTER(ctypes.c_int16)))
    return out


def flac_plan_full(res, bs: int, order: int):
    """C path for flac._plan_residual (the whole plan, selection included
    — integer-deterministic with the same tie-breaks, so the pure path
    and this one return identical plans and identical encoded bytes).
    Returns (total_bits, porder, [("rice", k) | ("esc", w)]) or None when
    unavailable. Raises the pure path's ValueError on an unpartitionable
    block."""
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    if res.dtype != np.int64 or not res.flags.c_contiguous or res.ndim != 1:
        return None
    kinds = np.empty(64, np.uint8)
    vals = np.empty(64, np.int32)
    porder = ctypes.c_int32(0)
    i64p = ctypes.POINTER(ctypes.c_int64)
    i32p = ctypes.POINTER(ctypes.c_int32)
    rc = L.flac_plan_full(res.ctypes.data_as(i64p), len(res), bs, order,
                          kinds.ctypes.data_as(
                              ctypes.POINTER(ctypes.c_uint8)),
                          vals.ctypes.data_as(i32p), ctypes.byref(porder))
    if rc < 0:
        raise ValueError("block not partitionable")
    nparts = 1 << porder.value
    plans = [("esc", int(vals[p])) if kinds[p] else ("rice", int(vals[p]))
             for p in range(nparts)]
    return int(rc), porder.value, plans


def warp_bilinear_u8(img, px, py):
    """C path for warp.sample_bilinear on a uint8 (h, w, c) image at
    float32 coordinates: returns the float32 (*px.shape, c) samples,
    bit-identical to the numpy sampler, or None when unavailable."""
    if (img.dtype != np.uint8 or img.ndim != 3 or px.dtype != np.float32
            or py.dtype != np.float32 or px.shape != py.shape):
        raise ValueError("warp_bilinear_u8 needs a uint8 (h, w, c) image and "
                         "float32 coordinate arrays of one shape")
    if _disabled():
        return None
    L = lib()
    if L is None:
        return None
    img = np.ascontiguousarray(img)
    px = np.ascontiguousarray(px)
    py = np.ascontiguousarray(py)
    h, w, c = img.shape
    out = np.empty(px.shape + (c,), np.float32)
    f32p = ctypes.POINTER(ctypes.c_float)
    L.warp_bilinear_u8(img.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
                       h, w, c, px.ctypes.data_as(f32p), py.ctypes.data_as(f32p),
                       px.size, out.ctypes.data_as(f32p))
    return out
