"""Optional C accelerator for the sequential decode hot loops and the warp
kernel's bilinear sampler.

The in-repo codecs are pure Python by design (always available, the
determinism oracle) — but entropy decoding is one-Huffman-code-at-a-time
sequential and can't be vectorized with numpy, so on a compressed image
corpus the Python loop is the throughput ceiling (~2 MB/s/core). When a
system C compiler is present, `_fastcodec.c` (the same algorithms,
bit-exact) is compiled ONCE per machine into a cached shared object and
loaded with ctypes; every failure mode — no compiler, build error, load
error, `PROJCL_NO_FASTCODEC=1` in the environment at import (read once
into :data:`DISABLED`) — falls back to the pure-Python path silently. C
twins exist only for loops on a measured path: the JPEG, PNG, TIFF-LZW
and GIF-LZW decoders, the 8-bit JPEG decode tail (libjpeg's islow
IDCT with clamp, one call per component, then upsampling and fixed-point
YCbCr → RGBA, one call per image), and the bilinear sampler fused with
the warp lattice fill (the one per-pixel loop numpy runs as 4 gathers
plus ~12 temporaries; it lerps 4-channel interior pixels in SSE2 and
writes at a row stride, so the warp+tile stage warps straight into its
tile-padded arrays). The encoders the package keeps
(baseline JPEG, deflate-strip TIFF) run in Python only, and no other
encoder is in the package.
Parity is pinned in tests/test_warp.py and tests/test_image_codecs.py.

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
# True runs the pure-Python paths. Read once from PROJCL_NO_FASTCODEC at
# import (Ray workers inherit the variable); tests and tools toggle the
# attribute itself.
DISABLED = os.environ.get("PROJCL_NO_FASTCODEC", "").lower() in (
    "1", "true", "yes", "on")


def lib():
    """The loaded shared object, building it first if needed; None when
    :data:`DISABLED` or the object is unavailable for any reason. Every
    wrapper below returns its "use the pure-Python path" value when this
    is None."""
    global _LIB, _TRIED
    if DISABLED:
        return None
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
        u8p = ctypes.POINTER(ctypes.c_uint8)
        # the decode tail runs per component: raw addresses, no casts
        vp = ctypes.c_void_p
        L.jpeg_idct_plane.restype = None
        L.jpeg_idct_plane.argtypes = [
            vp, vp, ctypes.c_long, ctypes.c_long, vp,       # coef, qt, bpr, bpc, out
        ]
        L.jpeg_ycc_rgba.restype = None
        L.jpeg_ycc_rgba.argtypes = [
            vp, vp, vp, vp, ctypes.c_int,                   # planes, strides, fx, fy, ncomp
            ctypes.c_long, ctypes.c_long, vp,               # h, w, out
        ]
        L.png_unfilter.restype = ctypes.c_long
        L.png_unfilter.argtypes = [
            u8p, ctypes.c_long, ctypes.c_long, ctypes.c_int, u8p,
        ]
        L.tiff_lzw_decode.restype = ctypes.c_long
        L.tiff_lzw_decode.argtypes = [
            ctypes.c_char_p, ctypes.c_long, u8p, ctypes.c_long,
        ]
        L.gif_lzw_decode.restype = ctypes.c_long
        L.gif_lzw_decode.argtypes = [
            ctypes.c_char_p, ctypes.c_long, ctypes.c_int, u8p, ctypes.c_long,
        ]
        L.warp_lattice_bilinear_u8.restype = None
        L.warp_lattice_bilinear_u8.argtypes = [
            vp, ctypes.c_long, ctypes.c_long, ctypes.c_long,  # img, h, w, c
            vp, vp, ctypes.c_long,                          # node maps, nx
            vp, vp, ctypes.c_long,                          # xj, xt, out_w
            vp, vp, ctypes.c_long,                          # yj, yt, out_h
            vp, ctypes.c_long, vp, vp,                      # rows, out_stride, outf | outb
        ]
        _LIB = L
    except OSError:
        _LIB = None
    return _LIB


def _scan_args(store, scan, *tables):
    """The per-component ctypes arguments of one scan: for each of
    ``tables`` (one (symbol, length) LUT pair per component) a symbol and
    a length array, then v, h, bpr, wib and the coefficient store
    pointers. None when a store is not a C-contiguous int32 array: the
    pure path handles it; never hand ctypes a bad view."""
    n = len(scan)
    luts = [(ctypes.c_char_p * n)(*[t[i] for t in tabs])
            for tabs in tables for i in (0, 1)]
    geom = [(ctypes.c_int32 * n)(*[s[k] for s in scan])
            for k in ("v", "h", "bpr", "wib")]
    ptrs = (ctypes.POINTER(ctypes.c_int32) * n)()
    for i, s in enumerate(scan):
        a = store[s["id"]]
        if a.dtype != np.int32 or not a.flags.c_contiguous:
            return None
        ptrs[i] = a.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))
    return (*luts, *geom, ptrs)


def _decode_segments(segments, restart_interval: int, units: int,
                     decode) -> bool:
    """Run ``decode(data, nbytes, m_start, m_count)`` on each restart
    segment of a scan over ``units`` MCUs or data units, the data padded
    with the 64 zero bytes the C bit reader expects. Raises the pure
    loop's ValueError on missing segments or a nonzero return."""
    step = restart_interval or units
    if len(segments) * step < units:
        raise ValueError("corrupt JPEG: missing restart segments")
    for i, seg in enumerate(segments):
        m_start = i * step
        m_count = min(step, units - m_start)
        if m_count <= 0:
            break
        rc = decode(seg + b"\x00" * 64, len(seg), m_start, m_count)
        if rc != 0:
            raise ValueError(f"corrupt JPEG: entropy decode failed ({rc})")
    return True


def jpeg_baseline_scan(store, scan, huff, restart_interval, segments,
                       mcus_x, mcus_y) -> bool:
    """C path for jpeg._decode_baseline_scan. Returns True when it decoded
    the scan (store mutated in place), False when the caller must run the
    pure-Python loop. Raises the same ValueError the pure loop raises on
    corrupt entropy data. ``huff`` maps (class, id) to the (symbol, length)
    lookup tables as 65536-byte ``bytes``, built once per table content by
    jpeg._decode_lut; ctypes passes them to C without a copy."""
    L = lib()
    if L is None or len(scan) > 4:
        return False
    ncomp = len(scan)
    interleaved = ncomp > 1
    units = mcus_x * mcus_y if interleaved else scan[0]["wib"] * scan[0]["hib"]
    args = _scan_args(store, scan, [huff[(0, s["dc"])] for s in scan],
                      [huff[(1, s["ac"])] for s in scan])
    if args is None:
        return False
    return _decode_segments(
        segments, restart_interval, units,
        lambda seg, n, m_start, m_count: L.jpeg_baseline_segment(
            seg, n, m_start, m_count, mcus_x, int(interleaved), ncomp, *args))


def jpeg_progressive_scan(store, scan, huff, Ss, Se, Ah, Al,
                          restart_interval, segments, mcus_x, mcus_y) -> bool:
    """C path for one progressive (SOF2) scan — DC first/refine (interleaved
    allowed) or AC first/refine with EOB runs. Same return/raise contract
    as jpeg_baseline_scan; invalid scan headers return False so the pure
    loop raises its specific error."""
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
        # refinement reads raw bits only: no tables
        args = _scan_args(store, scan, [huff[(0, s["dc"])] for s in scan]
                          if Ah == 0 else [(b"", b"")] * ncomp)
        if args is None:
            return False
        return _decode_segments(
            segments, restart_interval, units,
            lambda seg, n, m_start, m_count: L.jpeg_prog_dc_segment(
                seg, n, m_start, m_count, mcus_x, int(interleaved), ncomp,
                Ah, Al, *args))
    # AC scan: single component, non-interleaved
    if len(scan) != 1:
        return False
    args = _scan_args(store, scan)
    if args is None:
        return False
    s = scan[0]
    sym_b, len_b = huff[(1, s["ac"])]
    return _decode_segments(
        segments, restart_interval, s["wib"] * s["hib"],
        lambda seg, n, m_start, m_count: L.jpeg_prog_ac_segment(
            seg, n, m_start, m_count, Ss, Se, Ah, Al, sym_b, len_b,
            s["bpr"], s["wib"], args[-1][0]))


def jpeg_idct_plane(coef, q, bpr: int, bpc: int):
    """C path for jpeg._component_plane at 8-bit precision: the (bpc·8,
    bpr·8) uint8 sample plane of one component's (bpc·bpr, 64) zigzag-order
    int32 coefficient store and its natural-order quantization table, or
    None when unavailable."""
    L = lib()
    if L is None:
        return None
    coef = np.ascontiguousarray(coef, np.int32)
    q = np.ascontiguousarray(q, np.int32)
    if coef.shape != (bpr * bpc, 64) or q.shape != (64,):
        raise ValueError("corrupt JPEG: coefficient store does not match the frame")
    out = np.empty((bpc * 8, bpr * 8), np.uint8)
    L.jpeg_idct_plane(coef.ctypes.data, q.ctypes.data, bpr, bpc, out.ctypes.data)
    return out


def jpeg_ycc_rgba(planes, factors, h: int, w: int):
    """C path for the upsampling and colour conversion of jpeg._decode_tail
    at 8-bit precision: one (gray) or three (YCbCr) uint8 sample planes,
    each replicated by its ``(fx, fy)`` factor, → (h, w, 4) uint8 RGBA, or
    None when unavailable."""
    L = lib()
    if L is None or len(planes) not in (1, 3) or len(factors) != len(planes):
        return None
    planes = [np.ascontiguousarray(p, np.uint8) for p in planes]
    for p, (fx, fy) in zip(planes, factors):
        # the kernel reads row (h - 1) // fy and column (w - 1) // fx unchecked
        if (p.ndim != 2 or fx < 1 or fy < 1 or p.shape[0] * fy < h
                or p.shape[1] * fx < w):
            raise ValueError("corrupt JPEG: sample plane smaller than the frame")
    ptrs = np.array([p.ctypes.data for p in planes], np.uintp)
    geom = np.array([[p.shape[1] for p in planes], *zip(*factors)], np.int32)
    out = np.empty((h, w, 4), np.uint8)
    L.jpeg_ycc_rgba(ptrs.ctypes.data, geom[0].ctypes.data, geom[1].ctypes.data,
                    geom[2].ctypes.data, len(planes), h, w, out.ctypes.data)
    return out


def png_unfilter(stream, h: int, stride: int, bpp: int):
    """C path for png._unfilter: returns the (h, stride) uint8 array or
    None when unavailable. Raises ValueError on a bad filter type like the
    pure path."""
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


def warp_lattice_bilinear_u8(img, nodes_x, nodes_y, w: int, h: int, u8: bool,
                             out=None):
    """C path for the warp lattice fill (warp._lattice_fill) followed by
    warp.sample_bilinear on a uint8 (h_src, w_src, c) image, for a (h, w)
    destination: ``nodes_x``/``nodes_y`` are the float64 source-pixel maps
    at the lattice nodes of warp._lattice_axis(w) and (h). Returns the
    (h, w, c) float32 samples, or with ``u8`` the samples clipped to
    [0, 255] and truncated to uint8 — bit-identical to the numpy fill,
    sampler and cast — or None when unavailable. With ``out`` (an array of
    that dtype and channel count, at least h rows and w columns, pixels
    contiguous within a row) the samples go into its top-left corner and
    the rest of ``out`` is left as it is; ``out`` is returned."""
    if img.dtype != np.uint8 or img.ndim != 3:
        raise ValueError("warp_lattice_bilinear_u8 needs a uint8 (h, w, c) image")
    L = lib()
    if L is None:
        return None
    from .warp import _lattice_axis  # warp imports this module

    xn, xj, xt = _lattice_axis(w)
    yn, yj, yt = _lattice_axis(h)
    # the kernel reads nodes[j] and nodes[j + 1] of every table unchecked;
    # _lattice_axis keeps j in [0, len(nodes) - 2] when the axis has 2 nodes
    if (w < 2 or h < 2 or nodes_x.shape != (len(yn), len(xn))
            or nodes_y.shape != nodes_x.shape):
        raise ValueError("lattice node maps do not match the destination size")
    img = np.ascontiguousarray(img)
    nodes_x = np.ascontiguousarray(nodes_x, np.float64)
    nodes_y = np.ascontiguousarray(nodes_y, np.float64)
    c = img.shape[2]
    dtype = np.dtype(np.uint8 if u8 else np.float32)
    if out is None:
        out = np.empty((h, w, c), dtype)
    elif (out.dtype != dtype or not out.flags.writeable or out.ndim != 3
          or out.shape[0] < h or out.shape[1] < w or out.shape[2] != c
          or out.strides[1:] != (c * dtype.itemsize, dtype.itemsize)
          or out.strides[0] % dtype.itemsize or out.strides[0] < out.strides[1] * w):
        raise ValueError("out cannot hold the warped image")
    rows = np.empty(5 * w, np.float64)
    p = out.ctypes.data
    L.warp_lattice_bilinear_u8(
        img.ctypes.data, img.shape[0], img.shape[1], c,
        nodes_x.ctypes.data, nodes_y.ctypes.data, len(xn),
        xj.ctypes.data, xt.ctypes.data, w, yj.ctypes.data, yt.ctypes.data, h,
        rows.ctypes.data, out.strides[0] // dtype.itemsize,
        None if u8 else p, p if u8 else None)
    return out
