"""Pure-Python TIFF / GeoTIFF codec, implemented from the public TIFF 6.0
specification (Adobe, 1992) and the OGC GeoTIFF standard's tag layout.
TIFF is the canonical geospatial raster container, so alongside pixel
decode this module extracts the georeferencing tags (ModelPixelScaleTag
33550, ModelTiepointTag 33922) straight into the warp pipeline's
``GeoRef`` — real-world raster ingest end-to-end with no external
libraries.

Scope:
- decode: little- and big-endian classic TIFF; strip- and tile-organized
  images; compressions 1 (none), 5 (TIFF LZW — MSB-first codes with early
  change, distinct from the GIF variant), 8/32946 (Deflate via zlib) and
  32773 (PackBits); photometric 0/1 (gray, incl. MinIsWhite inversion),
  2 (RGB, with or without alpha), 3 (palette); 8-bit samples; predictor 2
  (horizontal differencing). Multi-IFD files decode the first image.
- encode (``encode_tiff``): gray/RGB/RGBA rasters of uint8 up to
  float32 samples → little-endian TIFF in 64-row deflate strips, optional
  horizontal-differencing predictor and GeoTIFF georeference tags.
  Deterministic bytes. That is the only TIFF a system path writes (the
  GeoTIFF export, the DEM gate inputs); the writer of the other layouts
  the decoder reads (LZW, uncompressed, tiles, other strip heights) lives
  with the tests (tests/codec_writers.py) on :func:`_samples`,
  :func:`_predicted` and :func:`_layout`.

All pixel work is vectorized; the only Python loop is the LZW decode loop,
inherent to the format (see gif.py — same reasoning).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ._corrupt import corrupt_guard

# TIFF tag ids (TIFF 6.0 §8 + GeoTIFF)
_T_WIDTH = 256
_T_HEIGHT = 257
_T_BITS = 258
_T_COMPRESSION = 259
_T_PHOTOMETRIC = 262
_T_STRIP_OFFSETS = 273
_T_SPP = 277
_T_ROWS_PER_STRIP = 278
_T_STRIP_COUNTS = 279
_T_PLANAR = 284
_T_PREDICTOR = 317
_T_COLORMAP = 320
_T_TILE_W = 322
_T_TILE_H = 323
_T_TILE_OFFSETS = 324
_T_TILE_COUNTS = 325
_T_EXTRASAMPLES = 338
_T_SAMPLEFMT = 339      # 1=uint 2=int 3=float per sample
_T_PIXEL_SCALE = 33550   # GeoTIFF ModelPixelScaleTag (double[3])
_T_TIEPOINT = 33922      # GeoTIFF ModelTiepointTag (double[6k])

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4, 10: 8, 11: 4, 12: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I", 6: "b", 8: "h", 9: "i", 11: "f", 12: "d"}


@dataclass(frozen=True)
class GeoTags:
    """GeoTIFF georeference: raster (i,j) ↦ model (x,y) via
    x = tx + (i - ti) * sx ;  y = ty - (j - tj) * sy."""

    scale_x: float
    scale_y: float
    tie_i: float
    tie_j: float
    tie_x: float
    tie_y: float


# ---------------------------------------------------------------------------
# TIFF-variant LZW (MSB-first bit order, early code-width change)
# ---------------------------------------------------------------------------


def _lzw_decode_tiff(data: bytes, expected: int) -> bytes:
    """LZW table-building is code-sequential; the compiled bit-exact twin
    (projcl_ray/fastcodec.py) takes over when available and this body is
    the fallback and parity oracle."""
    from . import fastcodec

    got = fastcodec.tiff_lzw_decode(data, expected)
    if got is not None:
        return got
    out = bytearray()
    base = [bytes([i]) for i in range(256)] + [b"", b""]
    table = list(base)
    width = 9
    acc = 0
    nbits = 0
    pos = 0
    prev: bytes | None = None
    n = len(data)
    while len(out) < expected:
        while nbits < width:
            if pos >= n:
                raise ValueError("TIFF: LZW stream truncated")
            acc = (acc << 8) | data[pos]
            nbits += 8
            pos += 1
        code = (acc >> (nbits - width)) & ((1 << width) - 1)
        nbits -= width
        acc &= (1 << nbits) - 1  # drop consumed high bits (keep acc small)
        if code == 256:  # clear
            table = list(base)
            width = 9
            prev = None
            continue
        if code == 257:  # EOI
            break
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("TIFF: corrupt LZW code")
        out += entry
        prev = entry
        # EARLY CHANGE (TIFF 6.0 §13): width grows one code sooner than GIF
        if len(table) + 1 == (1 << width) and width < 12:
            width += 1
    return bytes(out[:expected])


def _packbits_decode(data: bytes, expected: int) -> bytes:
    out = bytearray()
    pos = 0
    n = len(data)
    while len(out) < expected and pos < n:
        h = data[pos]
        pos += 1
        if h < 128:  # literal run of h+1 bytes
            out += data[pos:pos + h + 1]
            pos += h + 1
        elif h > 128:  # repeat next byte 257-h times
            out += data[pos:pos + 1] * (257 - h)
            pos += 1
        # h == 128: no-op
    return bytes(out[:expected])


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------


def _read_ifd_entries(buf: bytes, e: str, ifd_off: int):
    """Parse one IFD. Tag count/type/count are file-controlled: every size
    is bounded against len(buf) before unpacking, and struct errors from a
    truncated directory re-raise as the codecs' shared ValueError contract
    (a huge uint32 count otherwise builds a giant transient format string)."""
    try:
        if ifd_off + 2 > len(buf):
            raise ValueError("corrupt TIFF: IFD offset past end of file")
        (n_entries,) = struct.unpack_from(e + "H", buf, ifd_off)
        if ifd_off + 2 + n_entries * 12 > len(buf):
            raise ValueError("corrupt TIFF: truncated IFD directory")
        tags = {}
        for i in range(n_entries):
            off = ifd_off + 2 + i * 12
            tag, typ, count = struct.unpack_from(e + "HHI", buf, off)
            size = _TYPE_SIZE.get(typ, 1) * count
            if size <= 4:
                data_off = off + 8
            else:
                (data_off,) = struct.unpack_from(e + "I", buf, off + 8)
            if data_off + size > len(buf):
                raise ValueError("corrupt TIFF: tag value past end of file")
            if typ in _TYPE_FMT:
                vals = struct.unpack_from(e + str(count) + _TYPE_FMT[typ],
                                          buf, data_off)
            elif typ == 5:  # RATIONAL
                raw = struct.unpack_from(e + str(2 * count) + "I", buf, data_off)
                vals = tuple(a / b if b else 0.0
                             for a, b in zip(raw[::2], raw[1::2]))
            else:
                vals = (buf[data_off:data_off + size],)
            tags[tag] = vals
        return tags
    except struct.error as exc:
        raise ValueError(f"corrupt TIFF: {exc}") from exc


# hardest physical expansion each codec can produce per compressed byte:
# raw copies 1:1, PackBits 128:1 (one literal header + 128-run), deflate
# 1032:1 (zlib's documented ceiling), LZW 4096:1 (a 9-bit code can emit a
# 4096-byte dictionary string). A header whose promised segment size
# exceeds this bound is lying — reject it BEFORE allocating the segment
# (a fuzzed IFD once requested a 332 GiB strip).
_MAX_EXPANSION = {1: 1, 5: 4096, 8: 1032, 32946: 1032, 32773: 128}


def _seg_cap(compression: int, cnt: int) -> int:
    return _MAX_EXPANSION.get(compression, 1) * cnt + 64


def _decode_segments(buf, e, tags, offsets, counts, seg_w, seg_h, spp, raw_len):
    compression = tags.get(_T_COMPRESSION, (1,))[0]
    segs = []
    for off, cnt in zip(offsets, counts):
        if raw_len > _seg_cap(compression, cnt):
            raise ValueError(
                "corrupt TIFF: segment size impossible for its compressed data")
        raw = bytes(buf[off:off + cnt])
        if compression == 1:
            data = raw
        elif compression == 5:
            data = _lzw_decode_tiff(raw, raw_len)
        elif compression in (8, 32946):
            # cap inflation at the segment size the IFD promises (+1 so a
            # too-long stream still surfaces as a size mismatch)
            data = zlib.decompressobj().decompress(raw, raw_len + 1)
        elif compression == 32773:
            data = _packbits_decode(raw, raw_len)
        else:
            raise NotImplementedError(f"TIFF compression {compression} unsupported")
        segs.append(np.frombuffer(data, np.uint8))
    return segs


def decode_tiff(buf: bytes) -> np.ndarray:
    """TIFF bytes → (h, w, 4) uint8 RGBA (first IFD)."""
    return decode_tiff_geo(buf)[0]


# (BitsPerSample, SampleFormat) → numpy dtype; SampleFormat defaults to 1
_SAMPLE_DTYPES = {
    (8, 1): np.uint8, (16, 1): np.uint16, (16, 2): np.int16,
    (32, 1): np.uint32, (32, 2): np.int32, (32, 3): np.float32,
}


def decode_tiff_native(buf: bytes) -> tuple[np.ndarray, "GeoTags | None"]:
    """TIFF bytes → ((h, w, spp) array at NATIVE sample type, geo or None).

    The geospatial raster path: real-world GeoTIFF DEMs/bands are uint16,
    int16 or float32 — this returns them untouched (native-endian). The
    RGBA preview conversion lives in decode_tiff_geo."""
    return _decode_tiff(buf, native=True)


def decode_tiff_geo(buf: bytes) -> tuple[np.ndarray, GeoTags | None]:
    """TIFF bytes → ((h, w, 4) uint8 RGBA, GeoTIFF georeference or None).
    Deeper-than-8-bit rasters are scaled deterministically for the pixel
    path: uint16 >> 8, int16 offset to uint16 then >> 8, float32 min-max
    normalized; use decode_tiff_native for the real sample values."""
    return _decode_tiff(buf, native=False)


@corrupt_guard("TIFF")
def _decode_tiff(buf: bytes, *, native: bool):
    if buf[:2] == b"II":
        e = "<"
    elif buf[:2] == b"MM":
        e = ">"
    else:
        raise ValueError("not a TIFF (no II/MM byte order)")
    magic, ifd_off = struct.unpack_from(e + "HI", buf, 2)
    if magic != 42:
        raise ValueError("not a classic TIFF (magic != 42)")
    tags = _read_ifd_entries(buf, e, ifd_off)

    w = tags[_T_WIDTH][0]
    h = tags[_T_HEIGHT][0]
    spp = tags.get(_T_SPP, (1,))[0]
    bits = tags.get(_T_BITS, (8,) * spp)
    sfmt = tags.get(_T_SAMPLEFMT, (1,) * spp)[0]
    if len(set(bits)) != 1 or (bits[0], sfmt) not in _SAMPLE_DTYPES:
        raise NotImplementedError(
            f"TIFF bits-per-sample {bits} / sample-format {sfmt} unsupported")
    dtype = np.dtype(_SAMPLE_DTYPES[(bits[0], sfmt)])
    bps = dtype.itemsize
    if tags.get(_T_PLANAR, (1,))[0] != 1:
        raise NotImplementedError("TIFF planar configuration 2 unsupported")
    photometric = tags.get(_T_PHOTOMETRIC, (1,))[0]
    predictor = tags.get(_T_PREDICTOR, (1,))[0]
    if predictor == 2 and dtype.kind == "f":
        raise NotImplementedError("TIFF predictor 2 on float samples")
    if predictor == 3:
        raise NotImplementedError("TIFF floating-point predictor (3)")

    def as_samples(seg: np.ndarray, n: int):
        """(raw bytes,) → n native-endian samples of dtype."""
        a = np.frombuffer(seg.tobytes(), dtype.newbyteorder(e), count=n)
        return a.astype(dtype, copy=False)

    if _T_TILE_OFFSETS in tags:  # tile-organized
        tw = tags[_T_TILE_W][0]
        th = tags[_T_TILE_H][0]
        offsets = tags[_T_TILE_OFFSETS]
        counts = tags[_T_TILE_COUNTS]
        tiles_x = (w + tw - 1) // tw
        raw_len = tw * th * spp * bps
        # raster sanity BEFORE allocating (h, w): a valid raster fits in
        # what its tiles could possibly decode to
        comp = tags.get(_T_COMPRESSION, (1,))[0]
        if h * w * spp * bps > sum(_seg_cap(comp, c) for c in counts):
            raise ValueError(
                "corrupt TIFF: raster larger than its tile data could decode")
        segs = _decode_segments(buf, e, tags, offsets, counts, tw, th, spp, raw_len)
        img = np.zeros((h, w, spp), dtype)
        for ti, seg in enumerate(segs):
            tile = as_samples(seg, tw * th * spp).reshape(th, tw, spp)
            if predictor == 2:  # differencing is per SAMPLE, any int width
                tile = np.cumsum(tile.astype(np.uint64), axis=1).astype(dtype)
            ty, tx = divmod(ti, tiles_x)
            y0, x0 = ty * th, tx * tw
            ys, xs = min(th, h - y0), min(tw, w - x0)
            img[y0:y0 + ys, x0:x0 + xs] = tile[:ys, :xs]
    else:  # strip-organized
        rps = tags.get(_T_ROWS_PER_STRIP, (h,))[0]
        rps = min(rps, h) or h
        offsets = tags[_T_STRIP_OFFSETS]
        counts = tags[_T_STRIP_COUNTS]
        rows = []
        for si, (off, cnt) in enumerate(zip(offsets, counts)):
            n_rows = min(rps, h - si * rps)
            raw_len = n_rows * w * spp * bps
            seg = _decode_segments(buf, e, tags, (off,), (cnt,), w, n_rows, spp, raw_len)[0]
            strip = as_samples(seg, n_rows * w * spp).reshape(n_rows, w, spp)
            if predictor == 2:
                strip = np.cumsum(strip.astype(np.uint64), axis=1).astype(dtype)
            rows.append(strip)
        img = np.concatenate(rows, axis=0)

    geo = None
    if _T_PIXEL_SCALE in tags and _T_TIEPOINT in tags:
        sx, sy = tags[_T_PIXEL_SCALE][0], tags[_T_PIXEL_SCALE][1]
        ti, tj, _tk, tx, ty, _tz = tags[_T_TIEPOINT][:6]
        geo = GeoTags(float(sx), float(sy), float(ti), float(tj), float(tx), float(ty))

    if native:
        if photometric == 0 and dtype == np.uint8:
            img = 255 - img  # MinIsWhite only meaningfully defined for 8-bit
        return img, geo

    if dtype != np.uint8:  # deterministic 8-bit preview for the pixel path
        if dtype == np.uint16:
            img = (img >> 8).astype(np.uint8)
        elif dtype == np.int16:
            img = ((img.astype(np.int32) + 32768) >> 8).astype(np.uint8)
        else:  # uint32/int32/float32: min-max normalize
            f = img.astype(np.float64)
            lo, hi = float(f.min()), float(f.max())
            img = (np.zeros_like(f, np.uint8) if hi == lo else
                   np.clip((f - lo) * (255.0 / (hi - lo)), 0, 255)
                   .astype(np.uint8))

    out = np.empty((h, w, 4), np.uint8)
    if photometric == 3:  # palette: ColorMap is 3*2^bits uint16s, R then G then B
        cmap = np.asarray(tags[_T_COLORMAP], np.uint16).reshape(3, -1)
        idx = img[..., 0]
        out[..., 0] = (cmap[0][idx] >> 8).astype(np.uint8)
        out[..., 1] = (cmap[1][idx] >> 8).astype(np.uint8)
        out[..., 2] = (cmap[2][idx] >> 8).astype(np.uint8)
        out[..., 3] = 255
    elif photometric in (0, 1):  # gray (0 = MinIsWhite → invert)
        g = img[..., 0]
        if photometric == 0:
            g = 255 - g
        out[..., 0] = out[..., 1] = out[..., 2] = g
        out[..., 3] = 255
    elif photometric == 2:  # RGB(A)
        out[..., :3] = img[..., :3]
        out[..., 3] = img[..., 3] if spp >= 4 else 255
    else:
        raise NotImplementedError(f"TIFF photometric {photometric} unsupported")
    return out, geo


# ---------------------------------------------------------------------------
# Encode
# ---------------------------------------------------------------------------


_ROWS_PER_STRIP = 64


def _samples(arr: np.ndarray, predictor: int) -> np.ndarray:
    """``arr`` as (h, w, samples per pixel) little-endian samples of a type
    TIFF stores: uint8, uint16, int16, uint32, int32 or float32 (float64
    narrows to float32, any other type casts to uint8). Predictor 2 is
    integer-only (TIFF 6.0)."""
    arr = np.asarray(arr)
    if arr.dtype == np.float64:
        arr = arr.astype(np.float32)
    if arr.dtype not in (np.uint8, np.uint16, np.int16, np.uint32,
                         np.int32, np.float32):
        arr = arr.astype(np.uint8)
    sdtype = np.dtype(arr.dtype).newbyteorder("<")
    if predictor == 2 and sdtype.kind == "f":
        raise ValueError("TIFF predictor 2 is integer-only")
    arr = np.ascontiguousarray(arr.astype(sdtype, copy=False))
    return arr.reshape(arr.shape[0], arr.shape[1], 1 if arr.ndim == 2 else arr.shape[2])


def _predicted(seg: np.ndarray, predictor: int) -> bytes:
    """A segment's sample bytes, horizontally differenced per sample
    (modulo 2^bits) under ``predictor`` 2."""
    if predictor == 2:
        u = seg.view(np.dtype(f"<u{seg.dtype.itemsize}"))
        d = u.copy()
        d[:, 1:, :] -= u[:, :-1, :]
        return d.tobytes()
    return seg.tobytes()


def _layout(px: np.ndarray, segments: list[bytes], compression: int,
            predictor: int, geo: GeoTags | None, rows_per_strip: int,
            tile_size: int = 0) -> bytes:
    """The classic little-endian TIFF around ``segments``, the coded strips
    of ``rows_per_strip`` rows of ``px`` (or, when ``tile_size`` is
    nonzero, its square tiles in raster order): header, one IFD in
    ascending tag order, out-of-line tag data, then the segments, each
    padded to a word boundary."""
    h, w, spp = px.shape
    entries: list[tuple[int, int, int, bytes | int]] = []

    def tag(tid: int, typ: int, vals):
        fmt = _TYPE_FMT[typ]
        payload = struct.pack("<" + str(len(vals)) + fmt, *vals)
        entries.append((tid, typ, len(vals), payload))

    n_strips = len(segments)
    offsets_tag = _T_TILE_OFFSETS if tile_size else _T_STRIP_OFFSETS
    tag(_T_WIDTH, 4, [w])
    tag(_T_HEIGHT, 4, [h])
    tag(_T_BITS, 3, [px.dtype.itemsize * 8] * spp)
    tag(_T_COMPRESSION, 3, [compression])
    tag(_T_PHOTOMETRIC, 3, [1 if spp == 1 else 2])
    if px.dtype.kind != "u":
        tag(_T_SAMPLEFMT, 3, [{"i": 2, "f": 3}[px.dtype.kind]] * spp)
    tag(offsets_tag, 4, [0] * n_strips)  # patched below
    tag(_T_SPP, 3, [spp])
    if predictor == 2:
        tag(_T_PREDICTOR, 3, [2])
    if tile_size:
        tag(_T_TILE_W, 4, [tile_size])
        tag(_T_TILE_H, 4, [tile_size])
        tag(_T_TILE_COUNTS, 4, [len(s) for s in segments])
    else:
        tag(_T_ROWS_PER_STRIP, 4, [rows_per_strip])
        tag(_T_STRIP_COUNTS, 4, [len(s) for s in segments])
    if spp == 4:
        tag(_T_EXTRASAMPLES, 3, [2])  # unassociated alpha
    if geo is not None:
        tag(_T_PIXEL_SCALE, 12, [geo.scale_x, geo.scale_y, 0.0])
        tag(_T_TIEPOINT, 12, [geo.tie_i, geo.tie_j, 0.0, geo.tie_x, geo.tie_y, 0.0])
    entries.sort(key=lambda t: t[0])  # TIFF requires ascending tag order

    # layout: header(8) | IFD | out-of-line tag data | strip data
    ifd_size = 2 + len(entries) * 12 + 4
    data_off = 8 + ifd_size
    blobs = []
    fixed = []
    for tid, typ, count, payload in entries:
        if len(payload) <= 4:
            fixed.append((tid, typ, count, payload.ljust(4, b"\x00"), None))
        else:
            fixed.append((tid, typ, count, None, len(blobs)))
            blobs.append(payload)
    blob_offs = []
    off = data_off
    for bpayload in blobs:
        blob_offs.append(off)
        off += len(bpayload) + (len(bpayload) & 1)
    strip_offs = []
    for s in segments:
        strip_offs.append(off)
        off += len(s) + (len(s) & 1)

    # patch the Strip/TileOffsets tag now that the layout is known
    so_payload = struct.pack("<" + str(n_strips) + "I", *strip_offs)
    out_entries = bytearray()
    for (tid, typ, count, inline, blob_i) in fixed:
        if tid == offsets_tag:
            if len(so_payload) <= 4:
                inline, blob_i = so_payload.ljust(4, b"\x00"), None
            else:
                blobs[blob_i] = so_payload
                inline = None
        out_entries += struct.pack("<HHI", tid, typ, count)
        if inline is not None:
            out_entries += inline
        else:
            out_entries += struct.pack("<I", blob_offs[blob_i])

    out = bytearray()
    out += struct.pack("<2sHI", b"II", 42, 8)
    out += struct.pack("<H", len(entries)) + out_entries + struct.pack("<I", 0)
    for bpayload in blobs:
        out += bpayload + (b"\x00" if len(bpayload) & 1 else b"")
    for s in segments:
        out += s + (b"\x00" if len(s) & 1 else b"")
    return bytes(out)


def encode_tiff(arr: np.ndarray, *, geo: GeoTags | None = None,
                predictor: int = 1) -> bytes:
    """(h, w, 4)|(h, w, 3)|(h, w) raster → little-endian classic TIFF in
    64-row deflate strips (tag 8), the layout of the GeoTIFF export and the
    DEM inputs. ``predictor=2`` applies horizontal differencing before
    compression. ``geo`` writes the GeoTIFF ModelPixelScale/ModelTiepoint
    tags. Sample types beyond uint8 — uint16/int16/uint32/int32/float32,
    the real-world GeoTIFF DEM/band types — encode with the matching
    BitsPerSample + SampleFormat tags (predictor 2 applies per SAMPLE and
    is rejected for float, per TIFF 6.0)."""
    px = _samples(arr, predictor)
    strips = [zlib.compress(_predicted(px[y:y + _ROWS_PER_STRIP], predictor), 6)
              for y in range(0, px.shape[0], _ROWS_PER_STRIP)]
    return _layout(px, strips, 8, predictor, geo, _ROWS_PER_STRIP)


def georef_from_tags(geo: GeoTags):
    """GeoTIFF tags → warp.GeoRef (north-up geographic rasters: pixel (0,0)
    CENTER at the tiepoint's model coords when tie_i/tie_j are 0 — GeoTIFF
    RasterPixelIsArea vs IsPoint subtleties are the caller's concern; the
    synthetic tables here write IsPoint semantics)."""
    from .warp import GeoRef

    if abs(geo.scale_x - geo.scale_y) > 1e-12:
        raise NotImplementedError("anisotropic GeoTIFF pixel scale unsupported")
    lon0 = geo.tie_x - geo.tie_i * geo.scale_x
    lat0 = geo.tie_y + geo.tie_j * geo.scale_y
    return GeoRef(lon0=lon0, lat0=lat0, px_deg=geo.scale_x)
