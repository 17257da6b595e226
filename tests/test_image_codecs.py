"""Per-format contracts of the image codec layer, one case per encoder
configuration (the package's writers, or tests/codec_writers.py's for the
formats it only reads), each decoded through the ``images.decode_image``
dispatch the stages use.

Each format has exactly one in-repo codec, so the contracts are: the
round-trip is exact (lossless formats) or PSNR-bounded (JPEG); the encoded
bytes are pinned by digest, and the decoded pixels do not depend on whether
the C decode twins of :mod:`projcl_ray.fastcodec` are loaded; and truncated
or foreign input raises ``ValueError``, never another exception type.
"""

import ctypes
import hashlib
import shutil
import struct
import subprocess

import numpy as np
import pytest

from codec_writers import (_gen_huffman, encode_bmp, encode_gif,
                           encode_jpeg_progressive, encode_jpeg_sequential,
                           encode_png, encode_tiff_layout)
from projcl_ray import fastcodec, jpeg, tiff
from projcl_ray.images import (decode_image, encode_image, synth_images_table,
                               synth_pixels)

W, H = 37, 29

# (case id, format, encoder, encoder kwargs, lossless)
CASES = [
    ("png", "png", encode_png, {}, True),
    ("png_paeth_adam7", "png", encode_png, {"filter_type": 4, "interlace": True}, True),
    ("jpeg", "jpeg", jpeg.encode_jpeg, {"quality": 90}, False),
    ("jpeg_420_restart", "jpeg", encode_jpeg_sequential,
     {"quality": 85, "subsample": True, "restart_interval": 2}, False),
    ("jpeg_multiscan", "jpeg", encode_jpeg_sequential,
     {"quality": 90, "multiscan": True}, False),
    ("jpeg_progressive", "jpeg", encode_jpeg_progressive, {"quality": 90}, False),
    ("gif", "gif", encode_gif, {}, True),
    ("gif_interlaced", "gif", encode_gif, {"interlace": True}, True),
    ("bmp", "bmp", encode_bmp, {}, True),
    ("tiff_deflate", "tiff", tiff.encode_tiff, {}, True),
    ("tiff_lzw_tiled", "tiff", encode_tiff_layout,
     {"compression": "lzw", "tiled": True, "tile_size": 16}, True),
    ("tiff_lzw_predictor", "tiff", encode_tiff_layout,
     {"compression": "lzw", "predictor": 2}, True),
]
IDS = [c[0] for c in CASES]
# SHA-256 prefix of each case's encoded bytes. The encoders are pure Python
# and deterministic; these are also the bytes of the C encode twins they
# once had, and of the test-side writers when they were in the package.
# PNG and deflate TIFF go through zlib, so a zlib whose output differs
# moves those three.
ENCODED_SHA256 = {
    "png": "a72b3ff180d3ef81",
    "png_paeth_adam7": "da12bbfa7caefc2a",
    "jpeg": "849537185059a188",
    "jpeg_420_restart": "7a7e03b94030a440",
    "jpeg_multiscan": "0f03190c186ca1ad",
    "jpeg_progressive": "2a8f6d84c4635787",
    "gif": "74f0a7b308d407f9",
    "gif_interlaced": "b46e4bfa03ca1eef",
    "bmp": "4b1ecdcb4c960728",
    "tiff_deflate": "9f9b0452e1eff23d",
    "tiff_lzw_tiled": "7ac75fe2212dacff",
    "tiff_lzw_predictor": "3f19457d40f2fcad",
}


def _source(fmt):
    img = synth_pixels(3, W, H)
    if fmt == "gif":  # palette format: lossless only for <=255 colors
        img = ((img >> 6) << 6) + 32
        img[..., 3] = 255
    return img


def _encode(fmt, enc, kw):
    return enc(_source(fmt), **kw)


@pytest.mark.parametrize("case,fmt,enc,kw,lossless", CASES, ids=IDS)
def test_roundtrip_through_dispatch(case, fmt, enc, kw, lossless):
    src = _source(fmt)
    out = decode_image(enc(src, **kw), W, H, fmt)
    assert out.shape == (H, W, 4) and out.dtype == np.uint8
    if lossless:
        np.testing.assert_array_equal(out, src)
        return
    assert (out[..., 3] == 255).all()  # JPEG has no alpha
    # luma PSNR: 4:2:0 drops chroma resolution by design, luma stays full
    luma = np.array([0.299, 0.587, 0.114])
    err = out[..., :3] @ luma - src[..., :3] @ luma
    mse = float(np.mean(err ** 2))
    assert 10 * np.log10(255.0 ** 2 / max(mse, 1e-12)) > 35.0


@pytest.mark.parametrize("case,fmt,enc,kw,lossless", CASES, ids=IDS)
def test_bytes_and_pixels_independent_of_c_twins(case, fmt, enc, kw, lossless,
                                                 monkeypatch):
    """The encoded bytes match their pinned digest, and the C decode twins
    are accelerators only: decoding with them disabled gives the same
    pixels."""
    buf = _encode(fmt, enc, kw)
    assert hashlib.sha256(buf).hexdigest()[:16] == ENCODED_SHA256[case]
    monkeypatch.setattr(fastcodec, "DISABLED", False)
    if fastcodec.lib() is None:
        pytest.skip("no C compiler in this environment")
    fast_px = decode_image(buf, W, H, fmt)
    monkeypatch.setattr(fastcodec, "DISABLED", True)
    np.testing.assert_array_equal(decode_image(buf, W, H, fmt), fast_px)


@pytest.mark.parametrize("case,fmt,enc,kw,lossless", CASES, ids=IDS)
def test_truncated_or_foreign_input_raises_valueerror(case, fmt, enc, kw,
                                                      lossless):
    buf = _encode(fmt, enc, kw)
    for frac in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9):
        with pytest.raises(ValueError):
            decode_image(buf[:int(len(buf) * frac)], W, H, fmt)
    # another format's stream is rejected by the signature check
    other = (encode_bmp if fmt != "bmp" else encode_png)(_source("bmp"))
    with pytest.raises(ValueError, match="^not a"):
        decode_image(other, W, H, fmt)


def test_unknown_format_raises():
    with pytest.raises(ValueError, match="unknown image format"):
        decode_image(b"\x00" * 16, 2, 2, "webp")
    # the package writes raw tiles and baseline JPEG only
    for fmt in ("webp", "png", "gif", "bmp", "tiff"):
        with pytest.raises(NotImplementedError, match="no encoder"):
            encode_image(_source("png"), fmt)


# --- JPEG Huffman decode tables ----------------------------------------------

def _per_symbol_lut(bits, vals):
    """Reference build: one slice assignment per canonical code."""
    sym = np.zeros(1 << 16, np.uint8)
    ln = np.zeros(1 << 16, np.uint8)
    for s, (code, length) in jpeg._canonical_codes(bits, vals).items():
        lo, hi = code << (16 - length), (code + 1) << (16 - length)
        sym[lo:hi] = s
        ln[lo:hi] = length
    return sym.tobytes(), ln.tobytes()


def _huffman_specs():
    specs = [(jpeg.DC_LUMA_BITS, jpeg.DC_LUMA_VALS),
             (jpeg.AC_LUMA_BITS, jpeg.AC_LUMA_VALS),
             (jpeg.DC_CHROMA_BITS, jpeg.DC_CHROMA_VALS),
             (jpeg.AC_CHROMA_BITS, jpeg.AC_CHROMA_VALS)]
    rng = np.random.default_rng(1401)
    for _ in range(50):
        # sparse to dense symbol sets; skewed counts reach the K.3 fold
        keep = rng.random(256) < rng.uniform(0.01, 1.0)
        keep[rng.integers(256)] = True
        freq = rng.integers(1, 1 << int(rng.integers(1, 24)), 256) * keep
        specs.append(_gen_huffman(freq))
    return specs


def test_decode_lut_equals_per_symbol_build():
    for bits, vals in _huffman_specs():
        sym, ln = jpeg._decode_lut(bytes(bits) + bytes(vals))
        assert type(sym) is bytes and type(ln) is bytes
        assert (sym, ln) == _per_symbol_lut(bits, vals)


def test_decode_lut_rejects_bad_tables():
    """Over-subscribed codes (Kraft sum past 2^16, libjpeg's
    JERR_BAD_HUFF_TABLE) and more than 256 values are corrupt."""
    for bits, vals in (
            ([2, 2] + [0] * 14, [1, 2, 3, 4]),  # 2-bit codes past the end
            ([3] + [0] * 15, [1, 2, 3]),  # three 1-bit codes
            ([0] * 8 + [255, 255] + [0] * 6, [0] * 510)):  # Kraft-valid, 510 values
        with pytest.raises(ValueError, match="bad Huffman table"):
            jpeg._decode_lut(bytes(bits) + bytes(vals))
    # a whole file: re-count the first DHT table (12 DC-luma values) as two
    # 1-bit and ten 2-bit codes; same value count, so every length holds
    buf = bytearray(encode_image(_source("jpeg"), "jpeg"))
    p = buf.index(b"\xFF\xC4") + 5  # marker, length, Tc/Th
    assert sum(buf[p:p + 16]) == 12
    buf[p:p + 16] = bytes([2, 10] + [0] * 14)
    with pytest.raises(ValueError, match="bad Huffman table"):
        decode_image(bytes(buf), W, H, "jpeg")


def test_decode_lut_memo_stays_bounded():
    jpeg._decode_lut.cache_clear()
    rng = np.random.default_rng(7)
    for _ in range(12):  # per-scan optimized tables: several new per file
        img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
        jpeg.decode_jpeg(encode_jpeg_progressive(img))
    info = jpeg._decode_lut.cache_info()
    assert info.misses > 32 and info.currsize <= 32


@pytest.mark.parametrize("pure", [False, True], ids=["c", "pure"])
def test_decode_lut_memo_does_not_change_pixels(pure, monkeypatch):
    """A mixed sequence decoded with a warm memo gives the pixels each file
    gives when decoded right after a cache_clear()."""
    monkeypatch.setattr(fastcodec, "DISABLED", pure)
    if not pure and fastcodec.lib() is None:
        pytest.skip("no C compiler in this environment")
    img = _source("jpeg")
    dem = synth_pixels(5, W, H)[..., 0].astype(np.uint16) * 16 + 7  # 12-bit
    files = [jpeg.encode_jpeg(img),
             encode_jpeg_sequential(img, subsample=True, restart_interval=3),
             encode_jpeg_progressive(img),
             encode_jpeg_progressive(synth_pixels(9, W, H)),
             encode_jpeg_sequential(dem),
             encode_jpeg_sequential(img, quality=60, multiscan=True)]
    cold = []
    for buf in files:
        jpeg._decode_lut.cache_clear()
        cold.append(jpeg.decode_jpeg(buf))
    jpeg._decode_lut.cache_clear()
    for i in (0, 2, 4, 1, 3, 5, 2, 0, 4, 3, 1, 5):
        np.testing.assert_array_equal(jpeg.decode_jpeg(files[i]), cold[i])
    assert jpeg._decode_lut.cache_info().hits > 0


# --- libjpeg as the JPEG decode oracle ---------------------------------------

_LIBJPEG_SHIM = r"""
#include <setjmp.h>
#include <stdio.h>
#include <jpeglib.h>

struct err { struct jpeg_error_mgr pub; jmp_buf jb; };
static void on_error(j_common_ptr c) { longjmp(((struct err *)c->err)->jb, 1); }

/* JPEG bytes -> h x w x 3 RGB: islow IDCT, no fancy upsampling, no block
 * smoothing. Returns 0, -1 on a libjpeg error, -2 on other dimensions. */
int decode_rgb(const unsigned char *buf, unsigned long n, int h, int w,
               unsigned char *out)
{
    struct jpeg_decompress_struct d;
    struct err e;
    d.err = jpeg_std_error(&e.pub);
    e.pub.error_exit = on_error;
    if (setjmp(e.jb)) { jpeg_destroy_decompress(&d); return -1; }
    jpeg_create_decompress(&d);
    jpeg_mem_src(&d, (unsigned char *)buf, n);
    jpeg_read_header(&d, TRUE);
    d.dct_method = JDCT_ISLOW;
    d.do_fancy_upsampling = FALSE;
    d.do_block_smoothing = FALSE;
    d.out_color_space = JCS_RGB;
    jpeg_start_decompress(&d);
    if ((int)d.output_height != h || (int)d.output_width != w) {
        jpeg_destroy_decompress(&d);
        return -2;
    }
    while (d.output_scanline < d.output_height) {
        JSAMPROW row = out + (size_t)d.output_scanline * w * 3;
        jpeg_read_scanlines(&d, &row, 1);
    }
    jpeg_finish_decompress(&d);
    jpeg_destroy_decompress(&d);
    return 0;
}
"""


@pytest.fixture(scope="module")
def libjpeg_rgb(tmp_path_factory):
    """decode(buf, h, w) → (h, w, 3) uint8 RGB through the system libjpeg,
    compiled into a ctypes shim. A test oracle only: the decode path is the
    in-repo codec. Skips where no C compiler or no libjpeg headers exist."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler in this environment")
    d = tmp_path_factory.mktemp("libjpeg")
    src, so = d / "shim.c", d / "shim.so"
    src.write_text(_LIBJPEG_SHIM)
    r = subprocess.run([cc, "-O1", "-shared", "-fPIC", "-o", str(so), str(src),
                        "-ljpeg"], capture_output=True, text=True)
    if r.returncode:
        if "jpeglib.h" in r.stderr or "-ljpeg" in r.stderr:
            pytest.skip("libjpeg headers or library not installed")
        raise AssertionError(r.stderr)
    lib = ctypes.CDLL(str(so))
    lib.decode_rgb.argtypes = [ctypes.c_char_p, ctypes.c_ulong, ctypes.c_int,
                               ctypes.c_int, ctypes.c_void_p]

    def decode(buf, h, w):
        out = np.empty((h, w, 3), np.uint8)
        assert lib.decode_rgb(buf, len(buf), h, w, out.ctypes.data) == 0
        return out

    return decode


def _oracle_files():
    """(name, JPEG bytes, h, w): every scan layout at 4:4:4 and 4:2:0, odd
    sizes, grayscale, saturated content, this module's JPEG cases and a
    32-image q90 corpus of the synthetic images table."""
    img = synth_pixels(5, 45, 33)
    checker = np.kron(np.indices((4, 5)).sum(0) % 2 * 255, np.ones((8, 8)))
    checker = np.dstack([checker, 255 - checker, checker]).astype(np.uint8)
    layouts = {"baseline": {}, "multiscan": {"multiscan": True},
               "restart": {"restart_interval": 3},
               "multiscan_restart": {"multiscan": True, "restart_interval": 2}}
    files = []
    for sub in (False, True):
        tag = "420" if sub else "444"
        for name, kw in layouts.items():
            files.append((f"{name}_{tag}", encode_jpeg_sequential(
                img, quality=90, subsample=sub, **kw)))
        files.append((f"progressive_{tag}", encode_jpeg_progressive(
            img, quality=90, subsample=sub)))
        for h, w in ((1, 1), (7, 9), (17, 31), (40, 3)):
            files.append((f"odd{h}x{w}_{tag}", jpeg.encode_jpeg(
                synth_pixels(h + w, w, h), quality=85, subsample=sub)))
        files.append((f"checker_q50_{tag}", jpeg.encode_jpeg(
            checker, quality=50, subsample=sub)))
        for i, r in enumerate(synth_images_table(32, seed=1801).to_pylist()):
            px = decode_image(r["bytes"], r["w"], r["h"], r["fmt"])
            files.append((f"corpus{i}_{tag}", jpeg.encode_jpeg(
                px, quality=90, subsample=sub)))
    files += [("gray", jpeg.encode_jpeg(img[..., 0].copy(), quality=90)),
              ("gray_progressive", encode_jpeg_progressive(
                  img[..., 1].copy(), quality=75))]
    files += [(case, _encode(fmt, enc, kw)) for case, fmt, enc, kw, _ in CASES
              if fmt == "jpeg"]
    return [(name, buf, *struct.unpack_from(">HH", buf, buf.index(sof) + 5))
            for name, buf in files
            for sof in [b"\xFF\xC2" if b"\xFF\xC2" in buf else b"\xFF\xC0"]]


@pytest.mark.parametrize("pure", [False, True], ids=["c", "pure"])
def test_jpeg_decode_equals_libjpeg_islow(pure, libjpeg_rgb, monkeypatch):
    """8-bit decode is libjpeg's: islow IDCT, fixed-point YCbCr → RGB and
    replicating (non-fancy) upsampling give every sample of every file
    exactly, with and without the C twins."""
    monkeypatch.setattr(fastcodec, "DISABLED", pure)
    if not pure and fastcodec.lib() is None:
        pytest.skip("no C compiler in this environment")
    differing = {}
    for name, buf, h, w in _oracle_files():
        ours = jpeg.decode_jpeg(buf)
        assert ours.shape == (h, w, 4)
        n = int((ours[..., :3] != libjpeg_rgb(buf, h, w)).sum())
        if n:
            differing[name] = n
    assert differing == {}


def _extreme_jpeg(prec, layout):
    """A 16×16 sequential JPEG at ``prec`` bits whose quantization table is
    all 65535s (16-bit DQT) and whose every coefficient is a size-15 value
    of ±32767: DC alternating 32767 and 0, AC signs seeded. ``layout`` is
    "gray", "444" or "420". Returns the bytes and each coded block's
    zigzag-order coefficients, in coding order."""
    samp = {"gray": [0x11], "444": [0x11] * 3, "420": [0x22, 0x11, 0x11]}[layout]
    mcus = 1 if layout == "420" else 4
    out = bytearray(b"\xFF\xD8")
    out += b"\xFF\xDB" + struct.pack(">HB", 3 + 128, 0x10) + b"\xFF" * 128
    out += bytes([0xFF, 0xC0 if prec == 8 else 0xC1]) + struct.pack(
        ">HBHHB", 8 + 3 * len(samp), prec, 16, 16, len(samp))
    for ci, hv in enumerate(samp):
        out += bytes([ci + 1, hv, 0])
    bits = bytes([0, 2] + [0] * 14)  # two 2-bit codes: 00 and 01
    out += b"\xFF\xC4" + struct.pack(">HB", 21, 0x00) + bits + bytes([0, 15])
    out += b"\xFF\xC4" + struct.pack(">HB", 21, 0x10) + bits + bytes([0, 0x0F])
    out += b"\xFF\xDA" + struct.pack(">HB", 6 + 2 * len(samp), len(samp))
    for ci in range(len(samp)):
        out += bytes([ci + 1, 0x00])
    out += b"\x00\x3F\x00"
    rng = np.random.default_rng(prec)
    w = jpeg._BitWriter()
    preds = [0] * len(samp)
    blocks = []
    for _ in range(mcus):
        for ci, hv in enumerate(samp):
            for _ in range((hv >> 4) * (hv & 15)):
                diff = -32767 if preds[ci] else 32767
                preds[ci] += diff
                ac = np.where(rng.integers(0, 2, 63) == 1, 32767, -32767)
                blocks.append([preds[ci], *ac.tolist()])
                for v in [diff, *blocks[-1][1:]]:
                    w.write(1, 2)  # DC size 15 / AC run 0, size 15
                    w.write(v if v > 0 else 0, 15)
    w.flush()
    return bytes(out + w.buf + b"\xFF\xD9"), blocks


@pytest.mark.parametrize("prec", [8, 12])
@pytest.mark.parametrize("layout", ["gray", "444", "420"])
def test_jpeg_extreme_coefficients_stay_in_range(prec, layout, monkeypatch):
    """A 65535 quantizer times 15-bit coefficients cannot overflow the
    integer IDCT: C twin and NumPy path give identical pixels inside
    [0, 2^P − 1], and a gray file equals islow evaluated in Python's
    unbounded integers."""
    buf, blocks = _extreme_jpeg(prec, layout)
    monkeypatch.setattr(fastcodec, "DISABLED", True)
    pure = jpeg.decode_jpeg(buf)
    maxv = (1 << prec) - 1
    assert pure.dtype == (np.uint8 if prec == 8 else np.uint16)
    assert int(pure.max()) <= maxv
    monkeypatch.setattr(fastcodec, "DISABLED", False)
    np.testing.assert_array_equal(jpeg.decode_jpeg(buf), pure)
    if layout != "gray":
        return
    # both islow passes over Python ints, one block at a time: no fixed
    # width anywhere
    pass1 = 2 if prec == 8 else 1
    exact = np.zeros((16, 16), np.int64)
    for b, zz in enumerate(blocks):
        d = [0] * 64
        for i, v in enumerate(zz):
            d[jpeg.ZIGZAG[i]] = v * 65535
        cols = [jpeg._islow_1d(d[c::8], 13 - pass1) for c in range(8)]
        for r in range(8):
            row = jpeg._islow_1d([col[r] for col in cols], 16 + pass1)
            exact[b // 2 * 8 + r, b % 2 * 8:b % 2 * 8 + 8] = [
                min(max(v + (1 << (prec - 1)), 0), maxv) for v in row]
    got = pure[..., 0] if prec == 8 else pure
    np.testing.assert_array_equal(got, exact)
    assert (got == 0).any() and (got == maxv).any()  # both clamps reached
