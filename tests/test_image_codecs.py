"""Per-format contracts of the image codec layer, one case per encoder
configuration, all through the ``images.encode_image`` /
``images.decode_image`` dispatch the stages use.

Each format has exactly one in-repo codec, so the contracts are: the
round-trip is exact (lossless formats) or PSNR-bounded (JPEG); the encoded
bytes are pinned by digest, and the decoded pixels do not depend on whether
the C decode twins of :mod:`projcl_ray.fastcodec` are loaded; and truncated
or foreign input raises ``ValueError``, never another exception type.
"""

import hashlib

import numpy as np
import pytest

from projcl_ray import fastcodec, jpeg
from projcl_ray.images import decode_image, encode_image, synth_pixels

W, H = 37, 29

# (case id, format, encoder kwargs, lossless)
CASES = [
    ("png", "png", {}, True),
    ("png_paeth_adam7", "png", {"filter_type": 4, "interlace": True}, True),
    ("jpeg", "jpeg", {"quality": 90}, False),
    ("jpeg_420_restart", "jpeg",
     {"quality": 85, "subsample": True, "restart_interval": 2}, False),
    ("jpeg_multiscan", "jpeg", {"quality": 90, "multiscan": True}, False),
    ("jpeg_progressive", "jpeg", {"quality": 90, "progressive": True}, False),
    ("gif", "gif", {}, True),
    ("gif_interlaced", "gif", {"interlace": True}, True),
    ("bmp", "bmp", {}, True),
    ("tiff_deflate", "tiff", {}, True),
    ("tiff_lzw_tiled", "tiff", {"compression": "lzw", "tiled": True,
                                "tile_size": 16}, True),
    ("tiff_lzw_predictor", "tiff", {"compression": "lzw", "predictor": 2},
     True),
]
IDS = [c[0] for c in CASES]
# SHA-256 prefix of each case's encoded bytes. The encoders are pure Python
# and deterministic; these are also the bytes of the C encode twins they
# once had. PNG and deflate TIFF go through zlib, so a zlib whose output
# differs moves those three.
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


def _encode(fmt, kw):
    return encode_image(_source(fmt), fmt, **kw)


@pytest.mark.parametrize("case,fmt,kw,lossless", CASES, ids=IDS)
def test_roundtrip_through_dispatch(case, fmt, kw, lossless):
    src = _source(fmt)
    out = decode_image(encode_image(src, fmt, **kw), W, H, fmt)
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


@pytest.mark.parametrize("case,fmt,kw,lossless", CASES, ids=IDS)
def test_bytes_and_pixels_independent_of_c_twins(case, fmt, kw, lossless,
                                                 monkeypatch):
    """The encoded bytes match their pinned digest, and the C decode twins
    are accelerators only: decoding with them disabled gives the same
    pixels."""
    buf = _encode(fmt, kw)
    assert hashlib.sha256(buf).hexdigest()[:16] == ENCODED_SHA256[case]
    monkeypatch.setenv("PROJCL_NO_FASTCODEC", "")
    if fastcodec.lib() is None:
        pytest.skip("no C compiler in this environment")
    fast_px = decode_image(buf, W, H, fmt)
    monkeypatch.setenv("PROJCL_NO_FASTCODEC", "1")
    np.testing.assert_array_equal(decode_image(buf, W, H, fmt), fast_px)


@pytest.mark.parametrize("case,fmt,kw,lossless", CASES, ids=IDS)
def test_truncated_or_foreign_input_raises_valueerror(case, fmt, kw,
                                                      lossless):
    buf = _encode(fmt, kw)
    for frac in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9):
        with pytest.raises(ValueError):
            decode_image(buf[:int(len(buf) * frac)], W, H, fmt)
    # another format's stream is rejected by the signature check
    other = encode_image(_source("bmp"), "bmp" if fmt != "bmp" else "png")
    with pytest.raises(ValueError, match="^not a"):
        decode_image(other, W, H, fmt)


def test_unknown_format_raises():
    with pytest.raises(ValueError, match="unknown image format"):
        decode_image(b"\x00" * 16, 2, 2, "webp")
    with pytest.raises(NotImplementedError, match="no encoder"):
        encode_image(_source("png"), "webp")


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
        specs.append(jpeg._gen_huffman(freq))
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
        jpeg.decode_jpeg(jpeg.encode_jpeg(img, progressive=True))
    info = jpeg._decode_lut.cache_info()
    assert info.misses > 32 and info.currsize <= 32


@pytest.mark.parametrize("env", ["", "1"], ids=["c", "pure"])
def test_decode_lut_memo_does_not_change_pixels(env, monkeypatch):
    """A mixed sequence decoded with a warm memo gives the pixels each file
    gives when decoded right after a cache_clear()."""
    monkeypatch.setenv("PROJCL_NO_FASTCODEC", env)
    if not env and fastcodec.lib() is None:
        pytest.skip("no C compiler in this environment")
    img = _source("jpeg")
    dem = synth_pixels(5, W, H)[..., 0].astype(np.uint16) * 16 + 7  # 12-bit
    files = [jpeg.encode_jpeg(img),
             jpeg.encode_jpeg(img, subsample=True, restart_interval=3),
             jpeg.encode_jpeg(img, progressive=True),
             jpeg.encode_jpeg(synth_pixels(9, W, H), progressive=True),
             jpeg.encode_jpeg(dem),
             jpeg.encode_jpeg(img, quality=60, multiscan=True)]
    cold = []
    for buf in files:
        jpeg._decode_lut.cache_clear()
        cold.append(jpeg.decode_jpeg(buf))
    jpeg._decode_lut.cache_clear()
    for i in (0, 2, 4, 1, 3, 5, 2, 0, 4, 3, 1, 5):
        np.testing.assert_array_equal(jpeg.decode_jpeg(files[i]), cold[i])
    assert jpeg._decode_lut.cache_info().hits > 0
