"""Per-format contracts of the image codec layer, one case per encoder
configuration, all through the ``images.encode_image`` /
``images.decode_image`` dispatch the stages use.

Each format has exactly one in-repo codec, so the contracts are: the
round-trip is exact (lossless formats) or PSNR-bounded (JPEG); the bytes
and pixels do not depend on whether the C twins of
:mod:`projcl_ray.fastcodec` are loaded; and truncated or foreign input
raises ``ValueError``, never another exception type.
"""

import numpy as np
import pytest

from projcl_ray import fastcodec
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
    """The C twins are accelerators only: encoding and decoding with them
    disabled gives the same bytes and the same pixels."""
    monkeypatch.setenv("PROJCL_NO_FASTCODEC", "")
    if fastcodec.lib() is None:
        pytest.skip("no C compiler in this environment")
    fast = _encode(fmt, kw)
    fast_px = decode_image(fast, W, H, fmt)
    monkeypatch.setenv("PROJCL_NO_FASTCODEC", "1")
    assert _encode(fmt, kw) == fast
    np.testing.assert_array_equal(decode_image(fast, W, H, fmt), fast_px)


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
