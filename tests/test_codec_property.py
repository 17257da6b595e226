"""Property tests (hypothesis) for the round-4 image codecs: random shapes
and palettes must round-trip losslessly (gif/bmp/tiff), and malformed
streams must raise the documented corrupt-input error. Complements the
hand-built-file tests in test_warp.py."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codec_writers import encode_bmp, encode_gif, encode_tiff_layout
from projcl_ray import bmp, fastcodec, gif, jpeg, tiff
from tools.fuzz_codecs import FORMATS, mutants, seeds


@st.composite
def palette_image(draw):
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 40))
    n_colors = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pal = rng.integers(0, 256, (n_colors, 3), dtype=np.uint8)
    idx = rng.integers(0, n_colors, (h, w))
    img = np.empty((h, w, 4), np.uint8)
    img[..., :3] = pal[idx]
    img[..., 3] = 255
    return img


@given(palette_image(), st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_gif_roundtrip_property(img, interlace, transparent):
    if transparent:
        img = img.copy()
        img[:: max(1, img.shape[0] // 3), :, 3] = 0
    buf = encode_gif(img, interlace=interlace)
    dec = gif.decode_gif(buf)
    opq = img[..., 3] >= 128
    np.testing.assert_array_equal(dec[..., 3] > 0, opq)
    np.testing.assert_array_equal(dec[opq][:, :3], img[opq][:, :3])


@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_bmp_roundtrip_property(h, w, seed):
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 4), dtype=np.uint8)
    dec = bmp.decode_bmp(encode_bmp(img))
    np.testing.assert_array_equal(dec[..., :3], img[..., :3])
    assert (dec[..., 3] == 255).all()


@given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**31 - 1),
       st.sampled_from(["none", "deflate", "lzw"]), st.booleans(),
       st.sampled_from([1, 2]), st.sampled_from([1, 3, 4]))
@settings(max_examples=30, deadline=None)
def test_tiff_roundtrip_property(h, w, seed, comp, tiled, predictor, channels):
    rng = np.random.default_rng(seed)
    shape = (h, w) if channels == 1 else (h, w, channels)
    img = rng.integers(0, 256, shape, dtype=np.uint8)
    buf = encode_tiff_layout(img, compression=comp, tiled=tiled,
                             tile_size=16, rows_per_strip=13, predictor=predictor)
    dec = tiff.decode_tiff(buf)
    if channels == 1:
        np.testing.assert_array_equal(dec[..., 0], img)
        np.testing.assert_array_equal(dec[..., 1], img)
    else:
        np.testing.assert_array_equal(dec[..., :3], img[..., :3])
    if channels == 4:
        np.testing.assert_array_equal(dec[..., 3], img[..., 3])
    else:
        assert (dec[..., 3] == 255).all()


# ---------------------------------------------------------------------------
# Corrupt-input contracts (round-5 ADVICE): every malformed stream raises
# ValueError('corrupt ...'), never a bare struct.error / KeyError, and
# spec-legal oddities (JPEG 0xFF fill bytes, T.81 B.1.1.2) still decode.
# ---------------------------------------------------------------------------


def _fuzz_decoder(name, buf, dec, trials, seed=0):
    """Truncate / byte-flip / garbage-inject a valid stream `trials` times:
    the decoder must either succeed or raise the documented ValueError /
    NotImplementedError — never a foreign exception type, never a crash
    (the round-5 fuzz found heap corruption in two C decode paths from
    unvalidated header fields; this pins the fix)."""
    for b in mutants(buf, trials, seed):
        try:
            dec(b)
        except (ValueError, NotImplementedError):
            pass  # the documented corrupt-input contract


@pytest.mark.parametrize("name", FORMATS)
def test_corrupt_input_fuzz_contract(name):
    buf, dec = seeds()[name]
    _fuzz_decoder(name, buf, dec, trials=60)


def test_pathological_structures_no_crash():
    """Crafted (not random) hostile structure: a TIFF whose IFD points back
    at itself must error as corrupt input, not loop."""
    import struct

    hdr = b"II*\x00" + struct.pack("<I", 8)
    ifd = struct.pack("<H", 0) + struct.pack("<I", 8)  # 0 tags, next -> self
    with pytest.raises(ValueError):
        tiff.decode_tiff(hdr + ifd)


def test_gif_logical_screen_bomb_rejected():
    """A 40-byte GIF declaring a 65535x65535 logical screen over one 1x1
    frame fails as corrupt input before the ~17 GB canvas is allocated."""
    import struct

    from projcl_ray import gif

    bomb = (b"GIF89a" + struct.pack("<HHBBB", 65535, 65535, 0x80, 0, 0) + bytes(6)
            + b"\x21\xfe\x01x\x00"                               # comment
            + b"\x2c" + struct.pack("<HHHHB", 0, 0, 1, 1, 0)
            + b"\x02\x02\x44\x01\x00" + b"\x3b")
    assert len(bomb) == 40
    with pytest.raises(ValueError, match="^corrupt GIF"):
        gif.decode_gif(bomb)


def test_corrupt_input_fuzz_pure_paths(monkeypatch):
    """Same contract with the C twins disabled (the pure-Python loops are
    the parity oracles and must hold the contract on their own)."""
    monkeypatch.setattr(fastcodec, "DISABLED", True)
    samples = seeds()
    for name in ("jpeg_prog", "gif", "png"):
        buf, dec = samples[name]
        _fuzz_decoder(name, buf, dec, trials=30, seed=7)


def _sample_rgba(h=24, w=17, seed=7):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 4), dtype=np.uint8)
    img[..., 3] = 255
    return img


def test_jpeg_fill_bytes_before_markers_decode():
    buf = jpeg.encode_jpeg(_sample_rgba(), quality=85)
    base = jpeg.decode_jpeg(buf)
    # insert 0xFF fill runs before SOF/DHT/SOS/EOI markers (T.81 B.1.1.2)
    out = bytearray()
    i = 0
    while i < len(buf):
        if buf[i] == 0xFF and i + 1 < len(buf) and buf[i + 1] in (
                0xC0, 0xC4, 0xDA, 0xD9):
            out += b"\xFF\xFF\xFF"  # fill bytes, then the real FF-marker
        out.append(buf[i])
        i += 1
    padded = jpeg.decode_jpeg(bytes(out))
    assert np.array_equal(base, padded)


def test_jpeg_scan_undefined_component_raises_valueerror():
    buf = bytearray(jpeg.encode_jpeg(_sample_rgba(), quality=85))
    sos = bytes(buf).find(b"\xFF\xDA")
    assert sos > 0
    buf[sos + 5] = 99  # first scan component id → one the SOF never defined
    with pytest.raises(ValueError, match="corrupt JPEG"):
        jpeg.decode_jpeg(bytes(buf))


def test_jpeg_scan_undefined_huffman_table_raises_valueerror():
    buf = bytearray(jpeg.encode_jpeg(_sample_rgba(), quality=85))
    sos = bytes(buf).find(b"\xFF\xDA")
    assert sos > 0
    buf[sos + 6] = 0x33  # Td=3/Ta=3: tables never written by the encoder
    with pytest.raises(ValueError, match="corrupt JPEG"):
        jpeg.decode_jpeg(bytes(buf))


def test_tiff_truncated_ifd_raises_valueerror():
    buf = tiff.encode_tiff(_sample_rgba())
    tiff.decode_tiff(buf)  # sanity: intact file decodes
    with pytest.raises(ValueError, match="corrupt TIFF"):
        tiff.decode_tiff(buf[:10])  # header ok, IFD gone


def test_tiff_huge_tag_count_raises_valueerror_fast():
    buf = bytearray(tiff.encode_tiff(_sample_rgba()))
    (ifd_off,) = np.frombuffer(bytes(buf[4:8]), np.uint32)
    # overwrite the entry count with a count that cannot fit the buffer
    buf[ifd_off:ifd_off + 2] = (0xFFFF).to_bytes(2, "little")
    with pytest.raises(ValueError, match="corrupt TIFF"):
        tiff.decode_tiff(bytes(buf))
