"""Property tests (hypothesis) for the round-4 codecs: random shapes,
palettes and signals must round-trip losslessly (gif/bmp/tiff) or within
the codec's quantization bound (G.711 / IMA ADPCM). Complements the
hand-built-file tests in test_warp.py / test_mosaic_media.py."""

import numpy as np
from hypothesis import given, settings, strategies as st

from projcl_ray import bmp, gif, media, tiff


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
    buf = gif.encode_gif(img, interlace=interlace)
    dec = gif.decode_gif(buf)
    opq = img[..., 3] >= 128
    np.testing.assert_array_equal(dec[..., 3] > 0, opq)
    np.testing.assert_array_equal(dec[opq][:, :3], img[opq][:, :3])


@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_bmp_roundtrip_property(h, w, seed):
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 4), dtype=np.uint8)
    dec = bmp.decode_bmp(bmp.encode_bmp(img))
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
    buf = tiff.encode_tiff(img, compression=comp, tiled=tiled,
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


@given(st.integers(0, 2**31 - 1), st.integers(10, 3000),
       st.sampled_from(["ulaw", "alaw"]))
@settings(max_examples=20, deadline=None)
def test_g711_quantization_bound_property(seed, n, codec):
    pcm = (np.random.default_rng(seed).uniform(-1, 1, n) * 32767).astype(np.int16)
    x, sr = media.decode_wav(media.encode_wav(pcm, 8000, codec=codec))
    assert sr == 8000 and len(x) == n
    # G.711 codes decode to the nearest representable value: within range
    # the largest segment step is 1024 → error <= 512; inputs beyond the
    # codec's max representable (µ-law ±32124) clip with error <= 643
    assert np.abs(x * 32768.0 - pcm).max() <= 643.0


@given(st.integers(0, 2**31 - 1), st.integers(20, 5000), st.sampled_from([1, 2]))
@settings(max_examples=15, deadline=None)
def test_ima_adpcm_tracks_smooth_signals_property(seed, n, ch):
    rng = np.random.default_rng(seed)
    # band-limited signal: ADPCM assumes sample-to-sample correlation
    freq = rng.uniform(50, 2000)
    t = np.arange(n) / 16000.0
    sig = 0.5 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.normal(size=n)
    pcm = np.clip(sig * 32767, -32768, 32767).astype(np.int16)
    if ch == 2:
        pcm = np.stack([pcm, (pcm // 3).astype(np.int16)], axis=1)
    x, sr = media.decode_wav(media.encode_wav_ima_adpcm(pcm, 16000))
    ref = pcm.astype(np.float32) / 32768.0
    if ref.ndim == 2:
        ref = ref.mean(axis=1)
    assert len(x) == len(ref)
    err = np.sqrt(((x - ref) ** 2).mean())
    assert err < 0.03  # ~30 dB below full scale on band-limited input


@given(st.integers(0, 2**31 - 1), st.integers(8, 6000),
       st.sampled_from([1, 2]), st.sampled_from(["flac", "adpcm"]))
@settings(max_examples=12, deadline=None)
def test_audio_encode_c_parity_property(seed, n, ch, codec):
    """Fuzz the C encode twins (flac_plan_full, ima_encode_rows /
    ima_decode_rows) against the pure-Python loops on arbitrary random
    signals — byte-identical encodes and sample-identical decodes at any
    length/channel count, including white noise (worst case for both
    predictors). No-ops (still passes) where no C compiler exists."""
    import os

    from projcl_ray import flac

    rng = np.random.default_rng(seed)
    # mix of smooth + white-noise segments to exercise rice vs escape
    # partitions and wide ADPCM steps
    t = np.arange(n)
    sig = 8000 * np.sin(t * rng.uniform(0.001, 0.3))
    sig[n // 2:] += rng.integers(-20000, 20000, n - n // 2)
    pcm = np.clip(sig, -32768, 32767).astype(np.int16)
    x = pcm if ch == 1 else np.stack([pcm, (-pcm // 2).astype(np.int16)], 1)
    old = os.environ.get("PROJCL_NO_FASTCODEC")
    try:
        os.environ["PROJCL_NO_FASTCODEC"] = ""
        if codec == "flac":
            fast = flac.encode_flac(x, 16000)
            dec_fast = flac.decode_flac(fast)
            os.environ["PROJCL_NO_FASTCODEC"] = "1"
            assert flac.encode_flac(x, 16000) == fast
            dec_pure = flac.decode_flac(fast)
        else:
            fast = media.encode_wav_ima_adpcm(x, 16000)
            dec_fast = media.decode_wav(fast)
            os.environ["PROJCL_NO_FASTCODEC"] = "1"
            assert media.encode_wav_ima_adpcm(x, 16000) == fast
            dec_pure = media.decode_wav(fast)
        np.testing.assert_array_equal(dec_fast[0], dec_pure[0])
    finally:
        if old is None:
            os.environ.pop("PROJCL_NO_FASTCODEC", None)
        else:
            os.environ["PROJCL_NO_FASTCODEC"] = old


# ---------------------------------------------------------------------------
# Corrupt-input contracts (round-5 ADVICE): every malformed stream raises
# ValueError('corrupt ...'), never a bare struct.error / KeyError, and
# spec-legal oddities (JPEG 0xFF fill bytes, T.81 B.1.1.2) still decode.
# ---------------------------------------------------------------------------


import pytest


def _fuzz_samples():
    from projcl_ray import avi, bmp, flac, gif, jpeg, mp3, png, tiff
    from projcl_ray.images import synth_pixels

    img = synth_pixels(3, 48, 32)
    img64 = ((img >> 6) << 6) + 32  # <=64 colors for the palette format
    pcm = (3000 * np.sin(np.arange(20000) * 0.01)).astype(np.int16)
    frames = np.stack([synth_pixels(i, 32, 24) for i in range(4)])
    return {
        "jpeg": (jpeg.encode_jpeg(img), jpeg.decode_jpeg),
        "jpeg_prog": (jpeg.encode_jpeg(img, progressive=True),
                      jpeg.decode_jpeg),
        "png": (png.encode_png(img), png.decode_png),
        "gif": (gif.encode_gif(img64), gif.decode_gif),
        "bmp": (bmp.encode_bmp(img[..., :3]), bmp.decode_bmp),
        "tiff": (tiff.encode_tiff(img[..., :3], compression="lzw"),
                 tiff.decode_tiff),
        "flac": (flac.encode_flac(pcm, 16000), flac.decode_flac),
        "wav": (media.encode_wav(pcm, 16000), media.decode_wav),
        "adpcm": (media.encode_wav_ima_adpcm(pcm, 16000), media.decode_wav),
        "avi": (avi.encode_avi_mjpeg(frames, fps=10), avi.decode_avi_mjpeg),
        "mp3": (mp3.synth_mp3_bytes(seed=1, n_frames=20),
                lambda b: mp3.mp3_stream_info(b)),
    }


def _fuzz_decoder(name, buf, dec, trials, seed=0):
    """Truncate / byte-flip / garbage-inject a valid stream `trials` times:
    the decoder must either succeed or raise the documented ValueError /
    NotImplementedError — never a foreign exception type, never a crash
    (the round-5 fuzz found heap corruption in two C decode paths from
    unvalidated header fields; this pins the fix)."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        b = bytearray(buf)
        mode = trial % 3
        if mode == 0 and len(b) > 8:
            b = b[: rng.integers(1, len(b))]
        elif mode == 1:
            for _ in range(rng.integers(1, 6)):
                b[rng.integers(0, len(b))] = rng.integers(0, 256)
        else:
            pos = rng.integers(0, len(b))
            b = (b[:pos]
                 + bytes(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())
                 + b[pos:])
        try:
            dec(bytes(b))
        except (ValueError, NotImplementedError):
            pass  # the documented corrupt-input contract


@pytest.mark.parametrize("name", ["jpeg", "jpeg_prog", "png", "gif", "bmp",
                                  "tiff", "flac", "wav", "adpcm", "avi",
                                  "mp3"])
def test_corrupt_input_fuzz_contract(name):
    buf, dec = _fuzz_samples()[name]
    _fuzz_decoder(name, buf, dec, trials=60)


def test_pathological_structures_no_crash():
    """Crafted (not random) hostile structures: a deeply nested RIFF LIST
    chain must not blow the Python stack (the walk is an explicit iterator
    stack), and a TIFF whose IFD points back at itself must error as
    corrupt input, not loop."""
    import struct

    from projcl_ray import avi, tiff

    body = b"00dc" + struct.pack("<I", 0)
    for _ in range(20000):
        body = b"LIST" + struct.pack("<I", len(body) + 4) + b"movi" + body
    bomb = b"RIFF" + struct.pack("<I", len(body) + 4) + b"AVI " + body
    with pytest.raises(ValueError):
        avi.decode_avi_mjpeg(bomb)

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


def test_corrupt_input_fuzz_pure_paths():
    """Same contract with the C twins disabled (the pure-Python loops are
    the parity oracles and must hold the contract on their own)."""
    import os

    old = os.environ.get("PROJCL_NO_FASTCODEC")
    try:
        os.environ["PROJCL_NO_FASTCODEC"] = "1"
        samples = _fuzz_samples()
        for name in ("jpeg_prog", "gif", "png", "flac"):
            buf, dec = samples[name]
            _fuzz_decoder(name, buf, dec, trials=30, seed=7)
    finally:
        if old is None:
            os.environ.pop("PROJCL_NO_FASTCODEC", None)
        else:
            os.environ["PROJCL_NO_FASTCODEC"] = old

import pytest

from projcl_ray import jpeg


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


@given(st.binary(min_size=0, max_size=4096), st.integers(0, 2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_mp3_parser_never_crashes_property(blob, seed):
    """Corrupt-input contract for the MPEG frame walk: arbitrary bytes
    either raise the documented ValueError or parse into frames whose
    offsets/sizes are in-bounds, non-overlapping and spec-consistent —
    never an IndexError/struct.error/hang. Also: a valid stream buried
    after the garbage is still found (resync), and truncating the final
    frame drops exactly that frame."""
    from projcl_ray import mp3

    try:
        frames = mp3.parse_mp3_frames(blob)
    except ValueError:
        frames = None
    if frames is not None:
        pos = 0
        for f in frames:
            assert f.offset >= pos
            assert f.size > 4
            assert f.offset + f.size <= len(blob)
            assert f.layer in (1, 2, 3) and f.channels in (1, 2)
            pos = f.offset + f.size

    good = mp3.synth_mp3_bytes(4, bitrate_kbps=128, seed=seed % 97)
    # resync over a sync-free fuzz prefix finds all 4 frames (0xFF is
    # masked out: a random prefix may otherwise contain a valid-LOOKING
    # bogus header whose declared length swallows a real frame — correct
    # resync behavior, but not what this assertion pins)
    prefix = bytes(b & 0x7F for b in blob[:512])
    found = mp3.parse_mp3_frames(prefix + good)
    assert len([f for f in found if f.size in (417, 418)]) >= 4

    # truncation drops only the cut tail frame
    cut = mp3.parse_mp3_frames(good[:-3])
    assert len(cut) == 3
