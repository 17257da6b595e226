"""Warp + sampler correctness: the reference's exact sampling conventions
(+0.5 round-half-up nearest with zero border; bilinear floor-lerp; bicubic
Catmull-Rom with edge clamp and [0,255] output clamp), grid endpoint
inclusivity, identity warps, and PSNR golden checks (FIXTURES.md §6)."""

import numpy as np
import pytest

from codec_writers import (_chunk, encode_bmp, encode_gif,
                           encode_jpeg_progressive, encode_jpeg_sequential,
                           encode_png, encode_tiff_layout)
from projcl_ray import fastcodec
from projcl_ray.images import decode_image, encode_image, phash64, synth_pixels
from projcl_ray.proj import ProjParams, prepare
from projcl_ray.warp import (
    GeoRef,
    WarpSpec,
    default_warp_window,
    dest_grid,
    sample_bicubic,
    sample_bilinear,
    sample_nearest,
    sample_quasi_bicubic,
    warp_image,
)


def psnr(a, b):
    mse = np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2)
    return np.inf if mse == 0 else 10 * np.log10(255.0**2 / mse)


IMG = synth_pixels(0, 32, 24).astype(np.float64)


def test_dest_grid_inclusive_endpoints():
    """pl_load_grid: step = size/(count−1), endpoints inclusive (SURVEY §1.1)."""
    gx, gy = dest_grid(10.0, 20.0, 5.0, 3.0, 6, 4)
    assert gx[0, 0] == 10.0 and gx[0, -1] == 15.0
    assert gy[0, 0] == 20.0 and gy[-1, 0] == 23.0
    assert gx.shape == (4, 6)


def test_nearest_round_half_up_and_border():
    # at integer coords: floor(x+0.5)=x → exact texel
    out = sample_nearest(IMG, np.array([[3.0]]), np.array([[5.0]]))
    np.testing.assert_array_equal(out[0, 0], IMG[5, 3])
    # .49 rounds down, .5 rounds up (floor(x+0.5))
    out = sample_nearest(IMG, np.array([[3.49, 3.5]]), np.array([[5.0, 5.0]]))
    np.testing.assert_array_equal(out[0, 0], IMG[5, 3])
    np.testing.assert_array_equal(out[0, 1], IMG[5, 4])
    # outside → border zero (CLK_ADDRESS_CLAMP)
    out = sample_nearest(IMG, np.array([[-1.0, 100.0]]), np.array([[0.0, 0.0]]))
    assert np.all(out == 0)


def test_bilinear_exact_at_texels_and_midpoint():
    out = sample_bilinear(IMG, np.array([[7.0]]), np.array([[9.0]]))
    np.testing.assert_allclose(out[0, 0], IMG[9, 7])
    out = sample_bilinear(IMG, np.array([[7.5]]), np.array([[9.0]]))
    np.testing.assert_allclose(out[0, 0], 0.5 * (IMG[9, 7] + IMG[9, 8]))
    out = sample_bilinear(IMG, np.array([[7.0]]), np.array([[9.5]]))
    np.testing.assert_allclose(out[0, 0], 0.5 * (IMG[9, 7] + IMG[10, 7]))


def test_bicubic_interpolates_exactly_on_linear_ramps():
    """Catmull-Rom reproduces linear functions exactly (interior)."""
    ramp = np.tile(np.arange(32, dtype=np.float64)[None, :, None], (24, 1, 3))
    px = np.array([[5.25, 10.75]])
    py = np.array([[6.5, 12.0]])
    out = sample_bicubic(ramp, px, py)
    np.testing.assert_allclose(out[0, 0], 5.25, atol=1e-12)
    np.testing.assert_allclose(out[0, 1], 10.75, atol=1e-12)
    # and passes through texel values
    out = sample_bicubic(IMG, np.array([[4.0]]), np.array([[4.0]]))
    np.testing.assert_allclose(out[0, 0], IMG[4, 4], atol=1e-12)


def test_bicubic_output_clamped():
    spike = np.zeros((8, 8, 1))
    spike[3:5, 3:5] = 300.0  # overshoot source
    out = sample_bicubic(spike, np.full((1, 1), 3.5), np.full((1, 1), 2.5))
    assert 0.0 <= out.min() and out.max() <= 255.0


def test_quasi_bicubic_between_bilinear_and_bicubic():
    px, py = np.meshgrid(np.linspace(1.2, 30.2, 40), np.linspace(1.3, 22.3, 30))
    q = sample_quasi_bicubic(IMG, px, py)
    b = sample_bicubic(IMG, px, py)
    l = sample_bilinear(IMG, px, py)
    assert psnr(q, b) > 30  # close to full cubic
    assert np.mean(np.abs(q - b)) < np.mean(np.abs(l - b)) + 1.0


def test_identity_warp_mercator_psnr():
    """Warp into Mercator and back at matched resolution: geometry is smooth
    so bilinear round-trip must stay sharp (PSNR ≥ 40 dB on the interior)."""
    img = synth_pixels(3, 64, 64)
    georef = GeoRef(lon0=10.0, lat0=50.0, px_deg=0.01)
    params = ProjParams(spheroid="WGS_84")
    prepped = prepare("mercator", params)
    ox, oy, sx, sy = default_warp_window(prepped, georef, 64, 64)
    spec = WarpSpec("mercator", params, ox, oy, sx, sy, 64, 64, filter="bilinear")
    warped = warp_image(img, georef, spec)
    # inverse warp: project each source pixel into the merc window, sample back
    gx, gy = np.meshgrid(np.arange(64, dtype=float), np.arange(64, dtype=float))
    lon = georef.lon0 + georef.px_deg * gx
    lat = georef.lat0 - georef.px_deg * gy
    mx, my = prepped.forward(lon, lat)
    px = (mx - ox) / sx * (64 - 1)
    py = (my - oy) / sy * (64 - 1)
    back = sample_bilinear(warped, px, py)
    interior = (slice(2, -2), slice(2, -2))
    p = psnr(back[interior], img.astype(np.float64)[interior])
    assert p >= 40.0, p


@pytest.mark.parametrize("filt", ["nearest", "bilinear", "bicubic", "quasi_bicubic"])
def test_warp_filters_produce_valid_output(filt):
    img = synth_pixels(1, 48, 40)
    georef = GeoRef(lon0=-20.0, lat0=30.0, px_deg=0.05)
    params = ProjParams(spheroid="SPHERE", rlat1=30, rlat2=60)
    prepped = prepare("albers_equal_area", params)
    ox, oy, sx, sy = default_warp_window(prepped, georef, 48, 40)
    spec = WarpSpec("albers_equal_area", params, ox, oy, sx, sy, 48, 40, filter=filt)
    out = warp_image(img, georef, spec)
    assert out.shape == (40, 48, 4)
    assert np.all(np.isfinite(out))
    assert out.min() >= 0 and out.max() <= 255
    # the warped window covers the source, so most pixels should be non-zero
    assert (out[..., 3] > 0).mean() > 0.5


def test_warp_with_datum_shift_runs():
    img = synth_pixels(2, 32, 32)
    georef = GeoRef(lon0=5.0, lat0=47.0, px_deg=0.01)
    params = ProjParams(spheroid="WGS_84")
    prepped = prepare("mercator", params)
    ox, oy, sx, sy = default_warp_window(prepped, georef, 32, 32)
    spec = WarpSpec("mercator", params, ox, oy, sx, sy, 32, 32,
                    filter="bilinear", src_datum="CH_1903", dst_datum="WGS_84")
    out = warp_image(img, georef, spec)
    base = warp_image(img, georef, WarpSpec("mercator", params, ox, oy, sx, sy, 32, 32))
    # a ~200 m Swiss shift at 0.01°/px ≈ 0.2 px → small but nonzero difference
    assert not np.array_equal(out, base)


def test_codec_roundtrip_and_phash():
    img = synth_pixels(5, 40, 30)
    buf = encode_image(img)
    assert decode_image(buf, 40, 30, "raw").tobytes() == img.tobytes()
    assert phash64(img) == phash64(img.copy())
    assert phash64(img) != phash64(synth_pixels(6, 40, 30))
    with pytest.raises(ValueError):  # in-repo png codec rejects bad signature
        decode_image(b"", 1, 1, "png")


def _golden_specs():
    """(golden key prefix, image, georef, prepared projection, bilinear
    WarpSpec) for each tools/make_goldens.py case."""
    from tools.make_goldens import CASES

    for seed, w, h, proj, kw in CASES:
        georef = GeoRef(lon0=5.0 + seed, lat0=47.0 - seed, px_deg=0.01)
        prepped = prepare(proj, ProjParams(**kw))
        ox, oy, sx, sy = default_warp_window(prepped, georef, w, h)
        yield (f"{proj}_{seed}", synth_pixels(seed, w, h), georef, prepped,
               WarpSpec(proj, ProjParams(**kw), ox, oy, sx, sy, w, h))


def test_pipeline_matches_checked_in_goldens():
    """The float32 production warp must agree with the checked-in float64
    goldens (tools/make_goldens.py) at PSNR ≥ 50 dB (stricter than the
    input_hint's 40 dB gate)."""
    import dataclasses
    import os

    golden_path = os.path.join(os.path.dirname(__file__), "goldens", "warp_golden.npz")
    goldens = np.load(golden_path)
    from tools.make_goldens import FILTERS

    for key, img, georef, _, spec in _golden_specs():
        for filt in FILTERS:
            spec = dataclasses.replace(spec, filter=filt)
            got = np.clip(warp_image(img, georef, spec), 0, 255).astype(np.uint8)
            p = psnr(got, goldens[f"{key}_{filt}"])
            assert p >= 50.0, (key, filt, p)


def test_warp_c_path_equals_numpy_fallback(monkeypatch):
    """The same bilinear warps with the C twins disabled (numpy samplers)
    give bit-identical output."""
    runs = []
    for pure in (False, True):
        monkeypatch.setattr(fastcodec, "DISABLED", pure)
        with np.errstate(all="ignore"):
            runs.append([warp_image(img, georef, spec, prepped)
                         for _, img, georef, prepped, spec in _golden_specs()])
    for c, n in zip(*runs):
        np.testing.assert_array_equal(c.view(np.uint32), n.view(np.uint32))


def test_lattice_inverse_within_tolerance_on_goldens():
    """On every golden case the lattice-interpolated source-pixel map is
    used and stays within LATTICE_TOL_PX of the exact float64 map."""
    from projcl_ray.warp import LATTICE_TOL_PX, _lattice_fill, _lattice_nodes, _source_pixels

    for _, img, georef, prepped, spec in _golden_specs():
        with np.errstate(all="ignore"):
            nodes = _lattice_nodes(georef, spec, prepped)
            gx, gy = dest_grid(spec.origin_x, spec.origin_y, spec.size_x, spec.size_y,
                               spec.width, spec.height)
            exact = _source_pixels(gx, gy, georef, spec, prepped)
        assert nodes is not None, spec.proj_name
        approx = [_lattice_fill(v, spec.width, spec.height) for v in nodes]
        err = max(np.abs(a - e).max() for a, e in zip(approx, exact))
        assert err <= LATTICE_TOL_PX, (spec.proj_name, err)


def test_lattice_failure_takes_exact_path():
    """Transverse Mercator far from its central meridian at 0.5°/px bends
    the map too much between lattice nodes: the check rejects the lattice
    and the warp equals the exact per-pixel path (float32 dest grid →
    inverse → pixels → sampler) bit for bit."""
    from projcl_ray.warp import SAMPLERS, _lattice_nodes

    params = ProjParams(spheroid="WGS_84")
    prepped = prepare("transverse_mercator", params)
    georef = GeoRef(lon0=60.0, lat0=70.0, px_deg=0.5)
    img = synth_pixels(3, 64, 64)
    ox, oy, sx, sy = default_warp_window(prepped, georef, 64, 64)
    for filt in SAMPLERS:
        spec = WarpSpec("transverse_mercator", params, ox, oy, sx, sy, 64, 64, filter=filt)
        with np.errstate(all="ignore"):
            assert _lattice_nodes(georef, spec, prepped) is None
            got = warp_image(img, georef, spec, prepped)
            gx, gy = dest_grid(ox, oy, sx, sy, 64, 64)
            lon, lat = prepped.inverse(gx.astype(np.float32), gy.astype(np.float32))
            px, py = georef.to_pixels(lon, lat)
            want = SAMPLERS[filt](img, px, py)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def _lattice_cases():
    """(img, georef, spec, prepped) for every 64/96/128 size pair (last
    lattice cell 7 px), 65×33 (all cells 8 px) and 70×37 (last cells 5 and
    4 px), all lattice-passing."""
    params = ProjParams(spheroid="WGS_84")
    prepped = prepare("transverse_mercator", params)
    sizes = [(w, h) for w in (64, 96, 128) for h in (64, 96, 128)] + [(65, 33), (70, 37)]
    for k, (w, h) in enumerate(sizes):
        georef = GeoRef(lon0=-20.0 + 7 * k, lat0=60.0 - 4 * k, px_deg=0.01 + 0.004 * k)
        ox, oy, sx, sy = default_warp_window(prepped, georef, w, h)
        yield (synth_pixels(k, w, h), georef,
               WarpSpec("transverse_mercator", params, ox, oy, sx, sy, w, h), prepped)


def _near_float32_ties(rng, shape, n):
    k = rng.integers(1, n - 1, shape).astype(np.float32)
    tie = k.astype(np.float64) + np.spacing(k).astype(np.float64) / 2
    return tie + rng.integers(-3, 4, shape) * np.spacing(tie)


def _bits(a: np.ndarray) -> np.ndarray:
    """The float32 bit patterns of ``a`` with every NaN made one NaN: which
    of two NaN operands an addition propagates (and so the NaN's sign) is
    up to the compiled loop's operand order, in numpy's SIMD loops too."""
    return np.where(np.isnan(a), np.float32(np.nan), a).view(np.uint32)


def _boundary_values(n: int) -> np.ndarray:
    """Float32 source coordinates on every boundary of the fused sampler's
    fast paths along an n-px axis: n−1 (last interior tap) and n (first
    all-outside coordinate) with one float32 ulp either side, −1 exactly
    and one ulp either side, points in (−1, 0), ±0, far outside (past
    int64), NaN and ±inf."""
    up, down = (lambda v: np.nextafter(np.float32(v), np.float32(s)) for s in (np.inf, -np.inf))
    vals = [n - 1, up(n - 1), down(n - 1), n, up(n), down(n), -1, up(-1), down(-1),
            -0.5, down(0), 0, -0.0, up(0), 1.25, n - 1.5, 3e38, -1e20,
            np.nan, np.inf, -np.inf]
    return np.array(vals, np.float32).astype(np.float64)


def test_lattice_sampler_c_bit_identical(monkeypatch):
    """The C lattice fill fused into the bilinear sampler equals the numpy
    lattice fill → sample_bilinear → clip/uint8 cast bit for bit (the
    numpy sampler, not its C twin): on the production lattices, on random
    node maps that reach past the image border, on maps that sit on
    float32 rounding ties, and on node maps that put samples exactly on
    every boundary of the kernel's all-outside and 4-channel interior
    paths, with NaN and ±inf nodes, for 1-, 3- and 4-channel images, at
    float32 and uint8 output (every NaN counted as one value, see
    :func:`_bits`). The warp equals the pure-numpy (fastcodec.DISABLED)
    warp."""
    from projcl_ray.warp import LATTICE_STEP, _lattice_fill, _lattice_nodes, warp_images_u8

    if fastcodec.lib() is None:
        pytest.skip("no C compiler in this environment")
    rng = np.random.default_rng(12)
    cases = list(_lattice_cases())
    checks = []  # (img, nodes, w, h)
    with np.errstate(all="ignore"):
        for img, georef, spec, prepped in cases:
            w, h = spec.width, spec.height
            node_sets = [_lattice_nodes(georef, spec, prepped)]
            assert node_sets[0] is not None, (w, h)
            shape = node_sets[0][0].shape
            node_sets.append([rng.uniform(-3, w + 3, shape), rng.uniform(-3, h + 3, shape)])
            # maps a few float64 ulps off float32 rounding ties: any change
            # to the fill's float64 operation order flips some of them
            node_sets.append([_near_float32_ties(rng, shape, n) for n in (w, h)])
            checks += [(img, nodes, w, h) for nodes in node_sets]
        # every (x, y) pair of boundary values sits on one lattice node, so
        # that pixel samples exactly there; the pixels between nodes mix them
        for c in (1, 3, 4):
            sh, sw = 5, 7
            img = rng.integers(0, 256, (sh, sw, c), dtype=np.uint8)
            img[0, 0], img[-1, -1] = 255, 0
            bx, by = _boundary_values(sw), _boundary_values(sh)
            w, h = LATTICE_STEP * (len(bx) - 1) + 1, LATTICE_STEP * (len(by) - 1) + 1
            nodes = np.meshgrid(bx, by)
            perm = rng.permutation(nodes[0].size)  # the same pairs, other neighbours
            checks.append((img, nodes, w, h))
            checks.append((img, [v.ravel()[perm].reshape(v.shape) for v in nodes], w, h))
        got = [[fastcodec.warp_lattice_bilinear_u8(img, *nodes, w, h, u8) for u8 in (False, True)]
               for img, nodes, w, h in checks]
        fused = warp_images_u8(*zip(*[c[:3] for c in cases]), cases[0][3])
        monkeypatch.setattr(fastcodec, "DISABLED", True)
        refs = [sample_bilinear(img, *(_lattice_fill(v, w, h) for v in nodes))
                for img, nodes, w, h in checks]
        numpy_u8 = warp_images_u8(*zip(*[c[:3] for c in cases]), cases[0][3])
        for (got_f, got_u8), ref in zip(got, refs):
            assert got_f.shape == ref.shape and got_u8.dtype == np.uint8
            np.testing.assert_array_equal(_bits(got_f), _bits(ref))
            np.testing.assert_array_equal(got_u8, np.clip(ref, 0, 255).astype(np.uint8))
    for f, n in zip(fused, numpy_u8):
        assert f.dtype == n.dtype == np.uint8
        np.testing.assert_array_equal(f, n)


def test_warp_into_tile_padded_buffer(monkeypatch):
    """warp_images_u8 with a tile size writes each image into the top-left
    corner of a zeroed array padded to whole tiles: the padding stays 0 and
    the tiles equal index.cut_tiles of the plain warp, for a 65×33 image
    (fused C kernel at a padded row stride) and a 1×40 one (exact path), C
    and pure numpy. The kernel writes nothing outside its corner of
    ``out``."""
    from projcl_ray import index
    from projcl_ray.warp import _lattice_nodes, warp_images_u8

    params = ProjParams(spheroid="WGS_84")
    prepped = prepare("transverse_mercator", params)
    imgs, georefs, specs = [], [], []
    for k, (w, h) in enumerate([(65, 33), (1, 40)]):
        georef = GeoRef(lon0=-20.0 + 7 * k, lat0=40.0, px_deg=0.02)
        ox, oy, sx, sy = default_warp_window(prepped, georef, w, h)
        imgs.append(synth_pixels(k, w, h))
        georefs.append(georef)
        specs.append(WarpSpec("transverse_mercator", params, ox, oy, sx, sy, w, h))
    for pure in (False, True):
        monkeypatch.setattr(fastcodec, "DISABLED", pure)
        with np.errstate(all="ignore"):
            plain = warp_images_u8(imgs, georefs, specs, prepped)
            padded = warp_images_u8(imgs, georefs, specs, prepped, tile_size=32)
        for img, pl, pad in zip(imgs, plain, padded):
            h, w = img.shape[:2]
            assert pad.shape == (-(-h // 32) * 32, -(-w // 32) * 32, 4)
            np.testing.assert_array_equal(pad[:h, :w], pl)
            assert not pad[h:].any() and not pad[:, w:].any()
            d, a = pad.shape[0] // 32, pad.shape[1] // 32
            cut = pad.reshape(d, 32, a, 32, 4).transpose(0, 2, 1, 3, 4).reshape(-1, 32, 32, 4)
            want = list(index.cut_tiles(pl, 32))
            assert len(want) == len(cut)
            for (tx, ty, idx, tile), got in zip(want, cut):
                assert idx == ty * a + tx
                np.testing.assert_array_equal(got, tile)
    monkeypatch.setattr(fastcodec, "DISABLED", False)
    if fastcodec.lib() is None:
        return
    w, h = 65, 33
    with np.errstate(all="ignore"):
        nodes = _lattice_nodes(georefs[0], specs[0], prepped)
    for u8 in (False, True):
        out = np.full((64, 96, 4), 0xAB, np.uint8 if u8 else np.float32)
        assert fastcodec.warp_lattice_bilinear_u8(imgs[0], *nodes, w, h, u8, out=out) is out
        want = fastcodec.warp_lattice_bilinear_u8(imgs[0], *nodes, w, h, u8)
        np.testing.assert_array_equal(out[:h, :w], want)
        assert (out[h:] == 0xAB).all() and (out[:, w:] == 0xAB).all()
    with pytest.raises(ValueError):
        fastcodec.warp_lattice_bilinear_u8(imgs[0], *nodes, w, h, True, out=np.zeros((64, 64, 4), np.uint8))
    with pytest.raises(ValueError):
        fastcodec.warp_lattice_bilinear_u8(imgs[0], *nodes, w + 8, h, True)


def _mixed_image_rows() -> "pa.Table":
    """Images of 64/96/128 px, a 65×33 one, a 1-px-wide one and one whose
    lattice fails (TM, lon0 60°, 0.5°/px), with source datums that differ
    from NAD_27 and one that matches it."""
    import pyarrow as pa

    shapes = [(64, 64), (96, 128), (128, 96), (65, 33), (1, 40), (64, 64),
              (128, 128), (96, 64), (64, 96)]
    datums_ = ["WGS_84", "NAD_27", None, "WGS_84", "ED_50", "OSGB_36", "NAD_27", "WGS_84", "ED_50"]
    rows = []
    for i, ((w, h), datum) in enumerate(zip(shapes, datums_)):
        lon0, lat0, px = (60.0, 70.0, 0.5) if i == 5 else (-30.0 + 9 * i, 55.0 - 5 * i, 0.02)
        rows.append({"image_id": f"img{i}", "caption": f"scene {i}",
                     "bytes": encode_image(synth_pixels(i, w, h)), "w": w, "h": h,
                     "fmt": "raw", "lon0": lon0, "lat0": lat0, "px_deg": px,
                     "src_datum": datum})
    return pa.Table.from_pylist(rows)


def test_warp_tile_batch_equals_per_image():
    """WarpTileActor's batched phases give, column for column and bit for
    bit, what warping the images one by one through the public calls gives
    (default_warp_window → warp_image → clip/uint8 → cut_tiles → tile-centre
    inverse → cell_id); splitting the rows into batches of 1, 5 or 16 gives
    the same table, and a 0-row batch gives the typed 13-column schema."""
    import warnings

    import pyarrow as pa

    from projcl_ray import index, ops
    from projcl_ray.warp import _lattice_nodes

    params = ProjParams(spheroid="WGS_84")
    prepped = prepare("transverse_mercator", params)
    tbl = _mixed_image_rows()
    actor = ops.WarpTileActor("transverse_mercator", params, tile_size=64, dst_datum="NAD_27")

    ref: dict[str, list] = {c: [] for c in ("image_id", "caption", "cell_id", "tile_col",
                                            "tile_row", "tile_idx", "bytes", "center_lon",
                                            "center_lat")}
    lattice_failed = 0
    for r in tbl.to_pylist():
        w, h = r["w"], r["h"]
        georef = GeoRef(r["lon0"], r["lat0"], r["px_deg"])
        ox, oy, sx, sy = default_warp_window(prepped, georef, w, h)
        spec = WarpSpec("transverse_mercator", params, ox, oy, sx, sy, w, h,
                        src_datum=r["src_datum"], dst_datum="NAD_27")
        with np.errstate(all="ignore"):
            lattice_failed += w > 1 and _lattice_nodes(georef, spec, prepped) is None
            warped = warp_image(decode_image(r["bytes"], w, h, "raw"), georef, spec, prepped)
            warped = np.clip(warped, 0, 255).astype(np.uint8)
        tiles = list(index.cut_tiles(warped, 64))
        tx = np.array([t[0] for t in tiles])
        ty = np.array([t[1] for t in tiles])
        cx = ox + sx * np.minimum((tx + 0.5) * 64 / max(w - 1, 1), 1.0)
        cy = oy + sy * np.minimum((ty + 0.5) * 64 / max(h - 1, 1), 1.0)
        with np.errstate(all="ignore"):
            clon, clat = prepped.inverse(cx, cy)
        for k, (c, row_, idx, pix) in enumerate(tiles):
            ref["image_id"].append(r["image_id"])
            ref["caption"].append(r["caption"])
            ref["tile_col"].append(c)
            ref["tile_row"].append(row_)
            ref["tile_idx"].append(idx)
            ref["bytes"].append(encode_image(pix))
        ref["cell_id"] += index.cell_id(clon, clat).tolist()
        ref["center_lon"] += clon.tolist()
        ref["center_lat"] += clat.tolist()
    assert lattice_failed == 1

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the 1-px-wide image's NaN cast is silent
        got = pa.concat_tables([actor(tbl.slice(s, 16)) for s in range(0, tbl.num_rows, 16)])
    assert got.num_columns == 13
    n = got.num_rows
    assert n == len(ref["bytes"])
    for name, vals in ref.items():
        assert got[name].to_pylist() == vals, name
    for name in ("tile_size", "w", "h"):
        assert got[name].to_pylist() == [64] * n, name
    assert got["fmt"].to_pylist() == ["raw"] * n
    for size in (1, 5):
        split = pa.concat_tables([actor(tbl.slice(s, size)) for s in range(0, tbl.num_rows, size)])
        assert split.equals(got), size
    empty = actor(tbl.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema.equals(got.schema)


def test_warp_tile_reads_raw_pixels_in_place(monkeypatch):
    """WarpTileActor decodes raw rows from views of the Arrow value buffer,
    without copying the bytes column into Python bytes, and gives the
    codec of any other format one bytes object per row; its tiles equal
    those of the same rows decoded from Python bytes."""
    import pyarrow as pa

    from projcl_ray import ops

    tbl = _mixed_image_rows().slice(0, 4)
    jpeg = encode_image(synth_pixels(9, 64, 48), "jpeg", quality=90)
    tbl = pa.concat_tables([tbl, pa.Table.from_pylist([{
        **tbl.slice(0, 1).to_pylist()[0], "image_id": "jpg", "bytes": jpeg,
        "w": 64, "h": 48, "fmt": "jpeg"}], schema=tbl.schema)]).combine_chunks()
    data = tbl["bytes"].chunks[0].buffers()[2]
    seen = []
    decode = ops.decode_image
    monkeypatch.setattr(ops, "decode_image",
                        lambda buf, w, h, fmt: seen.append((buf, fmt)) or decode(buf, w, h, fmt))
    actor = ops.WarpTileActor("transverse_mercator", ProjParams(spheroid="WGS_84"), tile_size=32)
    got = actor(tbl)
    assert [f for _, f in seen] == ["raw"] * 4 + ["jpeg"]
    for buf, fmt in seen:
        if fmt == "raw":
            assert isinstance(buf, pa.Buffer)
            assert data.address <= buf.address and buf.address + buf.size <= data.address + data.size
        else:
            assert isinstance(buf, bytes) and buf == jpeg
    monkeypatch.setattr(ops, "decode_image",
                        lambda buf, w, h, fmt: decode(bytes(buf), w, h, fmt))
    assert actor(tbl).equals(got)


def test_projected_source_identity_warp():
    """Full 8-step path with a source image stored IN a projection
    (projcl_warp.h:30-82): dest grid → inverse → geographic → forward into the
    SOURCE projection → pixels. Warping a Mercator-stored image into the same
    Mercator window must reproduce the source exactly (south-up row order)."""
    from projcl_ray.warp import ProjectedGeoRef

    img = synth_pixels(6, 80, 64)
    src = prepare("mercator", ProjParams(spheroid="WGS_84"))
    x0, y0 = src.forward(np.array([10.0]), np.array([50.0]))
    px_m = 800.0
    pref = ProjectedGeoRef("mercator", ProjParams(spheroid="WGS_84"),
                           float(x0[0]), float(y0[0]), px_m)
    # dest window = exactly the source pixel lattice (row 0 = min y → south-up)
    spec = WarpSpec(
        "mercator", ProjParams(spheroid="WGS_84"),
        float(x0[0]), float(y0[0]) - 63 * px_m, 79 * px_m, 63 * px_m,
        80, 64, filter="bilinear",
    )
    out = warp_image(img, pref, spec)
    np.testing.assert_allclose(out, img[::-1].astype(np.float32), atol=0.51)
    # and a cross-projection warp covers most of the canvas without NaNs
    params = ProjParams(spheroid="WGS_84", rlat1=30, rlat2=60)
    dst = prepare("albers_equal_area", params)
    gx, gy = np.meshgrid(np.array([0, 79.0]), np.array([0, 63.0]))
    lon_c, lat_c = src.inverse(float(x0[0]) + gx * px_m, float(y0[0]) - gy * px_m)
    ex, ey = dst.forward(lon_c, lat_c)
    spec2 = WarpSpec("albers_equal_area", params, float(ex.min()), float(ey.min()),
                     float(ex.max() - ex.min()), float(ey.max() - ey.min()), 80, 64)
    out2 = warp_image(img, pref, spec2)
    assert np.all(np.isfinite(out2)) and (out2[..., 3] > 0).mean() > 0.7


def test_warp_projected_source_pixels():
    """The warp_projected_source gate query checks its layout only; here its
    8 warped images equal a direct warp_image call of each Mercator-stored
    source into its Albers window, bit for bit, and cover 65–92% of it."""
    from projcl_ray.queries import _projected_source_rows
    from projcl_ray.warp import ProjectedGeoRef

    merc = ProjParams(spheroid="WGS_84")
    src = prepare("mercator", merc)
    params = ProjParams(spheroid="WGS_84", rlat1=30, rlat2=60)
    dst = prepare("albers_equal_area", params)
    rows = _projected_source_rows()
    assert [r["image_id"] for r in rows] == [f"psrc{i}" for i in range(8)]
    for i, r in enumerate(rows):
        x0, y0 = (float(v[0]) for v in src.forward(np.array([5.0 + 3 * i]),
                                                   np.array([45.0 + i])))
        gx, gy = np.meshgrid([0.0, 63.0], [0.0, 63.0])
        ex, ey = dst.forward(*src.inverse(x0 + gx * 800.0, y0 - gy * 800.0))
        spec = WarpSpec("albers_equal_area", params, float(ex.min()), float(ey.min()),
                        float(np.ptp(ex)), float(np.ptp(ey)), 64, 64)
        direct = warp_image(synth_pixels(100 + i, 64, 64),
                            ProjectedGeoRef("mercator", merc, x0, y0, 800.0), spec)
        got = decode_image(r["bytes"], r["w"], r["h"], r["fmt"])
        np.testing.assert_array_equal(got, np.clip(direct, 0, 255).astype(np.uint8))
        assert (got[..., 3] > 0).mean() > 0.6


def test_png_codec_roundtrip_all_filters_and_color_types():
    """fmt="png" is first-class via the in-repo pure-Python codec (no
    PIL/cv2): encode→decode must round-trip bit-exactly for every scanline
    filter and input shape, reject corrupt streams, and decode
    foreign-feature PNGs (palette + tRNS)."""
    import struct
    import zlib

    import pytest

    from projcl_ray import png as P
    from projcl_ray.images import decode_image, synth_pixels

    img = synth_pixels(3, 32, 24)
    for ft in range(5):
        buf = encode_png(img, filter_type=ft)
        np.testing.assert_array_equal(decode_image(buf, 32, 24, "png"), img)
    # gray and RGB inputs decode to RGBA
    rng = np.random.default_rng(1)
    rgb = rng.integers(0, 256, (9, 7, 3), dtype=np.uint8)
    out = P.decode_png(encode_png(rgb, filter_type=4))
    np.testing.assert_array_equal(out[..., :3], rgb)
    assert (out[..., 3] == 255).all()
    # corrupt CRC rejected
    bad = bytearray(encode_png(img))
    bad[20] ^= 0xFF
    with pytest.raises(ValueError):
        P.decode_png(bytes(bad))
    # palette + tRNS (a shape only foreign encoders produce)
    idx = rng.integers(0, 3, (4, 5), dtype=np.uint8)
    stream = b"".join(b"\x00" + idx[y].tobytes() for y in range(4))
    buf = (b"\x89PNG\r\n\x1a\n"
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 4, 8, 3, 0, 0, 0))
           + _chunk(b"PLTE", bytes([255, 0, 0, 0, 255, 0, 0, 0, 255]))
           + _chunk(b"tRNS", bytes([0, 128, 255]))
           + _chunk(b"IDAT", zlib.compress(stream)) + _chunk(b"IEND", b""))
    out = P.decode_png(buf)
    pl = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255]], np.uint8)
    np.testing.assert_array_equal(out[..., :3], pl[idx])
    np.testing.assert_array_equal(out[..., 3], np.array([0, 128, 255], np.uint8)[idx])


def _assert_same_tiles(a, b):
    """Two tile Datasets hold the same tiles, bit for bit; returns both as
    DataFrames in (image_id, tile_idx) order."""
    key = ["image_id", "tile_idx"]
    a, b = (d.to_pandas().sort_values(key).reset_index(drop=True)
            for d in (a, b))
    assert len(a) == len(b) > 0
    assert all(x == y for x, y in zip(a["bytes"], b["bytes"]))
    return a, b


def _assert_corpus_matches_raw(name):
    """The checked-in corpus ``name`` (FIXTURES.md §8) warps to the tiles of
    its source pixels on the raw path, bit for bit: the codecs decode
    losslessly (GIF rows hold the 64-colour quantization they came from)."""
    import pyarrow as pa
    import ray.data as rd

    from projcl_ray.images import read_fixture, synth_images_table
    from projcl_ray.queries import _ingest_tiles

    coded = read_fixture(name)
    raw = synth_images_table(24, seed=42).to_pylist()
    for r, fmt in zip(raw, coded["fmt"].to_pylist()):
        if fmt == "gif":
            img = decode_image(r["bytes"], r["w"], r["h"], "raw")
            img = ((img >> 6) << 6).astype("uint8")
            img[..., 3] = 255
            r["bytes"] = img.tobytes()
    _assert_same_tiles(_ingest_tiles(rd.from_arrow(pa.Table.from_pylist(raw))),
                       _ingest_tiles(rd.from_arrow(coded)))


def test_png_ingest_warp_tile_matches_raw_path(ray_session):
    """End-to-end compressed ingest: the gate's PNG corpus (Paeth, Adam7 on
    odd rows) must warp and tile to bit-identical tiles as the raw-RGBA
    path (decode→warp→tile over Ray, the reference's arbitrary-image
    ingest, projcl_warp.c:68-107)."""
    _assert_corpus_matches_raw("png_ingest")


def test_decode_multi_channel_raw_variants():
    """rawrgb (3-channel) and rawl (single-channel) decode to RGBA with
    opaque alpha — the engine's analogue of the reference's arbitrary
    cl_channel_order support (projcl_warp.c:68-107)."""
    from projcl_ray.images import decode_image, synth_pixels

    img = synth_pixels(5, 16, 12)
    rgb = decode_image(img[..., :3].tobytes(), 16, 12, "rawrgb")
    np.testing.assert_array_equal(rgb[..., :3], img[..., :3])
    assert (rgb[..., 3] == 255).all()
    lum = img[..., 0]
    gray = decode_image(lum.tobytes(), 16, 12, "rawl")
    for c in range(3):
        np.testing.assert_array_equal(gray[..., c], lum)
    assert (gray[..., 3] == 255).all()


def test_jpeg_codec_roundtrip_and_modes():
    """fmt="jpeg" is first-class via the in-repo baseline JFIF codec (ITU
    T.81, no PIL/cv2): smooth content round-trips at high PSNR, constant
    images exactly; 4:2:0 output matches a DCT-free chroma-subsampling
    simulation (the loss is the subsampling, not the codec); gray/RGB/RGBA
    inputs and odd sizes all decode to the declared shape; higher quality
    gives monotonically larger files; junk is rejected."""
    import pytest

    from projcl_ray import jpeg as J
    from projcl_ray.images import decode_image, encode_image, synth_pixels

    def psnr(a, b):
        mse = np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2)
        return 99.0 if mse == 0 else 10 * np.log10(255.0**2 / mse)

    yy, xx = np.mgrid[0:64, 0:64]
    smooth = np.dstack([(xx * 4).astype(np.uint8), (yy * 4).astype(np.uint8),
                        ((xx + yy) * 2).astype(np.uint8),
                        np.full((64, 64), 255, np.uint8)])
    back = decode_image(encode_image(smooth, "jpeg", quality=95), 64, 64, "jpeg")
    assert psnr(smooth[..., :3], back[..., :3]) > 45.0
    const = np.full((6, 10, 4), 200, np.uint8)
    for sub in (False, True):
        back = J.decode_jpeg(J.encode_jpeg(const, quality=90, subsample=sub))
        np.testing.assert_array_equal(back[..., :3], const[..., :3])

    # 4:2:0 equals pure chroma subsampling to within DCT quantization
    sp = synth_pixels(9, 21, 37)
    y, cb, cr = J._to_ycbcr(sp)
    h, w = 37, 21

    def ds_us(p):
        H, W = -(-h // 2) * 2, -(-w // 2) * 2
        q = np.empty((H, W))
        q[:h, :w] = p
        q[h:, :w] = p[h - 1 : h, :]
        q[:h, w:] = q[:h, w - 1 : w]
        q[h:, w:] = q[h - 1, w - 1]
        d = q.reshape(H // 2, 2, W // 2, 2).mean(axis=(1, 3))
        return np.repeat(np.repeat(d, 2, axis=0), 2, axis=1)[:h, :w]

    cbu, cru = ds_us(cb) - 128, ds_us(cr) - 128
    sim = np.clip(np.round(np.dstack([
        y + 1.402 * cru,
        y - 0.344136 * cbu - 0.714136 * cru,
        y + 1.772 * cbu,
    ])), 0, 255)
    got = J.decode_jpeg(J.encode_jpeg(sp, quality=92, subsample=True))
    assert psnr(sim, got[..., :3]) > 30.0

    # shape sweep: gray / RGB / RGBA, odd sizes, both modes
    rng = np.random.default_rng(4)
    for trial in range(12):
        hh, ww = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        img = synth_pixels(trial, ww, hh)
        src = [img, img[..., :3].copy(), img[..., 0].copy()][trial % 3]
        for sub in (False, True):
            out = J.decode_jpeg(J.encode_jpeg(src, quality=92, subsample=sub))
            assert out.shape == (hh, ww, 4)
            assert (out[..., 3] == 255).all()

    sizes = [len(J.encode_jpeg(sp, quality=q)) for q in (30, 60, 90)]
    assert sizes == sorted(sizes)
    assert J.encode_jpeg(sp) == J.encode_jpeg(sp)  # deterministic
    with pytest.raises(ValueError):
        J.decode_jpeg(b"definitely not a jpeg")


def test_png_interlaced_and_deep_depths():
    """Adam7 interlace and non-8-bit depths (completes "any real-world
    PNG"): an interlaced encode must decode identically to the sequential
    encode for every color type/filter/odd size (incl. dims < one 8×8
    pass); 16-bit files reduce by round(v/257) (exact on 257·x replicated
    values); 1/2/4-bit gray scales exactly (255/85/17), palette indices
    pass through, tRNS colorkeys match at native depth; interlaced
    sub-byte streams pack each pass's scanlines independently."""
    import struct
    import zlib

    from projcl_ray import png as P
    from projcl_ray.images import synth_pixels

    rng = np.random.default_rng(5)
    for trial in range(15):
        hh, ww = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        img = synth_pixels(trial, ww, hh)
        src = [img, img[..., :3].copy(), img[..., 0].copy()][trial % 3]
        ft = trial % 5
        plain = P.decode_png(encode_png(src, filter_type=ft))
        inter = P.decode_png(encode_png(src, filter_type=ft, interlace=True))
        np.testing.assert_array_equal(plain, inter)

    # 16-bit: 257·x replicated values decode exactly; rounding is /257
    img8 = synth_pixels(3, 23, 17)
    for interlace in (False, True):
        out = P.decode_png(encode_png(img8.astype(np.uint16) * 257,
                                      interlace=interlace))
        np.testing.assert_array_equal(out, img8)
    assert P.decode_png(encode_png(np.full((3, 3), 500, np.uint16)))[0, 0, 0] \
        == round(500 / 257)
    g16 = rng.integers(0, 65536, (9, 7)).astype(np.uint16)
    out = P.decode_png(encode_png(g16, filter_type=4, interlace=True))
    exp = ((g16.astype(np.uint32) * 255 + 32767) // 65535).astype(np.uint8)
    np.testing.assert_array_equal(out[..., 0], exp)

    # sub-byte depths: hand-built files (the encoder emits 8/16 only)
    def build(w, h, depth, color, stream, plte=b"", trns=b"", interlace=0):
        out = P._SIG + _chunk(b"IHDR", struct.pack(
            ">IIBBBBB", w, h, depth, color, 0, 0, interlace))
        if plte:
            out += _chunk(b"PLTE", plte)
        if trns:
            out += _chunk(b"tRNS", trns)
        return out + _chunk(b"IDAT", zlib.compress(stream)) + _chunk(b"IEND", b"")

    def pack(vals, d):
        bits = ((vals[:, :, None].astype(np.uint8)
                 >> np.arange(d - 1, -1, -1, dtype=np.uint8)) & 1)
        bits = bits.astype(np.uint8).reshape(vals.shape[0], -1)
        bits = np.pad(bits, ((0, 0), (0, (-bits.shape[1]) % 8)))
        return np.packbits(bits, axis=1)

    def rows_stream(vals, d):
        return b"".join(b"\x00" + r.tobytes() for r in pack(vals, d))

    # 1-bit gray (10 px wide → packed with trailing pad bits)
    onebit = (np.arange(30).reshape(3, 10) % 2).astype(np.uint8)
    out = P.decode_png(build(10, 3, 1, 0, rows_stream(onebit, 1)))
    np.testing.assert_array_equal(out[..., 0], onebit * 255)

    # 2-bit palette
    plte = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 9, 9, 9])
    idx = np.array([[0, 1, 2, 3, 0], [3, 3, 1, 0, 2]], np.uint8)
    out = P.decode_png(build(5, 2, 2, 3, rows_stream(idx, 2), plte=plte))
    pl = np.frombuffer(plte, np.uint8).reshape(-1, 3)
    np.testing.assert_array_equal(out[..., :3], pl[idx])

    # 4-bit gray + native-depth tRNS colorkey (key=5)
    g = np.array([[0, 5, 15, 7]], np.uint8)
    out = P.decode_png(build(4, 1, 4, 0, rows_stream(g, 4),
                             trns=struct.pack(">H", 5)))
    np.testing.assert_array_equal(out[0, :, 0], g[0] * 17)
    np.testing.assert_array_equal(out[0, :, 3], np.where(g[0] == 5, 0, 255))

    # interlaced 1-bit gray: per-pass packing
    full = (np.arange(81).reshape(9, 9) % 2).astype(np.uint8)
    stream = b""
    for xs, ys, xst, yst in P._ADAM7:
        sub = full[ys::yst, xs::xst]
        if sub.size:
            stream += rows_stream(sub, 1)
    out = P.decode_png(build(9, 9, 1, 0, stream, interlace=1))
    np.testing.assert_array_equal(out[..., 0], full * 255)

    # invalid depth/color combos still rejected
    import pytest
    with pytest.raises(ValueError):
        P.decode_png(build(2, 1, 2, 2, b"\x00\x00"))  # 2-bit RGB is illegal


def test_fastcodec_c_entropy_parity(monkeypatch):
    """The compiled entropy decoder (projcl_ray/_fastcodec.c, built on
    first use when a C compiler exists) must be BIT-exact with the pure
    Python loop it replaces — across 4:4:4/4:2:0, interleaved and
    per-component multi-scan layouts, restart intervals (DRI/RSTn segment
    mapping + per-segment DC-predictor resets), gray/RGB, odd sizes.
    Skipped where no compiler is available; the fastcodec.DISABLED escape
    hatch is tested regardless."""
    from projcl_ray import gif as G, jpeg as J, png as P, tiff as T

    def same(decode, buf):
        monkeypatch.setattr(fastcodec, "DISABLED", True)
        pure = decode(buf)
        monkeypatch.setattr(fastcodec, "DISABLED", False)
        np.testing.assert_array_equal(decode(buf), pure)

    monkeypatch.setattr(fastcodec, "DISABLED", True)
    assert not fastcodec.jpeg_baseline_scan(None, None, None, None, None, 0, 0)
    monkeypatch.setattr(fastcodec, "DISABLED", False)
    if fastcodec.lib() is None:
        pytest.skip("no C compiler in this environment")
    rng = np.random.default_rng(31)
    for trial in range(8):
        hh, ww = int(rng.integers(1, 60)), int(rng.integers(1, 60))
        img = synth_pixels(trial, ww, hh)
        src = img[..., :3].copy() if trial % 2 else img[..., 0].copy()
        for sub in (False, True):
            bufs = [encode_jpeg_sequential(src, quality=87, subsample=sub,
                                           multiscan=ms) for ms in (False, True)]
            # progressive: DC first/refine + AC first/refine + EOB runs
            bufs.append(encode_jpeg_progressive(src, quality=87,
                                                subsample=sub))
            # restart intervals: segment index mapping + DC resets
            bufs += [encode_jpeg_sequential(src, quality=87, subsample=sub,
                                            multiscan=ms, restart_interval=ri)
                     for ms in (False, True) for ri in (1, 5)]
            for buf in bufs:
                same(J.decode_jpeg, buf)
    # PNG unfilter: the C row-sequential loop vs the numpy wavefront,
    # across all 5 filters and Adam7
    for trial in range(4):
        hh, ww = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        img = synth_pixels(100 + trial, ww, hh)
        for ft in (0, 1, 2, 3, 4):
            for il in (False, True):
                same(P.decode_png, encode_png(img, filter_type=ft, interlace=il))
    # GIF LZW: LSB-first codes, deferred clear, interlace
    for trial in range(3):
        hh, ww = int(rng.integers(1, 60)), int(rng.integers(1, 60))
        idx = rng.integers(0, 200, (hh, ww)).astype(np.uint8)
        pal = rng.integers(0, 256, (256, 3)).astype(np.uint8)
        rgba = np.dstack([pal[idx], np.full((hh, ww), 255, np.uint8)])
        for il in (False, True):
            same(G.decode_gif, encode_gif(rgba, interlace=il))
    # TIFF LZW: the C table-building loop vs the pure one, strips and
    # tiles, incl. noise payloads that churn the code table
    for trial in range(4):
        hh, ww = int(rng.integers(1, 70)), int(rng.integers(1, 70))
        img = (synth_pixels(200 + trial, ww, hh) if trial % 2 else
               rng.integers(0, 256, (hh, ww, 3)).astype(np.uint8))
        for tiled in (False, True):
            same(T.decode_tiff, encode_tiff_layout(img, compression="lzw", tiled=tiled))


def test_jpeg_progressive_query_matches_baseline_query(ray_session):
    """The progressive-JPEG ingest path must produce BIT-IDENTICAL tiles to
    the baseline-JPEG path: a progressive re-encode at the same quality/
    subsampling carries identical quantized coefficients, so the two ingest
    pipelines are pixel-identical end to end. (The registered queries now
    return the oracle-checked tile LAYOUT; this test is the pixel gate.)"""
    import ray.data as rd

    from projcl_ray.images import read_fixture
    from projcl_ray.queries import _ingest_tiles, _jpeg_ingest_table

    a, b = _assert_same_tiles(
        _ingest_tiles(rd.from_arrow(_jpeg_ingest_table())),
        _ingest_tiles(rd.from_arrow(read_fixture("jpeg_progressive_ingest"))))
    assert (a["cell_id"] == b["cell_id"]).all()


def test_jpeg_progressive_matches_baseline():
    """Progressive (SOF2) support: a progressive encode carries the
    exact same quantized coefficients as the baseline encode, so its
    full-precision decode must be bit-identical to decoding the baseline
    file — for gray/RGB/RGBA, 4:4:4 and 4:2:0, odd sizes, and dimensions
    below one band (h < 8). Decode side also accepts real-world SOF2 scan
    scripts (spectral selection + successive approximation + EOB runs)."""
    from projcl_ray import jpeg as J
    from projcl_ray.images import synth_pixels

    rng = np.random.default_rng(11)
    for trial in range(14):
        hh, ww = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        img = synth_pixels(trial, ww, hh)
        src = [img, img[..., :3].copy(), img[..., 0].copy()][trial % 3]
        for sub in (False, True):
            base = J.decode_jpeg(J.encode_jpeg(src, quality=88, subsample=sub))
            prog_bytes = encode_jpeg_progressive(src, quality=88,
                                                 subsample=sub)
            assert prog_bytes[:4] != b""  # non-degenerate
            prog = J.decode_jpeg(prog_bytes)
            np.testing.assert_array_equal(prog, base)

    # marker-level sanity: the progressive file really is SOF2 multi-scan
    pb = encode_jpeg_progressive(synth_pixels(3, 40, 40), quality=90)
    assert b"\xFF\xC2" in pb and pb.count(b"\xFF\xDA") >= 7
    assert encode_jpeg_progressive(synth_pixels(3, 40, 40),
                                   quality=90) == pb  # deterministic


def test_jpeg_baseline_multiscan_matches_interleaved():
    """A baseline file with separate per-component scans (Ns=1, the layout
    libjpeg scan scripts emit) carries the same coefficients as the
    interleaved encode, so its decode must be bit-identical. Exercises the
    T.81 §A.2 non-interleaved geometry: a single-component baseline scan
    covers the component's OWN ceil-grid (wib×hib) in raster order, not the
    padded interleaved MCU lattice — at 4:2:0 the two differ in both block
    count and order."""
    from projcl_ray import jpeg as J
    from projcl_ray.images import synth_pixels

    rng = np.random.default_rng(23)
    for trial in range(10):
        hh, ww = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        img = synth_pixels(trial, ww, hh)
        src = [img, img[..., :3].copy(), img[..., 0].copy()][trial % 3]
        for sub in (False, True):
            base = J.decode_jpeg(J.encode_jpeg(src, quality=88, subsample=sub))
            ms_bytes = encode_jpeg_sequential(src, quality=88, subsample=sub,
                                              multiscan=True)
            np.testing.assert_array_equal(J.decode_jpeg(ms_bytes), base)
    # marker-level sanity: baseline SOF0 with one SOS per component
    mb = encode_jpeg_sequential(synth_pixels(3, 40, 40)[..., :3], quality=90,
                                multiscan=True)
    assert b"\xFF\xC0" in mb and mb.count(b"\xFF\xDA") == 3


def test_gif_codec_roundtrip_modes():
    """In-repo GIF codec: lossless round-trip for palette-sized images across
    sequential/interlaced, transparency (incl. opaque black present), LZW
    12-bit table overflow, animation composition, and the >255-color reject."""
    import numpy as np

    from projcl_ray import gif
    from projcl_ray.images import synth_pixels

    rng = np.random.default_rng(0)
    pal = rng.integers(0, 256, (40, 3), dtype=np.uint8)
    idx = rng.integers(0, 40, (33, 47))
    img = np.empty((33, 47, 4), np.uint8)
    img[..., :3] = pal[idx]
    img[..., 3] = 255

    for interlace in (False, True):
        buf = encode_gif(img, interlace=interlace)
        assert encode_gif(img, interlace=interlace) == buf  # deterministic
        np.testing.assert_array_equal(gif.decode_gif(buf), img)

    # transparency with opaque black in the palette (slot-alias regression)
    img2 = img.copy()
    img2[..., :3][idx[..., None].repeat(3, -1) < 5] = 0
    img2[5:10, 5:10, 3] = 0
    dec = gif.decode_gif(encode_gif(img2))
    np.testing.assert_array_equal(dec[..., 3] > 0, img2[..., 3] >= 128)
    opq = img2[..., 3] >= 128
    np.testing.assert_array_equal(dec[opq][:, :3], img2[opq][:, :3])

    # animation: two frames compose on the logical screen, delays preserved
    f1 = img.copy()
    f1[0:8, 0:8, :3] = pal[7]
    frames, delays = gif.decode_gif_frames(
        encode_gif(np.stack([img, f1]), delays_ms=[50, 120]))
    assert delays == [50, 120]
    np.testing.assert_array_equal(frames[0], img)
    np.testing.assert_array_equal(frames[1], f1)

    # LZW table overflow (forces the clear/reset path and 12-bit codes)
    big_pal = rng.integers(0, 256, (250, 3), dtype=np.uint8)
    bidx = rng.integers(0, 250, (200, 300))
    big = np.empty((200, 300, 4), np.uint8)
    big[..., :3] = big_pal[bidx]
    big[..., 3] = 255
    np.testing.assert_array_equal(gif.decode_gif(encode_gif(big)), big)

    grad = np.zeros((30, 30, 4), np.uint8)
    grad[..., 0] = (np.arange(900) % 256).reshape(30, 30)
    grad[..., 1] = (np.arange(900) // 256).reshape(30, 30)
    grad[..., 3] = 255
    with pytest.raises(ValueError):
        encode_gif(grad)


def test_bmp_codec_roundtrip_variants():
    """In-repo BMP codec: 24-bit encode/decode is exact; top-down and 32-bit
    BGRA files decode; RLE is rejected."""
    import struct

    import numpy as np

    from projcl_ray import bmp
    from projcl_ray.images import synth_pixels

    img = synth_pixels(3, 41, 30)  # odd width exercises row padding
    buf = encode_bmp(img)
    assert encode_bmp(img) == buf
    dec = bmp.decode_bmp(buf)
    np.testing.assert_array_equal(dec[..., :3], img[..., :3])
    assert (dec[..., 3] == 255).all()

    # hand-built top-down 32-bit BGRA file
    h, w = 5, 7
    rgba = synth_pixels(9, w, h)
    bgra = rgba[..., [2, 1, 0, 3]].copy()
    info = struct.pack("<IiiHHIIiiII", 40, w, -h, 1, 32, 0, w * h * 4,
                       2835, 2835, 0, 0)
    off = 14 + len(info)
    f32 = struct.pack("<2sIHHI", b"BM", off + w * h * 4, 0, 0, off) + info + bgra.tobytes()
    np.testing.assert_array_equal(bmp.decode_bmp(f32), rgba)

    rle = struct.pack("<2sIHHI", b"BM", 54, 0, 0, 54) + struct.pack(
        "<IiiHHIIiiII", 40, 1, 1, 1, 8, 1, 0, 0, 0, 0, 0)
    with pytest.raises(NotImplementedError):
        bmp.decode_bmp(rle)


def test_gif_bmp_ingest_warp_tile_matches_raw_path(ray_session):
    """The gate's GIF (quantized, lossless; interlaced on every other GIF
    row) and BMP corpus warps to bit-identical tiles vs the raw path on
    the same pixels — same contract as the png test."""
    _assert_corpus_matches_raw("gif_bmp_ingest")


def test_tiff_codec_roundtrip_and_geotags():
    """In-repo TIFF codec: none/deflate/lzw strips round-trip exactly for
    gray/RGB/RGBA; TIFF-variant LZW survives 12-bit growth + re-clear;
    GeoTIFF ModelPixelScale/ModelTiepoint tags round-trip to a GeoRef;
    PackBits and MinIsWhite decode; unsupported compressions reject."""
    import struct

    import numpy as np

    from projcl_ray import tiff
    from projcl_ray.images import synth_pixels

    img = synth_pixels(5, 97, 61)  # odd dims exercise strip tails
    for comp in ("none", "deflate", "lzw"):
        buf = encode_tiff_layout(img, compression=comp)
        assert encode_tiff_layout(img, compression=comp) == buf  # deterministic
        dec, geo = tiff.decode_tiff_geo(buf)
        np.testing.assert_array_equal(dec, img)
        assert geo is None
    g8 = img[..., 0]
    np.testing.assert_array_equal(tiff.decode_tiff(tiff.encode_tiff(g8))[..., 0], g8)
    rgb = img[..., :3]
    np.testing.assert_array_equal(
        tiff.decode_tiff(tiff.encode_tiff(rgb))[..., :3], rgb)

    # LZW 12-bit code growth + re-clear (large, low-redundancy input)
    big = synth_pixels(9, 300, 200)
    np.testing.assert_array_equal(
        tiff.decode_tiff(encode_tiff_layout(big, compression="lzw",
                                            rows_per_strip=200)), big)

    # GeoTIFF tags → GeoRef
    gt = tiff.GeoTags(0.25, 0.25, 0.0, 0.0, -120.0, 45.0)
    dec, geo = tiff.decode_tiff_geo(tiff.encode_tiff(img, geo=gt))
    assert geo == gt
    gr = tiff.georef_from_tags(geo)
    assert (gr.lon0, gr.lat0, gr.px_deg) == (-120.0, 45.0, 0.25)
    # non-zero tiepoint raster coords offset the origin
    gr2 = tiff.georef_from_tags(tiff.GeoTags(0.5, 0.5, 2.0, 4.0, -120.0, 45.0))
    assert (gr2.lon0, gr2.lat0) == (-121.0, 47.0)

    # hand-built PackBits + MinIsWhite gray file
    row = bytes([0xFD, 7, 2, 1, 2, 3])  # repeat 7 x4, literal 1,2,3 → 7 px
    info = struct.pack("<2sHI", b"II", 42, 8)
    entries = [
        (256, 4, 1, struct.pack("<I", 7)), (257, 4, 1, struct.pack("<I", 1)),
        (258, 3, 1, struct.pack("<HH", 8, 0)), (259, 3, 1, struct.pack("<HH", 32773, 0)),
        (262, 3, 1, struct.pack("<HH", 0, 0)),
        (273, 4, 1, None), (277, 3, 1, struct.pack("<HH", 1, 0)),
        (278, 4, 1, struct.pack("<I", 1)), (279, 4, 1, struct.pack("<I", len(row))),
    ]
    ifd = struct.pack("<H", len(entries))
    data_off = 8 + 2 + len(entries) * 12 + 4
    for tag, typ, cnt, payload in entries:
        ifd += struct.pack("<HHI", tag, typ, cnt)
        ifd += struct.pack("<I", data_off) if payload is None else payload
    f = info + ifd + struct.pack("<I", 0) + row
    dec = tiff.decode_tiff(f)
    np.testing.assert_array_equal(dec[0, :, 0], 255 - np.array([7, 7, 7, 7, 1, 2, 3]))

    bad = encode_tiff_layout(img, compression="none").replace(
        struct.pack("<HHIHH", 259, 3, 1, 1, 0), struct.pack("<HHIHH", 259, 3, 1, 6, 0), 1)
    with pytest.raises(NotImplementedError):
        tiff.decode_tiff(bad)


def test_gate_geotiff_blobs_hold_pixels_and_georeference():
    """The gate's GeoTIFF blob builder stores each synthetic image's RGBA
    pixels, or its float32 elevation field, with the image's georeference,
    under the id column it is given."""
    from projcl_ray.images import synth_images_table
    from projcl_ray.queries import _geotiff_blobs
    from projcl_ray.tiff import decode_tiff_native

    src = synth_images_table(3, seed=7).to_pylist()
    for dem, id_col in ((False, "image_id"), (True, "raster_id")):
        blobs = _geotiff_blobs(3, 7, dem=dem, id_col=id_col).to_pylist()
        assert [b[id_col] for b in blobs] == [r["image_id"] for r in src]
        assert [b["caption"] for b in blobs] == [r["caption"] for r in src]
        for b, r in zip(blobs, src):
            img = decode_image(r["bytes"], r["w"], r["h"], "raw")
            px, geo = decode_tiff_native(b["bytes"])
            if dem:
                want = (100.0 + 12.5 * img[..., 0].astype(np.float32)
                        + 0.25 * img[..., 1].astype(np.float32))[..., None]
                assert px.dtype == np.float32
            else:
                want = img
            np.testing.assert_array_equal(px, want)
            assert (geo.scale_x, geo.scale_y, geo.tie_i, geo.tie_j, geo.tie_x, geo.tie_y) == (
                r["px_deg"], r["px_deg"], 0.0, 0.0, r["lon0"], r["lat0"])


def test_geotiff_ingest_warp_tile_matches_raw_path(ray_session):
    """ops.ingest_geotiff recovers the georeference from embedded GeoTIFF
    tags; the downstream warp+tile output is bit-identical to the raw path
    fed the same pixels and sidecar georeference columns."""
    import pyarrow as pa
    import ray.data as rd

    from projcl_ray import ops
    from projcl_ray.images import decode_image, synth_images_table
    from projcl_ray.proj import ProjParams
    from projcl_ray.tiff import GeoTags, encode_tiff

    tbl = synth_images_table(8, seed=42)
    blobs = []
    for r in tbl.to_pylist():
        img = decode_image(r["bytes"], r["w"], r["h"], "raw")
        geo = GeoTags(r["px_deg"], r["px_deg"], 0.0, 0.0, r["lon0"], r["lat0"])
        blobs.append({"image_id": r["image_id"], "caption": r["caption"],
                      "bytes": encode_tiff(img, geo=geo)})
    params = ProjParams(spheroid="WGS_84")
    a = ops.warp_and_tile(rd.from_arrow(tbl), "mercator", params,
                          tile_size=32, batch_size=4).to_pandas()
    ingested = ops.ingest_geotiff(rd.from_arrow(pa.Table.from_pylist(blobs)))
    b = ops.warp_and_tile(ingested, "mercator", params,
                          tile_size=32, batch_size=4).to_pandas()
    key = ["image_id", "tile_idx"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b) and len(a) > 0
    assert all(x == y for x, y in zip(a["bytes"], b["bytes"]))  # bit-identical


def test_tiff_deep_samples_roundtrip_and_dem_ingest(ray_session):
    """Real-world GeoTIFF sample types: uint16/int16/uint32/int32/float32
    encode with BitsPerSample+SampleFormat tags and round-trip EXACTLY via
    decode_tiff_native across strips/tiles, every compression, and
    predictor 2 (integer types; per-sample differencing). decode_tiff_geo's
    8-bit preview is deterministic, and a float32 DEM GeoTIFF flows through
    ops.ingest_geotiff → warp_and_tile end-to-end."""
    import pyarrow as pa
    import ray.data as rd

    from projcl_ray import ops, tiff
    from projcl_ray.images import synth_images_table, decode_image
    from projcl_ray.proj import ProjParams

    rng = np.random.default_rng(21)
    for dt in (np.uint16, np.int16, np.uint32, np.int32, np.float32):
        for shape in ((21, 34), (21, 34, 3)):
            if dt == np.float32:
                a = rng.normal(100, 500, shape).astype(dt)
            else:
                info = np.iinfo(dt)
                a = rng.integers(info.min, info.max, shape).astype(dt)
            for comp in ("none", "deflate", "lzw"):
                for tiled in (False, True):
                    preds = (1, 2) if a.dtype.kind != "f" else (1,)
                    for pr in preds:
                        buf = encode_tiff_layout(a, compression=comp,
                                                 tiled=tiled, predictor=pr)
                        dec, _ = tiff.decode_tiff_native(buf)
                        np.testing.assert_array_equal(
                            dec, a.reshape(a.shape[0], a.shape[1], -1))
    # predictor 2 on float raises on encode and decode paths
    f = rng.normal(0, 1, (8, 8)).astype(np.float32)
    try:
        tiff.encode_tiff(f, predictor=2)
        raise AssertionError("float predictor 2 should raise")
    except ValueError:
        pass
    # DEM ingest end-to-end: float32 single-band GeoTIFF → warp+tile
    tbl = synth_images_table(6, seed=43)
    blobs = []
    for r in tbl.to_pylist():
        img = decode_image(r["bytes"], r["w"], r["h"], "raw")
        dem = (100.0 + 12.5 * img[..., 0].astype(np.float32)
               + 0.25 * img[..., 1].astype(np.float32))
        geo = tiff.GeoTags(r["px_deg"], r["px_deg"], 0.0, 0.0,
                           r["lon0"], r["lat0"])
        blobs.append({"image_id": r["image_id"], "caption": r["caption"],
                      "bytes": tiff.encode_tiff(dem, geo=geo)})
    ingested = ops.ingest_geotiff(rd.from_arrow(pa.Table.from_pylist(blobs)))
    tiles = ops.warp_and_tile(ingested, "mercator",
                              ProjParams(spheroid="WGS_84"),
                              tile_size=32, batch_size=4).to_pandas()
    assert len(tiles) > 0
    # determinism: a second run produces identical tile bytes
    tiles2 = ops.warp_and_tile(
        ops.ingest_geotiff(rd.from_arrow(pa.Table.from_pylist(blobs))),
        "mercator", ProjParams(spheroid="WGS_84"),
        tile_size=32, batch_size=4).to_pandas()
    key = ["image_id", "tile_idx"]
    a = tiles.sort_values(key).reset_index(drop=True)
    b = tiles2.sort_values(key).reset_index(drop=True)
    assert all(x == y for x, y in zip(a["bytes"], b["bytes"]))


def test_zonal_stats_matches_bruteforce(ray_session):
    """ops.zonal_stats (per-zone n/mean/min/max of native float32 DEM
    samples, combiner partials + native groupby merge) must match a
    single-process brute-force over every (pixel, zone) pair exactly."""
    import collections

    import pyarrow as pa
    import ray.data as rd

    from projcl_ray import ops, tiff
    from projcl_ray.spatial import make_convex_polygon, point_in_polygon
    from projcl_ray.tiff import GeoTags, georef_from_tags

    rng = np.random.default_rng(7)
    rasters, zones = [], []
    for i in range(12):
        hh, ww = int(rng.integers(8, 48)), int(rng.integers(8, 48))
        dem = (500 + 300 * np.sin(np.arange(hh)[:, None] / 4.0)
               + rng.normal(0, 40, (hh, ww))).astype(np.float32)
        lon0, lat0 = float(rng.uniform(-30, 30)), float(rng.uniform(-20, 40))
        geo = GeoTags(0.05, 0.05, 0.0, 0.0, lon0, lat0)
        rasters.append({"raster_id": f"r{i}",
                        "bytes": tiff.encode_tiff(dem, geo=geo),
                        "_dem": dem, "_geo": geo})
    for z in range(6):
        r = rasters[z * 2]
        zones.append((f"z{z}", make_convex_polygon(
            r["_geo"].tie_x + 0.5, r["_geo"].tie_y - 0.5,
            float(rng.uniform(0.5, 3)), 7 + z, seed=z)))
    ds = rd.from_arrow(pa.Table.from_pylist(
        [{k: v for k, v in r.items() if not k.startswith("_")}
         for r in rasters])).repartition(4)
    out = (ops.zonal_stats(ds, zones).to_pandas()
           .sort_values("zone_id").reset_index(drop=True))

    acc = collections.defaultdict(lambda: [0, 0.0, np.inf, -np.inf])
    for r in rasters:
        dem, geo = r["_dem"], r["_geo"]
        gr = georef_from_tags(geo)
        hh, ww = dem.shape
        LON = np.broadcast_to(gr.lon0 + gr.px_deg * np.arange(ww),
                              (hh, ww)).ravel()
        LAT = np.broadcast_to((gr.lat0 - gr.px_deg * np.arange(hh))[:, None],
                              (hh, ww)).ravel()
        V = dem.astype(np.float64).ravel()
        for zid, poly in zones:
            inside = point_in_polygon(LON, LAT, poly)
            if inside.any():
                v = V[inside]
                a = acc[zid]
                a[0] += v.size
                a[1] += v.sum()
                a[2] = min(a[2], v.min())
                a[3] = max(a[3], v.max())
    assert len(out) == len(acc) > 0
    for _, row in out.iterrows():
        n, s, mn, mx = acc[row["zone_id"]]
        assert row["n"] == n
        assert abs(row["vmean"] - s / n) < 1e-9
        assert row["vmin"] == mn and row["vmax"] == mx


def test_dem_terrain_features_matches_scalar_horn(ray_session):
    """ops.dem_terrain_features' vectorized Horn slope/aspect/hillshade must
    match an independent per-pixel scalar implementation exactly (same
    edge-replicated 3×3 window, same per-row cos φ metric cell size)."""
    import math

    import pyarrow as pa
    import ray.data as rd

    from projcl_ray import ops, tiff
    from projcl_ray.ops import _horn_terrain
    from projcl_ray.tiff import GeoTags

    rng = np.random.default_rng(9)
    hh, ww = 14, 17
    z = (800 + 90 * np.sin(np.arange(hh)[:, None] / 2.5)
         + rng.normal(0, 25, (hh, ww))).astype(np.float64)
    px_deg, lat0 = 0.02, 43.0
    lat = lat0 - px_deg * np.arange(hh)
    slope, aspect, shade = _horn_terrain(z, lat, px_deg)

    zp = np.pad(z, 1, mode="edge")
    m = 111320.0
    for y in range(hh):
        dx = px_deg * m * math.cos(math.radians(lat[y]))
        for x in range(ww):
            wnd = zp[y:y + 3, x:x + 3]
            dzdx = ((wnd[0, 2] + 2 * wnd[1, 2] + wnd[2, 2])
                    - (wnd[0, 0] + 2 * wnd[1, 0] + wnd[2, 0])) / (8 * dx)
            dzdy = ((wnd[2, 0] + 2 * wnd[2, 1] + wnd[2, 2])
                    - (wnd[0, 0] + 2 * wnd[0, 1] + wnd[0, 2])) / (8 * px_deg * m)
            assert abs(slope[y, x] - math.atan(math.hypot(dzdx, dzdy))) < 1e-12
            assert abs(aspect[y, x] - math.atan2(dzdy, -dzdx)) < 1e-12
    assert shade.min() >= 0 and shade.max() <= 255

    # end-to-end over GeoTIFF blobs through Ray
    blob = tiff.encode_tiff(z.astype(np.float32),
                            geo=GeoTags(px_deg, px_deg, 0, 0, -100.0, lat0))
    out = ops.dem_terrain_features(
        rd.from_arrow(pa.Table.from_pylist(
            [{"raster_id": "d0", "bytes": blob}]))).to_pandas()
    assert len(out) == 1 and 0 <= out["mean_aspect_deg"].iloc[0] < 360
    s32, _, _ = _horn_terrain(z.astype(np.float32).astype(np.float64),
                              lat, px_deg)
    assert abs(out["mean_slope_deg"].iloc[0]
               - float(np.degrees(s32.mean()))) < 1e-9


def test_tiff_tiled_and_predictor_roundtrip():
    """Tile-organized TIFF (edge tiles zero-padded per spec) and the
    horizontal-differencing predictor both round-trip across compressions,
    and predictor 2 shrinks deflate output on smooth rasters."""
    import numpy as np

    from projcl_ray import tiff
    from projcl_ray.images import synth_pixels

    img = synth_pixels(5, 97, 61)  # non-multiple dims → padded edge tiles
    for kw in (dict(tiled=True, tile_size=32),
               dict(tiled=True, tile_size=32, compression="lzw"),
               dict(predictor=2),
               dict(tiled=True, predictor=2, tile_size=16, compression="none"),
               dict(predictor=2, compression="lzw")):
        buf = encode_tiff_layout(img, **kw)
        np.testing.assert_array_equal(tiff.decode_tiff(buf), img)
    plain = len(tiff.encode_tiff(img))
    pred = len(tiff.encode_tiff(img, predictor=2))
    assert pred < plain


def test_jpeg_12bit_roundtrip_and_parity(monkeypatch):
    """12-bit JPEG (T.81 extended sequential, SOF1): uint16 encode/decode
    round-trips at high PSNR on smooth DEM-like data, emits 16-bit DQT +
    image-optimal Huffman tables (Annex-K examples stop below 12-bit
    magnitude categories), honors restarts bit-identically, rejects
    out-of-range samples and progressive 12-bit, leaves the 8-bit path
    untouched — its encoded bytes are pinned by digest, and the C fastcodec
    twin stays BIT-exact on decode for the 12-bit form too."""
    import hashlib

    from projcl_ray import jpeg as J

    rng = np.random.default_rng(5)
    yy, xx = np.mgrid[0:45, 0:61]
    dem = (1000 + 800 * np.sin(xx / 9.0) + 600 * np.cos(yy / 7.0)
           + rng.normal(0, 3, (45, 61))).clip(0, 4095).astype(np.uint16)
    buf = encode_jpeg_sequential(dem, quality=95)
    assert hashlib.sha256(buf).hexdigest()[:16] == "083be3e91613cda5"
    out = J.decode_jpeg(buf)
    assert out.shape == dem.shape and out.dtype == np.uint16
    mse = np.mean((out.astype(np.float64) - dem) ** 2)
    assert 10 * np.log10(4095.0**2 / max(mse, 1e-12)) > 50.0

    img12 = rng.integers(0, 4096, (30, 42, 3)).astype(np.uint16)
    o2 = J.decode_jpeg(encode_jpeg_sequential(img12, quality=80))
    assert o2.shape == (30, 42, 3) and o2.dtype == np.uint16
    # subsampled color + restart markers decode to the same pixels
    o3 = J.decode_jpeg(encode_jpeg_sequential(dem, quality=95, restart_interval=3))
    np.testing.assert_array_equal(o3, out)

    with pytest.raises(NotImplementedError):
        encode_jpeg_progressive(img12)
    with pytest.raises(ValueError):
        encode_jpeg_sequential((img12.astype(np.uint32) * 8).astype(np.uint16))
    with pytest.raises(ValueError, match="8-bit samples"):
        J.encode_jpeg(dem)  # the package writes 8-bit baseline only

    if fastcodec.lib() is None:
        return
    monkeypatch.setattr(fastcodec, "DISABLED", True)
    pure_d = J.decode_jpeg(buf)
    monkeypatch.setattr(fastcodec, "DISABLED", False)
    np.testing.assert_array_equal(J.decode_jpeg(buf), pure_d)
