"""End-to-end Ray Data stage tests: parquet → derive points → project/shift/
geodesic stages → cells → warp+tile actor pool → PIP join → kNN join.

Uses one session-scoped Ray (conftest) and the driver-generated testdata.
"""

import numpy as np
import pyarrow as pa
import pytest

from projcl_ray import ops
from projcl_ray.images import synth_images_table, decode_image
from projcl_ray.proj import ProjParams, prepare
from projcl_ray.spatial import make_convex_polygon, point_in_polygon


def lineitem_points(ray_session, sf_dir, limit=None):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])

    def derive(batch):
        ok = np.asarray(batch["l_orderkey"], np.float64)
        pk = np.asarray(batch["l_partkey"], np.float64)
        return {
            "point_id": np.asarray(batch["l_orderkey"]) * 10 + np.asarray(batch["l_partkey"]) % 10,
            "lon": -60.0 + np.mod(ok * 7.0 + pk * 13.0, 1200.0) / 10.0,
            "lat": -40.0 + np.mod(ok * 11.0 + pk * 3.0, 1200.0) / 10.0,
        }

    ds = ds.map_batches(derive, batch_format="numpy")
    if limit:
        # deterministic subset: limit() picks whichever blocks finish first
        # (preserve_order is off), so filter on the key instead
        ds = ds.map_batches(
            lambda b: {k: v[np.asarray(b["point_id"]) % 7919 < limit] for k, v in b.items()},
            batch_format="numpy",
        )
    return ds


def test_project_stage_matches_local(ray_session, sf_dir):
    ds = lineitem_points(ray_session, sf_dir)
    out = ops.project_points(ds, "mercator", spheroid="WGS_84").to_pandas()
    p = prepare("mercator", spheroid="WGS_84")
    x, y = p.forward(out["lon"].to_numpy(), out["lat"].to_numpy())
    np.testing.assert_allclose(out["x"].to_numpy(), x, rtol=1e-14)
    np.testing.assert_allclose(out["y"].to_numpy(), y, rtol=1e-14)


def test_project_inverse_stage_roundtrip(ray_session, sf_dir):
    ds = lineitem_points(ray_session, sf_dir)
    fwd = ops.project_points(ds, "transverse_mercator", spheroid="WGS_84")
    back = ops.project_points(
        fwd, "transverse_mercator", spheroid="WGS_84", inverse=True,
        lon_col="lon2", lat_col="lat2",
    ).to_pandas()
    np.testing.assert_allclose(back["lon2"], back["lon"], atol=1e-7)
    np.testing.assert_allclose(back["lat2"], back["lat"], atol=1e-7)


def test_datum_shift_stage(ray_session, sf_dir):
    ds = lineitem_points(ray_session, sf_dir, limit=2000)
    out = ops.shift_datum(ds, "WGS_84", "NAD_27", out_lon="lon_n27", out_lat="lat_n27").to_pandas()
    from projcl_ray.datums import shift_datum as local_shift

    lo, la = local_shift(out["lon"].to_numpy(), out["lat"].to_numpy(), "WGS_84", "NAD_27")
    np.testing.assert_allclose(out["lon_n27"], lo, atol=1e-12)
    np.testing.assert_allclose(out["lat_n27"], la, atol=1e-12)


def test_forward_geodesic_fanout(ray_session, sf_dir):
    ds = lineitem_points(ray_session, sf_dir, limit=100)
    n_in = ds.count()
    az = [0.0, 90.0, 180.0, 270.0]
    out = ops.forward_geodesic(ds, az, 50_000.0).to_pandas()
    assert len(out) == n_in * 4
    from projcl_ray.geodesic import haversine

    d = haversine(out["lon"], out["lat"], out["lon2"], out["lat2"])
    np.testing.assert_allclose(d, 50_000.0, atol=1e-6)


def _geodesic_pairs():
    """Seeded pairs in the test window plus the cases that pick a solver's
    branch: same point, meridional, equatorial and near-antipodal."""
    rng = np.random.default_rng(11)
    lon1, lon2 = rng.uniform(-60, 60, (2, 200))
    lat1, lat2 = rng.uniform(-40, 80, (2, 200))
    edge = np.array([[10.0, 20.0, 10.0, 20.0], [5.0, -30.0, 5.0, 60.0],
                     [0.0, 0.0, 120.0, 0.0], [0.0, 0.5, 179.7, -0.4]])
    return tuple(np.concatenate([a, e]) for a, e in zip((lon1, lat1, lon2, lat2), edge.T))


_GEODESIC_STAGES = {
    "geodesic_distance": lambda ds, m: ops.geodesic_distance(ds, method=m),
    "forward_geodesic": lambda ds, m: ops.forward_geodesic(ds, [30.0, 200.0], 2.0e6, method=m),
    "forward_geodesic_fixed_angle":
        lambda ds, m: ops.forward_geodesic_fixed_angle(ds, 10.0, 20.0, 45.0, method=m),
}


@pytest.mark.parametrize("method", ["sphere", "vincenty"])
def test_geodesic_distance_stage_equals_kernel(ray_session, method):
    import ray.data as rd

    from projcl_ray import geodesic

    lon1, lat1, lon2, lat2 = _geodesic_pairs()
    ds = rd.from_arrow(pa.table({"lon1": lon1, "lat1": lat1, "lon2": lon2, "lat2": lat2}))
    out = _GEODESIC_STAGES["geodesic_distance"](ds, method).to_pandas()
    if method == "sphere":
        exp = {"distance_m": geodesic.haversine(lon1, lat1, lon2, lat2)}
    else:
        exp = dict(zip(("distance_m", "azi1_deg", "azi2_deg"),
                       geodesic.vincenty_inverse(lon1, lat1, lon2, lat2)))
    for col, want in exp.items():
        np.testing.assert_array_equal(out[col].to_numpy(), want, err_msg=col)


@pytest.mark.parametrize("method", ["sphere", "vincenty"])
def test_forward_geodesic_stage_equals_kernel(ray_session, method):
    import ray.data as rd

    from projcl_ray import geodesic

    lon, lat = _geodesic_pairs()[:2]
    ds = rd.from_arrow(pa.table({"lon": lon, "lat": lat}))
    out = _GEODESIC_STAGES["forward_geodesic"](ds, method).to_pandas()
    az = np.array([30.0, 200.0])
    args = (lon[:, None], lat[:, None], az[None, :], 2.0e6)
    if method == "sphere":
        lon2, lat2 = geodesic.forward_sphere(*args)
    else:
        lon2, lat2, _ = geodesic.vincenty_direct(*args)
    np.testing.assert_array_equal(out["azimuth_deg"].to_numpy(), np.tile(az, len(lon)))
    np.testing.assert_array_equal(out["lon2"].to_numpy(), lon2.ravel())
    np.testing.assert_array_equal(out["lat2"].to_numpy(), lat2.ravel())


@pytest.mark.parametrize("method", ["sphere", "vincenty"])
def test_fixed_angle_stage_equals_kernel(ray_session, method):
    import ray.data as rd

    from projcl_ray import geodesic

    d = np.array([0.0, 1e3, 1e5, 1e6, 5e6, 1.5e7])
    ds = rd.from_arrow(pa.table({"distance_m": d}))
    out = _GEODESIC_STAGES["forward_geodesic_fixed_angle"](ds, method).to_pandas()
    if method == "sphere":
        lon2, lat2 = geodesic.forward_sphere(10.0, 20.0, 45.0, d)
    else:
        lon2, lat2, _ = geodesic.vincenty_direct(10.0, 20.0, 45.0, d)
    np.testing.assert_array_equal(out["lon2"].to_numpy(), lon2)
    np.testing.assert_array_equal(out["lat2"].to_numpy(), lat2)


@pytest.mark.parametrize("stage, method", [
    ("geodesic_distance", "Vincenty"),
    ("geodesic_distance", "haversine"),
    ("geodesic_distance", "karney"),
    ("forward_geodesic", "haversine"),
    ("forward_geodesic", "karney"),
    ("forward_geodesic_fixed_angle", "karney"),
])
def test_geodesic_stage_rejects_unknown_method(stage, method):
    """Every geodesic stage accepts exactly 'sphere' and 'vincenty': any
    other method raises when the stage is built (no Dataset is needed),
    instead of running another solver."""
    with pytest.raises(ValueError, match="unknown geodesic method"):
        _GEODESIC_STAGES[stage](None, method)


def test_assign_cells_stage(ray_session, sf_dir):
    ds = lineitem_points(ray_session, sf_dir, limit=5000)
    out = ops.assign_cells(ds, res_deg=5.0).to_pandas()
    from projcl_ray.index import cell_id

    np.testing.assert_array_equal(
        out["cell_id"], cell_id(out["lon"].to_numpy(), out["lat"].to_numpy(), 5.0)
    )


def _mixed_table(n):
    return pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64) * 3),
        "name": pa.array([f"r{i}" for i in range(n)], pa.string()),
        "w": pa.array([None if i % 3 == 0 else i / 2 for i in range(n)], pa.float64()),
        "tags": pa.array([[i, i + 1] for i in range(n)], pa.list_(pa.int32())),
    })


def test_map_columns_contract(ray_session):
    import ray
    import ray.data as rd

    def bump(cols):
        return {"extra": cols["k"] * 2.5, "w": np.nan_to_num(cols["w"]) + 1.0,
                "flag": cols["k"] % 2 == 0}

    src = _mixed_table(1000)
    out = ops.map_columns(rd.from_arrow(src), bump, batch_size=256).to_arrow_refs()
    got = pa.concat_tables(ray.get(out)).sort_by("k")
    assert got.column_names == ["k", "name", "w", "tags", "extra", "flag"]
    # pass-through columns keep their Arrow type and values
    for c in ("k", "name", "tags"):
        assert got.schema.field(c).type == src.schema.field(c).type
        assert got[c].to_pylist() == src[c].to_pylist()
    # the replaced column keeps its index and takes fn's values
    assert got.schema.field("w").type == pa.float64()
    assert got["w"].to_pylist() == [1.0 if i % 3 == 0 else i / 2 + 1.0 for i in range(1000)]
    assert got.schema.field("extra").type == pa.float64()
    assert got.schema.field("flag").type == pa.bool_()
    np.testing.assert_array_equal(got["extra"].to_numpy(), np.arange(1000) * 3 * 2.5)


def test_map_columns_empty_batch_is_typed():
    """Ray never hands an empty Dataset's UDF a batch, so call the stage
    function directly, the way it is registered with map_batches."""

    class Capture:
        def map_batches(self, fn, **kw):
            return fn, kw

    def bump(cols):
        return {"extra": cols["k"] * 2.5}

    stage, kw = ops.map_columns(Capture(), bump, batch_size=None)
    assert kw == {"batch_format": "pyarrow", "batch_size": None}
    assert stage.__name__ == "bump"
    got = stage(_mixed_table(0))
    assert got.num_rows == 0
    assert got.schema.names == ["k", "name", "w", "tags", "extra"]
    assert got.schema.field("k").type == pa.int64()
    assert got.schema.field("tags").type == pa.list_(pa.int32())
    assert got.schema.field("extra").type == pa.float64()


# 128k: the stages' default, above the 6000-row sf0.001 block; 1000: six
# slices per block; 1024: a ragged last slice of 880 rows
@pytest.mark.parametrize("batch_size", [128 * 1024, 1000, 1024])
def test_point_chain_bit_identical_to_kernels(ray_session, sf_dir, batch_size):
    import pyarrow.parquet as pq

    from projcl_ray import datums, pipelines

    ds = pipelines.derive_points(sf_dir)
    ds = ops.project_points(ds, "transverse_mercator", spheroid="WGS_84", batch_size=batch_size)
    ds = ops.project_points(ds, "transverse_mercator", spheroid="WGS_84", inverse=True,
                            lon_col="lon2", lat_col="lat2", batch_size=batch_size)
    ds = ops.shift_datum(ds, "WGS_84", "NAD_27", out_lon="lon_n27", out_lat="lat_n27",
                         batch_size=batch_size)
    ds = ds.materialize()
    stats = ds.stats()
    assert "MapBatches(derive)" in stats
    assert "MapBatches(_project)" in stats
    assert "MapBatches(_shift)" in stats

    out = ds.to_pandas()
    keys = pq.read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    assert len(out) == keys.num_rows
    assert out["l_orderkey"].sum() == np.asarray(keys["l_orderkey"]).sum()
    assert list(out.columns) == ["l_orderkey", "l_partkey", "lon", "lat", "x", "y",
                                 "lon2", "lat2", "lon_n27", "lat_n27"]
    assert out["l_orderkey"].dtype == np.int64 and out["l_partkey"].dtype == np.int64
    ok = out["l_orderkey"].to_numpy(np.float64)
    pk = out["l_partkey"].to_numpy(np.float64)
    lon = -60.0 + np.mod(ok * 7.0 + pk * 13.0, 1200.0) / 10.0
    lat = -40.0 + np.mod(ok * 11.0 + pk * 3.0, 1200.0) / 10.0
    tm = prepare("transverse_mercator", spheroid="WGS_84")
    with np.errstate(all="ignore"):
        x, y = tm.forward(lon, lat)
        lon2, lat2 = tm.inverse(x, y)
    lo27, la27 = datums.shift_datum(lon, lat, "WGS_84", "NAD_27")
    for col, want in (("lon", lon), ("lat", lat), ("x", x), ("y", y), ("lon2", lon2),
                      ("lat2", lat2), ("lon_n27", lo27), ("lat_n27", la27)):
        np.testing.assert_array_equal(out[col].to_numpy(), want, err_msg=col)


@pytest.mark.parametrize("n_images", [12, 13])  # 13: a ragged last slice of one image
def test_warp_and_tile_tasks(ray_session, n_images):
    import ray.data as rd

    tbl = synth_images_table(n_images, seed=42)
    ds = rd.from_arrow(tbl)  # one block: the stage slices it into 4-image groups
    tiles = ops.warp_and_tile(
        ds, "mercator", ProjParams(spheroid="WGS_84"),
        tile_size=64, batch_size=4,
    )
    got = tiles.to_arrow_refs()
    assert len(got) == 1
    got = ray_session.get(got[0])
    actor = ops.WarpTileActor("mercator", ProjParams(spheroid="WGS_84"), tile_size=64)
    want = pa.concat_tables([actor(tbl.slice(i, 4)) for i in range(0, n_images, 4)])
    assert got.equals(want)  # same tiles, bytes and cell_id, in the same order
    df = got.to_pandas()
    assert len(df) >= 12  # at least one tile per image
    assert set(df.columns) >= {"image_id", "caption", "cell_id", "tile_idx", "bytes", "w", "h"}
    # captions survive byte-identical (input_hint invariant)
    src_caps = {r["image_id"]: r["caption"] for r in tbl.to_pylist()}
    for iid, cap in zip(df["image_id"], df["caption"]):
        assert cap == src_caps[iid]
    # tiles decode to the declared size
    r0 = df.iloc[0]
    img = decode_image(r0["bytes"], r0["w"], r0["h"], r0["fmt"])
    assert img.shape == (64, 64, 4)
    # row-first tile convention
    assert np.all(df["tile_idx"] >= df["tile_col"])


def test_sliced_stages_stream_warp_tiles_and_return_point_tables(ray_session, monkeypatch):
    """Over a block of several slices the warp stage yields each slice's
    tiles, so a worker never holds a whole block's tiles; a point stage
    returns one table."""
    import types

    import ray.data as rd

    stages = []
    orig = rd.Dataset.map_batches

    def recording(self, fn, **kw):
        stages.append(fn)
        return orig(self, fn, **kw)

    monkeypatch.setattr(rd.Dataset, "map_batches", recording)
    tbl = synth_images_table(13, seed=42)
    ds = rd.from_arrow(tbl)
    ops.warp_and_tile(ds, "mercator", ProjParams(spheroid="WGS_84"), tile_size=64, batch_size=4)
    ops.project_points(ds, "mercator", lon_col="lon0", lat_col="lat0", batch_size=4)
    warp_stage, point_stage = stages
    out = warp_stage(tbl)
    assert isinstance(out, types.GeneratorType)
    actor = ops.WarpTileActor("mercator", ProjParams(spheroid="WGS_84"), tile_size=64)
    parts = list(out)
    assert len(parts) == 4 and pa.concat_tables(parts).equals(
        pa.concat_tables([actor(tbl.slice(i, 4)) for i in range(0, 13, 4)]))
    points = point_stage(tbl)
    assert isinstance(points, pa.Table) and points.num_rows == 13


def _operators(stats: str) -> list[tuple[str, int]]:
    """(name, tasks) of every operator in a ``Dataset.stats()`` text."""
    import re

    return [(m.group(1), int(m.group(2))) for m in
            re.finditer(r"^Operator \d+ (\S+): (\d+) tasks executed", stats, re.M)]


def test_image_read_fuses_into_warp_and_cell_counts(ray_session, tmp_path, monkeypatch):
    """One Ray task per parquet file: the read, the warp and the cell-count
    combiner run as one operator (the session has 4 CPUs, so 5 files are
    not split)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from projcl_ray import sources

    tbl = synth_images_table(30, seed=7)
    n_files = 5
    for k in range(n_files):
        pq.write_table(tbl.slice(6 * k, 6), str(tmp_path / f"part-{k}.parquet"))
    executed = []
    orig = rd.Dataset.iter_batches

    def recording(self, *a, **kw):
        executed.append(self)
        return orig(self, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "iter_batches", recording)
    tiles = ops.warp_and_tile(sources.read_images(str(tmp_path)), "transverse_mercator",
                              ProjParams(spheroid="WGS_84"), batch_size=4)
    got = ops.cell_counts(tiles)
    monkeypatch.undo()
    (op, tasks), = _operators(executed[-1].stats())
    assert op.startswith("ReadParquet->MapBatches(_warp)")
    assert tasks == n_files
    want = ops.cell_counts(ops.warp_and_tile(rd.from_arrow(tbl), "transverse_mercator",
                                             ProjParams(spheroid="WGS_84"), batch_size=4))
    assert got.sort_values("cell_id").reset_index(drop=True).equals(
        want.sort_values("cell_id").reset_index(drop=True))


def test_lineitem_read_fuses_into_point_chain(ray_session, sf_dir, tmp_path):
    """derive → project → shift → PIP over a 4-file lineitem directory runs
    as one operator with one task per file, and joins the same rows as the
    single-file table."""
    import pyarrow.parquet as pq

    from projcl_ray import pipelines

    keys = pq.read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    li = tmp_path / "lineitem.parquet"
    li.mkdir()
    n_files, per = 4, -(-keys.num_rows // 4)
    for k in range(n_files):
        pq.write_table(keys.slice(k * per, per), str(li / f"part-{k}.parquet"))
    polys = pipelines.nation_boxes(sf_dir)

    def chain(root):
        ds = ops.project_points(pipelines.derive_points(root), "transverse_mercator",
                                spheroid="WGS_84")
        ds = ops.shift_datum(ds, "WGS_84", "NAD_27", out_lon="lon_n27", out_lat="lat_n27")
        return ops.pip_join(ds, polys).materialize()

    ds = chain(str(tmp_path))
    assert _operators(ds.stats()) == [
        ("ReadParquet->MapBatches(derive)->MapBatches(_project)->MapBatches(_shift)"
         "->MapBatches(_pip)", n_files)]
    key = ["l_orderkey", "l_partkey", "poly_id"]
    got = ds.to_pandas().sort_values(key).reset_index(drop=True)
    want = chain(sf_dir).to_pandas().sort_values(key).reset_index(drop=True)
    assert len(got) > 0 and got.equals(want)


def test_pip_join_matches_local_oracle(ray_session, sf_dir):
    ds = lineitem_points(ray_session, sf_dir, limit=4000)
    polys = [(f"poly{j:04d}", make_convex_polygon(-30 + 20 * j, 10 * j - 20, 8.0, 8, seed=j)) for j in range(4)]
    out = ops.pip_join(ds, polys).to_pandas()
    pdf = ds.to_pandas()
    expected = 0
    for pid, poly in polys:
        expected += point_in_polygon(pdf["lon"].to_numpy(), pdf["lat"].to_numpy(), poly).sum()
    assert len(out) == expected
    # spot-verify membership
    for _, row in out.head(50).iterrows():
        poly = dict(polys)[row["poly_id"]]
        assert point_in_polygon(np.array([row["lon"]]), np.array([row["lat"]]), poly)[0]


def test_knn_join_matches_brute(ray_session, sf_dir):
    ds = lineitem_points(ray_session, sf_dir, limit=500)
    n_in = ds.count()
    rng = np.random.default_rng(0)
    t_ids = np.array([f"t{i}" for i in range(40)])
    t_lon = rng.uniform(-60, 60, 40)
    t_lat = rng.uniform(-40, 80, 40)
    out = ops.knn_join(ds, (t_ids, t_lon, t_lat), 3, id_col="point_id").to_pandas()
    assert len(out) == n_in * 3
    from projcl_ray.spatial import knn_brute

    # duplicate (lon,lat) rows interleave under sort — compare unique points
    pdf = (
        ds.to_pandas()[["lon", "lat"]].drop_duplicates()
        .sort_values(["lon", "lat"]).reset_index(drop=True)
    )
    idx, dist = knn_brute(pdf["lon"].to_numpy(), pdf["lat"].to_numpy(), t_lon, t_lat, 3)
    got = (
        out.drop_duplicates(["lon", "lat", "neighbor_rank"])
        .sort_values(["lon", "lat", "neighbor_rank"]).reset_index(drop=True)
    )
    np.testing.assert_allclose(got["distance_m"].to_numpy().reshape(-1, 3), dist, rtol=1e-12)


def test_knn_pruned_matches_brute_dense_and_sparse(ray_session, sf_dir):
    """Ring-of-cells pruning must be EXACT vs brute force — dense targets
    (pruning wins big) and sparse targets (rings must keep expanding until
    the distance bound closes)."""
    from projcl_ray.spatial import knn_brute

    ds = lineitem_points(ray_session, sf_dir, limit=300)
    pdf = (
        ds.to_pandas()[["lon", "lat"]].drop_duplicates()
        .sort_values(["lon", "lat"]).reset_index(drop=True)
    )
    rng = np.random.default_rng(3)
    for m, res in ((20_000, 2.0), (25, 5.0)):  # dense / sparse
        t_ids = np.arange(m)
        t_lon = rng.uniform(-60, 60, m)
        t_lat = rng.uniform(-40, 80, m)
        out = ops.knn_join(ds, (t_ids, t_lon, t_lat), 4, id_col="point_id",
                           res_deg=res).to_pandas()
        got = (
            out.drop_duplicates(["lon", "lat", "neighbor_rank"])
            .sort_values(["lon", "lat", "neighbor_rank"]).reset_index(drop=True)
        )
        _, exp = knn_brute(pdf["lon"].to_numpy(), pdf["lat"].to_numpy(), t_lon, t_lat, 4)
        np.testing.assert_allclose(
            got["distance_m"].to_numpy().reshape(-1, 4), exp, rtol=1e-12,
            err_msg=f"m={m} res={res}",
        )


def test_pip_join_partitioned_matches_broadcast(ray_session, sf_dir, monkeypatch):
    """A polygon Dataset over BROADCAST_MAX_BYTES takes the cell-partitioned
    plan, which must produce exactly the broadcast plan's (point, polygon)
    pairs and columns."""
    import ray.data as rd

    ds = lineitem_points(ray_session, sf_dir, limit=2500)
    polys = [
        (f"poly{j:04d}", make_convex_polygon(-30 + 15 * j, 8 * j - 20, 7.0, 8, seed=j))
        for j in range(5)
    ]
    bc = ops.pip_join(ds, polys).to_pandas()
    poly_ds = rd.from_items(
        [{"poly_id": pid, "vertices": poly.ravel().tolist()} for pid, poly in polys]
    )
    monkeypatch.setattr(ops, "BROADCAST_MAX_BYTES", 0)
    lg = ops.pip_join(ds, poly_ds).to_pandas()
    assert list(lg.columns) == list(bc.columns)
    key = lambda df: set(zip(df["lon"].round(9), df["lat"].round(9), df["poly_id"]))
    assert key(lg) == key(bc)
    assert len(lg) == len(bc)
    # no points: an empty result, as the broadcast plan gives
    empty = ops.pip_join(ds.filter(expr="lon > 1000"), poly_ds)
    assert empty.count() == 0 and empty.schema().names == list(bc.columns)


def test_skewed_join_salts_hot_cell_and_plans_agree(ray_session, monkeypatch):
    """One 5° cell holds over half the points (synth_images_table's Zipf
    clustering around a single hot spot). The partitioned plan's shuffle
    splits each cell over GROUP_MAX_ROWS probe rows, and only those, into
    groups within the cap, replicating the cell's build rows into each, and
    the broadcast and partitioned plans return the same rows for PIP and
    for kNN."""
    import ray.data as rd

    from projcl_ray.index import cell_id

    images = synth_images_table(600, seed=2, sizes=(8,), hot_centers=1)
    lon, lat = images["lon0"].to_numpy(), images["lat0"].to_numpy()
    cells = cell_id(lon, lat, 5.0)
    assert np.unique(cells, return_counts=True)[1].max() > len(cells) // 2
    pts = pa.table({"pid": np.arange(len(cells)), "lon": lon, "lat": lat})
    ds = rd.from_arrow([pts.slice(i, 200) for i in range(0, pts.num_rows, 200)])
    cap = 64
    monkeypatch.setattr(ops, "GROUP_MAX_ROWS", cap)

    # the shuffle: each point a probe row, one build row (pid −1) per cell
    def tag(batch: pa.Table) -> pa.Table:
        c = cell_id(batch["lon"].to_numpy(), batch["lat"].to_numpy(), 5.0)
        return batch.append_column("_cell", pa.array(c))

    def sizes(group: pa.Table) -> dict:
        pid = group["pid"].to_numpy()
        return {"cell": [int(group["_cell"][0].as_py())], "probes": [int((pid >= 0).sum())],
                "builds": [int((pid < 0).sum())]}

    build = rd.from_arrow(pa.table({"pid": np.full(len(np.unique(cells)), -1),
                                    "lon": [lon[cells == c][0] for c in np.unique(cells)],
                                    "lat": [lat[cells == c][0] for c in np.unique(cells)]}))
    counts = ops._count_cells(ops._map_blocks(ds, tag, batch_size=None), "_cell")
    schema = pa.schema([("cell", pa.int64()), ("probes", pa.int64()), ("builds", pa.int64())])
    groups = ops._cell_join(ds, tag, build, tag, counts, sizes, schema).to_pandas()
    assert groups["probes"].max() <= cap
    assert groups["probes"].sum() == len(cells) and (groups["builds"] == 1).all()
    per_cell = groups.groupby("cell").size()
    for c, n in zip(*np.unique(cells, return_counts=True)):
        assert per_cell[c] >= -(-n // cap) if n > cap else per_cell[c] == 1, (c, n)

    polys = [(f"p{j}", make_convex_polygon(float(lon[j]), float(lat[j]), 3.0, 8, seed=j))
             for j in range(0, 600, 150)]
    rng = np.random.default_rng(4)
    t_lon = np.r_[rng.uniform(-60, 60, 40), lon[:: 50] + 0.3]
    t_lat = np.r_[rng.uniform(-40, 80, 40), lat[:: 50] - 0.2]
    targets = (np.arange(len(t_lon)), t_lon, t_lat)
    got = {}
    for plan, max_bytes in (("broadcast", ops.BROADCAST_MAX_BYTES), ("partitioned", 0)):
        monkeypatch.setattr(ops, "BROADCAST_MAX_BYTES", max_bytes)
        pip = ops.pip_join(ds, polys).to_pandas().sort_values(["pid", "poly_id"])
        knn = ops.knn_join(ds, targets, 3, id_col="pid").to_pandas()
        got[plan] = pip.reset_index(drop=True), knn.sort_values(
            ["pid", "neighbor_rank"]).reset_index(drop=True)
    assert len(got["broadcast"][0]) > 0
    for a, b in zip(got["broadcast"], got["partitioned"]):
        assert list(a.columns) == list(b.columns)
        assert a.equals(b)


def test_knn_pruned_polar_rows_no_duplicates(ray_session):
    """cell_neighbors lat-clamps at polar rows (and lon-wraps on wide rings),
    yielding DUPLICATE cells: the pruned path must not rank one target twice
    nor shadow a true neighbor (round-1 advice repro: query at lat -88)."""
    import ray.data as rd

    from projcl_ray.spatial import knn_brute

    rng = np.random.default_rng(9)
    qlon = rng.uniform(-170.0, 170.0, 40)
    qlat = np.concatenate([rng.uniform(-89.9, -80.0, 20), rng.uniform(80.0, 89.9, 20)])
    t_ids = np.arange(30)
    t_lon = rng.uniform(-180.0, 180.0, 30)
    t_lat = rng.uniform(-90.0, 90.0, 30)
    ds = rd.from_items(
        [{"qid": i, "lon": float(qlon[i]), "lat": float(qlat[i])} for i in range(40)]
    )
    out = ops.knn_join(ds, (t_ids, t_lon, t_lat), 3, id_col="qid", res_deg=10.0).to_pandas()
    assert int(out.groupby("qid")["neighbor_id"].nunique().min()) == 3  # no dup ranks
    got = out.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
    idx, exp = knn_brute(qlon, qlat, t_lon, t_lat, 3, order_key=t_ids)
    np.testing.assert_allclose(got["distance_m"].to_numpy().reshape(-1, 3), exp, rtol=1e-12)
    np.testing.assert_array_equal(got["neighbor_id"].to_numpy().reshape(-1, 3), t_ids[idx])


def test_knn_tie_breaks_by_target_id(ray_session, monkeypatch):
    """Duplicate target locations must rank by id (SQL ORDER BY dist, id) in
    both plans — derived supplier coords repeat with period 1200, so exact
    ties are real at larger scale factors."""
    import ray.data as rd

    t_lon = np.array([10.0, 10.0, 10.0, 50.0])
    t_lat = np.array([20.0, 20.0, 20.0, 60.0])
    t_ids = np.array([7, 3, 5, 1])
    ds = rd.from_items([{"qid": 0, "lon": 10.5, "lat": 20.5}])
    for plan, max_bytes in (("broadcast", ops.BROADCAST_MAX_BYTES), ("partitioned", 0)):
        monkeypatch.setattr(ops, "BROADCAST_MAX_BYTES", max_bytes)
        out = ops.knn_join(ds, (t_ids, t_lon, t_lat), 3, id_col="qid", res_deg=10.0).to_pandas()
        got = out.sort_values("neighbor_rank")["neighbor_id"].tolist()
        assert got == [3, 5, 7], (plan, got)


def test_knn_join_partitioned_matches_brute(ray_session, monkeypatch):
    """A target Dataset over BROADCAST_MAX_BYTES takes the partitioned plan,
    which must be exact vs brute force — dense targets (one round) and
    sparse targets (multi-round ring growth, including a query whose first
    rings hold zero targets) — with integer and with string query ids."""
    import ray.data as rd

    from projcl_ray.spatial import knn_brute

    rng = np.random.default_rng(21)
    qlon = np.concatenate([rng.uniform(-60, 60, 60), [170.0]])  # far outlier query
    qlat = np.concatenate([rng.uniform(-40, 80, 60), [-85.0]])
    targets = []
    for m in (2000, 12):  # dense / sparse
        t_lon = rng.uniform(-60, 60, m)
        t_lat = rng.uniform(-40, 80, m)
        t_ds = rd.from_items(
            [{"id": int(j), "lon": float(t_lon[j]), "lat": float(t_lat[j])} for j in range(m)]
        )
        targets.append((m, t_lon, t_lat, t_ds))
    monkeypatch.setattr(ops, "BROADCAST_MAX_BYTES", 0)
    for qid in (int, "q{:04d}".format):  # string ids sort in the integers' order
        q_ds = rd.from_items([{"qid": qid(i), "lon": float(qlon[i]), "lat": float(qlat[i])}
                              for i in range(len(qlon))])
        for m, t_lon, t_lat, t_ds in targets:
            out = ops.knn_join(q_ds, t_ds, 3, id_col="qid", res_deg=10.0).to_pandas()
            assert len(out) == len(qlon) * 3, m
            got = out.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
            idx, exp = knn_brute(qlon, qlat, t_lon, t_lat, 3, order_key=np.arange(m))
            np.testing.assert_allclose(got["distance_m"].to_numpy().reshape(-1, 3), exp,
                                       rtol=1e-12, err_msg=f"m={m}")
            np.testing.assert_array_equal(got["neighbor_id"].to_numpy().reshape(-1, 3), idx)
    # no queries: an empty result, as the broadcast plan gives
    assert ops.knn_join(q_ds.filter(expr="lon > 1000"), t_ds, 3, id_col="qid").count() == 0


def test_knn_join_partitioned_string_ids_match_broadcast(ray_session, monkeypatch):
    """String query ids spread over several blocks take the partitioned plan,
    whose id bounds are strings: it answers as the broadcast plan does, and
    so does a lone query."""
    import ray.data as rd

    from projcl_ray.spatial import knn_brute

    rng = np.random.default_rng(23)
    qlon, qlat = rng.uniform(-60, 60, 300), rng.uniform(-40, 80, 300)
    t_lon, t_lat = rng.uniform(-60, 60, 500), rng.uniform(-40, 80, 500)
    qids = [f"q{i:04d}" for i in range(300)]
    q_ds = rd.from_arrow([
        pa.table({"qid": qids[i:i + 100], "lon": qlon[i:i + 100], "lat": qlat[i:i + 100]})
        for i in range(0, 300, 100)
    ])
    t_ds = rd.from_arrow(pa.table({"id": np.arange(500), "lon": t_lon, "lat": t_lat}))
    got = {}
    for plan, max_bytes in (("broadcast", ops.BROADCAST_MAX_BYTES), ("partitioned", 0)):
        monkeypatch.setattr(ops, "BROADCAST_MAX_BYTES", max_bytes)
        out = ops.knn_join(q_ds, t_ds, 3, id_col="qid", res_deg=10.0).to_pandas()
        got[plan] = out.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
        lone = ops.knn_join(q_ds.limit(1), t_ds, 3, id_col="qid", res_deg=10.0).to_pandas()
        lone = lone.sort_values("neighbor_rank").reset_index(drop=True)
        assert lone.equals(got[plan].head(3)), plan
    assert got["broadcast"].equals(got["partitioned"])
    idx, exp = knn_brute(qlon, qlat, t_lon, t_lat, 3, order_key=np.arange(500))
    np.testing.assert_allclose(got["partitioned"]["distance_m"].to_numpy().reshape(-1, 3), exp,
                               rtol=1e-12)
    np.testing.assert_array_equal(got["partitioned"]["neighbor_id"].to_numpy().reshape(-1, 3), idx)


def test_knn_partitioned_keeps_targets_in_place(ray_session, monkeypatch):
    """Targets far outnumber the queries, and three queries lie far from
    every target, so their rings grow to the whole sphere. Every round's
    shuffle keeps each target once, in its own cell, within GROUP_MAX_ROWS
    (a salted cell replicates the queries, not the targets), and the result
    equals brute force."""
    import pyarrow.compute as pc
    import ray.data as rd

    from projcl_ray.spatial import knn_brute

    rng = np.random.default_rng(5)
    m = 3000
    t_lon, t_lat = rng.normal(10.0, 2.0, m), rng.normal(48.0, 2.0, m)
    qlon = np.r_[rng.uniform(0, 20, 12), [-150.0, 120.0, 0.0]]
    qlat = np.r_[rng.uniform(40, 56, 12), [-60.0, -30.0, -89.0]]
    tbl = pa.table({"id": np.arange(m), "lon": t_lon, "lat": t_lat})
    t_ds = rd.from_arrow([tbl.slice(i, 500) for i in range(0, m, 500)])
    q_ds = rd.from_arrow(pa.table({"qid": np.arange(len(qlon)), "lon": qlon, "lat": qlat}))
    cap = 400
    monkeypatch.setattr(ops, "BROADCAST_MAX_BYTES", 0)
    monkeypatch.setattr(ops, "GROUP_MAX_ROWS", cap)

    rounds = []
    real = ops._cell_join
    sizes_schema = pa.schema([("targets", pa.int64()), ("queries", pa.int64())])

    def sizes(group: pa.Table) -> dict:
        n_t = pc.sum(pc.is_valid(group["neighbor_id"]).cast(pa.int64())).as_py() or 0
        return {"targets": [n_t], "queries": [group.num_rows - n_t]}

    def spy(probe, tag_probe, build, tag_build, counts, fn, schema):
        rounds.append(real(probe, tag_probe, build, tag_build, counts, sizes,
                           sizes_schema).to_pandas())
        return real(probe, tag_probe, build, tag_build, counts, fn, schema)

    monkeypatch.setattr(ops, "_cell_join", spy)
    out = ops.knn_join(q_ds, t_ds, 3, id_col="qid", res_deg=10.0).to_pandas()
    assert len(rounds) >= 3  # the far queries go round again
    cells = np.unique(ops.index_mod.cell_id(t_lon, t_lat, 10.0), return_counts=True)[1]
    assert cells.max() > cap  # a hot cell is salted
    for groups in rounds:
        assert groups["targets"].sum() == m and groups["targets"].max() <= cap
    got = out.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
    idx, exp = knn_brute(qlon, qlat, t_lon, t_lat, 3, order_key=np.arange(m))
    np.testing.assert_array_equal(got["neighbor_id"].to_numpy().reshape(-1, 3), idx)
    np.testing.assert_allclose(got["distance_m"].to_numpy().reshape(-1, 3), exp, rtol=1e-12)


def test_rasterize_points_bins_every_point(ray_session, sf_dir):
    """Vector→raster density tiles sum to the input point count (no clip
    at test scale per cell-pixel)."""
    pts = lineitem_points(ray_session, sf_dir, limit=2000)
    n_pts = pts.count()
    tiles = ops.rasterize_points(pts, res_deg=5.0, tile_px=64).to_pandas()
    total = sum(
        np.frombuffer(b, np.uint8).astype(np.int64).sum() for b in tiles["bytes"]
    )
    assert total == n_pts  # every point binned exactly once


def test_tile_pyramid_level1_matches_direct_downsample(ray_session):
    """Level-1 pyramid tiles must equal a direct 2x box filter of the source
    image region (bit-exact: float mean then round), with zero fill past the
    image edge exactly like cut_tiles' padding."""
    import ray.data as rd

    from projcl_ray.images import decode_image, synth_images_table
    from projcl_ray.proj import ProjParams

    ds = rd.from_arrow(synth_images_table(4, seed=3, sizes=(128,)))
    tiles = ops.warp_and_tile(ds, "mercator", ProjParams(spheroid="WGS_84"),
                              tile_size=32, batch_size=4)
    pyr = ops.build_tile_pyramid(tiles, levels=2).to_pandas()
    assert set(pyr["level"]) == {0, 1, 2}
    l0 = pyr[pyr["level"] == 0]
    l1 = pyr[pyr["level"] == 1]
    # pick one image, reassemble level 0, downsample directly, compare level 1
    img_id = l0["image_id"].iloc[0]
    g0 = l0[l0["image_id"] == img_id]
    across = int(g0["tile_col"].max()) + 1
    down_ = int(g0["tile_row"].max()) + 1
    full = np.zeros((down_ * 32, across * 32, 4), np.float32)
    for _, r in g0.iterrows():
        full[r["tile_row"] * 32:(r["tile_row"] + 1) * 32,
             r["tile_col"] * 32:(r["tile_col"] + 1) * 32] = decode_image(
                 r["bytes"], 32, 32, "raw").astype(np.float32)
    for _, r in l1[l1["image_id"] == img_id].iterrows():
        y0, x0 = r["tile_row"] * 64, r["tile_col"] * 64
        region = np.zeros((64, 64, 4), np.float32)
        src = full[y0:y0 + 64, x0:x0 + 64]
        region[: src.shape[0], : src.shape[1]] = src
        exp = np.clip(np.floor(region.reshape(32, 2, 32, 2, 4).mean(axis=(1, 3)) + 0.5),
                      0, 255).astype(np.uint8)
        got = decode_image(r["bytes"], 32, 32, "raw")
        np.testing.assert_array_equal(got, exp)


def test_within_distance_join_exact_vs_brute(ray_session):
    """Cell-ring-pruned geofence must equal the brute all-pairs filter,
    including polar points and an empty-result radius."""
    import ray.data as rd

    from projcl_ray.geodesic import haversine_matrix

    rng = np.random.default_rng(17)
    qlon = rng.uniform(-170, 170, 200)
    qlat = np.concatenate([rng.uniform(-85, 85, 180), rng.uniform(85, 89.5, 20)])
    s_lon = rng.uniform(-180, 180, 300)
    s_lat = rng.uniform(-89, 89, 300)
    s_ids = np.arange(300)
    ds = rd.from_items(
        [{"qid": i, "lon": float(qlon[i]), "lat": float(qlat[i])} for i in range(200)]
    )
    for radius in (250_000.0, 5.0):
        out = ops.within_distance_join(ds, s_ids, s_lon, s_lat, radius).to_pandas()
        d = haversine_matrix(qlon, qlat, s_lon, s_lat)
        qi, si = np.nonzero(d <= radius)
        exp = {(int(q), int(s)) for q, s in zip(qi, si)}
        got = set() if not len(out) else {
            (int(q), int(s)) for q, s in zip(out["qid"], out["site_id"])
        }
        assert got == exp, radius


def test_within_distance_join_small_radius_across_pole(ray_session):
    """Round-2 advice repro: small radius (20 km), near-polar points on
    OPPOSITE longitudes — the old square cell ring dropped the far-side site
    because its longitude window never wrapped over the pole. The geodesic
    ball must keep it (and stay exact vs brute at both poles)."""
    import ray.data as rd

    from projcl_ray.geodesic import haversine_matrix

    qlon = np.array([0.0, -120.0, 30.0])
    qlat = np.array([89.95, -89.92, 89.7])
    rng = np.random.default_rng(5)
    s_lon = np.concatenate([[170.0, 60.0, -155.0], rng.uniform(-180, 180, 60)])
    s_lat = np.concatenate([[89.95, -89.9, 89.96], rng.uniform(88.0, 90.0, 30),
                            rng.uniform(-90.0, -88.0, 30)])
    s_ids = np.arange(len(s_lon))
    ds = rd.from_items(
        [{"qid": i, "lon": float(qlon[i]), "lat": float(qlat[i])} for i in range(len(qlon))]
    )
    out = ops.within_distance_join(ds, s_ids, s_lon, s_lat, 20_000.0).to_pandas()
    d = haversine_matrix(qlon, qlat, s_lon, s_lat)
    qi, si = np.nonzero(d <= 20_000.0)
    exp = {(int(q), int(s)) for q, s in zip(qi, si)}
    got = set() if not len(out) else {
        (int(q), int(s)) for q, s in zip(out["qid"], out["site_id"])
    }
    assert (0, 0) in exp  # the advice's 11 km over-the-pole pair is live
    assert got == exp


def test_knn_small_radius_polar_exact(ray_session, monkeypatch):
    """kNN, both plans, at tight resolutions near the poles: nearest
    neighbors reached over the pole (far longitude) must win — the
    partitioned plan's termination bound once shared the square-ring flaw."""
    import ray.data as rd

    from projcl_ray.spatial import knn_brute

    qlon = np.array([0.0, 10.0, -90.0])
    qlat = np.array([89.95, 89.9, -89.93])
    t_lon = np.array([170.0, -170.0, 90.0, 12.0, -88.0])
    t_lat = np.array([89.95, 89.9, -89.95, 89.2, -89.0])
    t_ids = np.arange(5)
    idx, exp = knn_brute(qlon, qlat, t_lon, t_lat, 2, order_key=t_ids)
    q_ds = rd.from_items(
        [{"qid": i, "lon": float(qlon[i]), "lat": float(qlat[i])} for i in range(3)]
    )
    out = ops.knn_join(q_ds, (t_ids, t_lon, t_lat), 2, id_col="qid", res_deg=0.5).to_pandas()
    got = out.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(got["neighbor_id"].to_numpy().reshape(-1, 2), t_ids[idx])
    np.testing.assert_allclose(got["distance_m"].to_numpy().reshape(-1, 2), exp, rtol=1e-12)

    t_ds = rd.from_items(
        [{"id": int(j), "lon": float(t_lon[j]), "lat": float(t_lat[j])} for j in range(5)]
    )
    monkeypatch.setattr(ops, "BROADCAST_MAX_BYTES", 0)
    out2 = ops.knn_join(q_ds, t_ds, 2, id_col="qid", res_deg=0.5).to_pandas()
    got2 = out2.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(got2["neighbor_id"].to_numpy().reshape(-1, 2), t_ids[idx])
    np.testing.assert_allclose(got2["distance_m"].to_numpy().reshape(-1, 2), exp, rtol=1e-12)


def test_value_hash_hashes_binary_columns():
    """The correctness gate's value_hash takes a bytes column (hashed by its
    hex; astype(str) raised UnicodeDecodeError on non-UTF-8 bytes) and
    hashes text columns as before."""
    import hashlib

    import pandas as pd

    from tools.check_correctness import value_hash

    blobs = pd.DataFrame({"k": [2, 1], "b": [b"\xff\x00", b"\x80abc"]})
    h = value_hash(blobs)
    assert h == value_hash(blobs.iloc[::-1])
    assert h != value_hash(pd.DataFrame({"k": [2, 1], "b": [b"\xff\x01", b"\x80abc"]}))
    text = pd.DataFrame({"s": ["b", "a", None]})
    assert value_hash(text) == hashlib.sha256("None\x1fa\x1fb".encode()).hexdigest()[:16]


def _group_stage(name: str):
    """One small run of each group stage, with groups that emit no rows:
    a polygon whose cells hold no points, a kNN cell with no targets."""
    import ray.data as rd

    from projcl_ray.images import encode_image
    from projcl_ray.index import cut_tiles

    pts = [{"pid": i, "lon": 10.0 + 0.3 * i, "lat": 20.0 + 0.2 * i} for i in range(20)]
    if name == "pip_join_partitioned":
        polys = [(f"p{j}", make_convex_polygon(lon, lat, 2.0, 6, seed=j))
                 for j, (lon, lat) in enumerate([(12.0, 22.0), (-120.0, -60.0)])]
        poly_ds = rd.from_items([{"poly_id": p, "vertices": v.ravel().tolist()} for p, v in polys])
        return ops.pip_join(rd.from_items(pts), poly_ds)
    if name == "knn_join_partitioned":
        queries = pts + [{"pid": 99, "lon": -150.0, "lat": -70.0}]  # its rings start empty
        targets = rd.from_items([{"id": j, "lon": 11.0 + j, "lat": 21.0} for j in range(6)])
        return ops.knn_join(rd.from_items(queries), targets, 2, id_col="pid", res_deg=10.0)
    if name == "rasterize_points":
        return ops.rasterize_points(rd.from_items(pts), res_deg=5.0, tile_px=16)
    images = synth_images_table(2, seed=4, sizes=(64,))
    if name == "build_tile_pyramid":
        tiles = ops.warp_and_tile(rd.from_arrow(images), "mercator", ProjParams(spheroid="WGS_84"),
                                  tile_size=32)
        return ops.build_tile_pyramid(tiles, levels=1)
    rows = [
        {"image_id": r["image_id"], "tile_col": tx, "tile_row": ty, "tile_size": 32,
         "bytes": encode_image(tile), "fmt": "raw", "w": r["w"], "h": r["h"],
         "lon0": r["lon0"], "lat0": r["lat0"], "px_deg": r["px_deg"]}
        for r in images.to_pylist()
        for tx, ty, _, tile in cut_tiles(decode_image(r["bytes"], r["w"], r["h"], r["fmt"]), 32)
    ]
    return ops.warp_tiled_mosaic(rd.from_items(rows), "mercator", ProjParams(spheroid="WGS_84"))


@pytest.mark.parametrize("name", ["knn_join_partitioned", "warp_tiled_mosaic",
                                  "build_tile_pyramid", "rasterize_points",
                                  "pip_join_partitioned"])
def test_group_stages_emit_one_arrow_schema(ray_session, monkeypatch, name):
    """Every batch a group stage emits carries one schema, without the
    pandas metadata a pandas UDF's output gains on its way back to Arrow
    (the source of Ray's "Failed to hash the schemas" and "different
    schema than the previous one" warnings)."""
    monkeypatch.setattr(ops, "BROADCAST_MAX_BYTES", 0)
    batches = list(_group_stage(name).iter_batches(batch_format="pyarrow", batch_size=None))
    assert batches and sum(b.num_rows for b in batches) > 0
    first = batches[0].schema
    for b in batches:
        assert b.schema.equals(first, check_metadata=True), (b.schema, first)
        assert b"pandas" not in (b.schema.metadata or {})
