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


def test_point_chain_bit_identical_to_kernels(ray_session, sf_dir):
    import pyarrow.parquet as pq

    from projcl_ray import datums, pipelines

    ds = pipelines.derive_points(sf_dir)
    ds = ops.project_points(ds, "transverse_mercator", spheroid="WGS_84")
    ds = ops.project_points(ds, "transverse_mercator", spheroid="WGS_84", inverse=True,
                            lon_col="lon2", lat_col="lat2")
    ds = ops.shift_datum(ds, "WGS_84", "NAD_27", out_lon="lon_n27", out_lat="lat_n27")
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


def test_warp_and_tile_actor_pool(ray_session):
    import ray.data as rd

    tbl = synth_images_table(12, seed=42)
    ds = rd.from_arrow(tbl)
    tiles = ops.warp_and_tile(
        ds, "mercator", ProjParams(spheroid="WGS_84"),
        tile_size=64, batch_size=4, concurrency=2,
    )
    df = tiles.to_pandas()
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
    out = ops.knn_join(ds, t_ids, t_lon, t_lat, k=3).to_pandas()
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


def test_salt_hot_keys(ray_session, sf_dir):
    ds = ops.assign_cells(lineitem_points(ray_session, sf_dir, limit=3000), res_deg=30.0)
    counts = ds.groupby("cell_id").count().to_pandas()
    hot = {int(r["cell_id"]): 4 for _, r in counts.iterrows() if r["count()"] > 500}
    if not hot:
        pytest.skip("no hot cells at this scale")
    salted = ops.salt_hot_keys(ds, "cell_id", hot, hash_col="point_id").to_pandas()
    fan = salted.groupby("cell_id")["salted_key"].nunique()
    for cid, n in fan.items():
        assert n == (4 if cid in hot else 1)


def test_knn_pruned_matches_brute_dense_and_sparse(ray_session, sf_dir):
    """Ring-of-cells pruning (the 100 TB path) must be EXACT vs brute force —
    dense targets (pruning wins big) and sparse targets (rings must keep
    expanding until the distance bound closes)."""
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
        out = ops.knn_join(ds, t_ids, t_lon, t_lat, k=4, prune_res_deg=res).to_pandas()
        got = (
            out.drop_duplicates(["lon", "lat", "neighbor_rank"])
            .sort_values(["lon", "lat", "neighbor_rank"]).reset_index(drop=True)
        )
        _, exp = knn_brute(pdf["lon"].to_numpy(), pdf["lat"].to_numpy(), t_lon, t_lat, 4)
        np.testing.assert_allclose(
            got["distance_m"].to_numpy().reshape(-1, 4), exp, rtol=1e-12,
            err_msg=f"m={m} res={res}",
        )


def test_pip_join_large_matches_broadcast(ray_session, sf_dir):
    """The cell-equi-join path (large polygon layers) must produce exactly the
    broadcast path's (point, polygon) pairs."""
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
    lg = ops.pip_join_large(ds, poly_ds, res_deg=5.0).to_pandas()
    key = lambda df: set(zip(df["lon"].round(9), df["lat"].round(9), df["poly_id"]))
    assert key(lg) == key(bc)
    assert len(lg) == len(bc)


def test_warp_and_tile_actor_mode_matches_task_mode(ray_session):
    """use_actors=True (explicit actor pool) must produce exactly the same
    tiles as the default task mode — the two execution modes share the worker
    body and differ only in state placement."""
    import ray.data as rd

    tbl = synth_images_table(8, seed=42)
    kw = dict(tile_size=64, batch_size=4)
    task = ops.warp_and_tile(rd.from_arrow(tbl), "mercator", ProjParams(spheroid="WGS_84"),
                             **kw).to_pandas()
    actor = ops.warp_and_tile(rd.from_arrow(tbl), "mercator", ProjParams(spheroid="WGS_84"),
                              use_actors=True, concurrency=2, **kw).to_pandas()
    t = task.sort_values(["image_id", "tile_idx"]).reset_index(drop=True)
    a = actor.sort_values(["image_id", "tile_idx"]).reset_index(drop=True)
    assert len(t) == len(a)
    assert (t["cell_id"] == a["cell_id"]).all()
    assert all(tb == ab for tb, ab in zip(t["bytes"], a["bytes"]))  # bit-identical pixels


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
    out = ops.knn_join(ds, t_ids, t_lon, t_lat, k=3, prune_res_deg=10.0).to_pandas()
    assert int(out.groupby("qid")["neighbor_id"].nunique().min()) == 3  # no dup ranks
    got = out.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
    idx, exp = knn_brute(qlon, qlat, t_lon, t_lat, 3, order_key=t_ids)
    np.testing.assert_allclose(got["distance_m"].to_numpy().reshape(-1, 3), exp, rtol=1e-12)
    np.testing.assert_array_equal(got["neighbor_id"].to_numpy().reshape(-1, 3), t_ids[idx])


def test_knn_tie_breaks_by_target_id(ray_session):
    """Duplicate target locations must rank by id (SQL ORDER BY dist, id) in
    both the brute and pruned paths — derived supplier coords repeat with
    period 1200, so exact ties are real at larger scale factors."""
    import ray.data as rd

    t_lon = np.array([10.0, 10.0, 10.0, 50.0])
    t_lat = np.array([20.0, 20.0, 20.0, 60.0])
    t_ids = np.array([7, 3, 5, 1])
    ds = rd.from_items([{"qid": 0, "lon": 10.5, "lat": 20.5}])
    for res in (None, 10.0):
        out = ops.knn_join(ds, t_ids, t_lon, t_lat, k=3, prune_res_deg=res).to_pandas()
        got = out.sort_values("neighbor_rank")["neighbor_id"].tolist()
        assert got == [3, 5, 7], (res, got)


def test_knn_join_large_matches_brute(ray_session):
    """Dataset×dataset kNN (nothing broadcast) must be exact vs brute force —
    dense targets (one round) and sparse targets (multi-round ring growth,
    including a query whose first rings hold zero targets)."""
    import ray.data as rd

    from projcl_ray.spatial import knn_brute

    rng = np.random.default_rng(21)
    qlon = np.concatenate([rng.uniform(-60, 60, 60), [170.0]])  # far outlier query
    qlat = np.concatenate([rng.uniform(-40, 80, 60), [-85.0]])
    q_ds = rd.from_items(
        [{"qid": i, "lon": float(qlon[i]), "lat": float(qlat[i])} for i in range(len(qlon))]
    )
    for m in (2000, 12):  # dense / sparse
        t_lon = rng.uniform(-60, 60, m)
        t_lat = rng.uniform(-40, 80, m)
        t_ds = rd.from_items(
            [{"tid": int(j), "lon": float(t_lon[j]), "lat": float(t_lat[j])} for j in range(m)]
        )
        out = ops.knn_join_large(
            q_ds, t_ds, k=3, query_id_col="qid", target_id_col="tid", res_deg=10.0
        ).to_pandas()
        assert len(out) == len(qlon) * 3, m
        got = out.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
        idx, exp = knn_brute(qlon, qlat, t_lon, t_lat, 3, order_key=np.arange(m))
        np.testing.assert_allclose(
            got["distance_m"].to_numpy().reshape(-1, 3), exp, rtol=1e-12, err_msg=f"m={m}"
        )
        np.testing.assert_array_equal(got["tid"].to_numpy().reshape(-1, 3), idx)


def test_distributed_quantiles_exact(ray_session, sf_dir):
    """Bracket-refinement quantiles must equal the driver-concat exact path
    bit-for-bit — including on heavily duplicated (skewed) values where one
    bracket holds most of the column."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    qs = [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0]
    assert ops.distributed_quantiles(ds, "l_extendedprice", qs) == ops.exact_quantiles(
        ds, "l_extendedprice", qs, driver_concat=True
    )

    rng = np.random.default_rng(5)
    skew = np.concatenate([np.full(40_000, 7.0), rng.uniform(0, 1, 500), [1e9]])
    rng.shuffle(skew)
    sk = rd.from_arrow(pa.table({"v": pa.array(skew)}))
    got = ops.distributed_quantiles(sk, "v", qs, n_splits=16, max_collect=1000)
    exp = ops.exact_quantiles(sk, "v", qs, driver_concat=True)
    assert got == exp


def test_bloom_semi_join_no_false_negatives(ray_session, sf_dir):
    """Bloom pre-filter: every true member passes (zero false negatives),
    false-positive rate near the requested bound, anti+bloom rejected."""
    import ray.data as rd

    from projcl_ray.ops import BloomFilter

    rng = np.random.default_rng(3)
    members = rng.choice(1_000_000, 20_000, replace=False)
    bf = BloomFilter(len(members), fpr=0.01).add(members)
    assert bf.might_contain(members).all()  # no false negatives, ever
    non = np.setdiff1d(rng.choice(4_000_000, 100_000, replace=False) + 1_000_000, members)
    fpr = bf.might_contain(non).mean()
    assert fpr < 0.02, fpr

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    keys = orders.to_pandas()["o_custkey"].unique()
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    exact = ops.semi_join_keys(cust, keys, "c_custkey").count()
    bloom = ops.semi_join_keys(cust, keys, "c_custkey", bloom_fpr=0.01).count()
    assert bloom >= exact  # superset: no true row dropped
    assert bloom <= exact + int(0.02 * cust.count()) + 1
    with pytest.raises(ValueError):
        ops.semi_join_keys(cust, keys, "c_custkey", anti=True, bloom_fpr=0.01)


def test_resize_images_shapes_and_filters(ray_session):
    """Resize stage: exact output shape, all four filters run, identity-size
    bilinear resize is a no-op on the pixels, passthrough columns survive."""
    import ray.data as rd

    from projcl_ray.images import decode_image, synth_images_table

    ds = rd.from_arrow(synth_images_table(6, seed=1))
    for filt in ("nearest", "bilinear", "bicubic", "quasi_bicubic"):
        out = ops.resize_images(ds, 32, 24, filter=filt).to_pandas()
        assert (out["w"] == 32).all() and (out["h"] == 24).all()
        img = decode_image(out["bytes"].iloc[0], 32, 24, "raw")
        assert img.shape == (24, 32, 4)
        assert "caption" in out.columns  # passthrough preserved
    # identity resize (same size, bilinear) must reproduce the source pixels
    src = synth_images_table(1, seed=2)
    w, h = src["w"][0].as_py(), src["h"][0].as_py()
    out = ops.resize_images(rd.from_arrow(src), w, h).to_pandas()
    np.testing.assert_array_equal(
        decode_image(out["bytes"].iloc[0], w, h, "raw"),
        decode_image(src["bytes"][0].as_py(), w, h, "raw"),
    )


def test_topk_per_group_combiner_matches_pandas(ray_session, sf_dir):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderpriority", "o_orderkey", "o_totalprice"])
    got = ops.topk_per_group(ds, "o_orderpriority", "o_totalprice", 5,
                             tie_col="o_orderkey").to_pandas()
    pdf = ds.to_pandas().sort_values(["o_totalprice", "o_orderkey"],
                                     ascending=[False, True], kind="stable")
    exp = pdf.groupby("o_orderpriority", sort=False).head(5)
    key = ["o_orderpriority", "o_orderkey"]
    assert sorted(map(tuple, got[key].to_numpy())) == sorted(map(tuple, exp[key].to_numpy()))
    assert (got.sort_values(["o_orderpriority", "group_rank"])
               .groupby("o_orderpriority")["o_totalprice"]
               .apply(lambda s: (s.diff().dropna() <= 0).all()).all())


def test_asof_join_matches_pandas(ray_session, sf_dir):
    """Bounded-group as-of join must equal a global pandas merge_asof."""
    import pandas as pd
    import ray.data as rd

    from ray.data.aggregate import Sum

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "event_type", "value"])
    left = ev.filter(expr="event_type == 'purchase'").drop_columns(["event_type"])
    right = (ev.filter(expr="event_type == 'click'")
             .groupby(["user_id", "ts"]).aggregate(Sum("value", alias_name="cv")))
    got = ops.asof_join(left, right, on="ts", by="user_id").to_pandas()

    lp = left.to_pandas().sort_values("ts", kind="stable")
    rp = right.to_pandas().sort_values("ts", kind="stable")
    rp["ts_ref"] = rp["ts"]
    exp = pd.merge_asof(lp, rp[["user_id", "ts", "ts_ref", "cv"]],
                        on="ts", by="user_id", direction="backward")
    exp = exp[exp["ts_ref"].notna()]
    g = got.sort_values("event_id").reset_index(drop=True)
    e = exp.sort_values("event_id").reset_index(drop=True)
    assert (g["event_id"].to_numpy() == e["event_id"].to_numpy()).all()
    assert (g["ts_ref"].to_numpy() == e["ts_ref"].to_numpy()).all()
    np.testing.assert_allclose(g["cv"].to_numpy(), e["cv"].to_numpy())


def test_asof_join_preserves_right_dtypes(ray_session):
    """Right value columns must keep their EXACT dtypes through the join:
    int64 beyond 2^53 (would corrupt through a float64 cast) and string
    features (previously rejected by the float64 union trick)."""
    import ray.data as rd

    big = (1 << 60) + 12345  # not representable in float64
    left = rd.from_items([
        {"user_id": 1, "ts": 10.0, "eid": 1},
        {"user_id": 1, "ts": 30.0, "eid": 2},
        {"user_id": 2, "ts": 5.0, "eid": 3},   # no earlier right row → drops
    ])
    right = rd.from_items([
        {"user_id": 1, "ts": 8.0, "big_feature": big, "tag": "alpha"},
        {"user_id": 1, "ts": 20.0, "big_feature": big + 1, "tag": "beta"},
        {"user_id": 2, "ts": 9.0, "big_feature": 7, "tag": "gamma"},
    ])
    out = ops.asof_join(left, right, on="ts", by="user_id", n_parts=4).to_pandas()
    out = out.sort_values("eid").reset_index(drop=True)
    assert out["eid"].tolist() == [1, 2]
    assert out["big_feature"].dtype == np.int64
    assert out["big_feature"].tolist() == [big, big + 1]  # bit-exact int64
    assert out["tag"].tolist() == ["alpha", "beta"]
    assert out["ts_ref"].tolist() == [8.0, 20.0]


def test_range_join_boundaries(ray_session):
    """[lo, hi) boundary semantics: lo included, hi excluded, gaps dropped,
    overlapping intervals rejected."""
    import ray.data as rd

    ds = rd.from_items([{"v": x} for x in (0.0, 9.999, 10.0, 19.999, 20.0, 25.0, 30.0, -1.0)])
    iv = [("a", 0.0, 10.0), ("b", 10.0, 20.0), ("c", 25.0, 30.0)]  # gap [20,25)
    out = ops.range_join(ds, iv, "v").to_pandas().sort_values("v")
    assert list(zip(out["v"], out["interval_id"])) == [
        (0.0, "a"), (9.999, "a"), (10.0, "b"), (19.999, "b"), (25.0, "c")
    ]
    with pytest.raises(ValueError):
        ops.range_join(ds, [("a", 0.0, 10.0), ("b", 5.0, 20.0)], "v").to_pandas()


def test_rasterize_and_vectorize_roundtrip(ray_session, sf_dir):
    """Vector→raster tiles sum to the input point count (no clip at test
    scale per cell-pixel) and raster→vector features match direct numpy."""
    import ray.data as rd

    pts = lineitem_points(ray_session, sf_dir, limit=2000)
    n_pts = pts.count()
    tiles = ops.rasterize_points(pts, res_deg=5.0, tile_px=64).to_pandas()
    total = sum(
        np.frombuffer(b, np.uint8).astype(np.int64).sum() for b in tiles["bytes"]
    )
    assert total == n_pts  # every point binned exactly once
    feats = ops.vectorize_tiles(rd.from_pandas(tiles)).to_pandas()
    assert len(feats) == len(tiles)
    t0 = tiles.iloc[0]
    a = np.frombuffer(t0["bytes"], np.uint8).reshape(64, 64).astype(np.float64)
    f0 = feats[feats["cell_id"] == t0["cell_id"]].iloc[0]
    assert abs(f0["mean_value"] - a.mean()) < 1e-12
    assert abs(f0["coverage"] - (a > 0).mean()) < 1e-12
    assert abs(f0["p95_value"] - np.quantile(a, 0.95)) < 1e-12


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


def test_knn_small_radius_polar_exact(ray_session):
    """kNN pruned path + dataset×dataset path at tight resolutions near the
    poles: nearest neighbors reached over the pole (far longitude) must win —
    the knn_join_large termination bound shared the square-ring flaw."""
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
    out = ops.knn_join(q_ds, t_ids, t_lon, t_lat, k=2, prune_res_deg=0.5).to_pandas()
    got = out.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(got["neighbor_id"].to_numpy().reshape(-1, 2), t_ids[idx])
    np.testing.assert_allclose(got["distance_m"].to_numpy().reshape(-1, 2), exp, rtol=1e-12)

    t_ds = rd.from_items(
        [{"tid": int(j), "lon": float(t_lon[j]), "lat": float(t_lat[j])} for j in range(5)]
    )
    out2 = ops.knn_join_large(
        q_ds, t_ds, k=2, query_id_col="qid", target_id_col="tid", res_deg=0.5
    ).to_pandas()
    got2 = out2.sort_values(["qid", "neighbor_rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(got2["tid"].to_numpy().reshape(-1, 2), t_ids[idx])
    np.testing.assert_allclose(got2["distance_m"].to_numpy().reshape(-1, 2), exp, rtol=1e-12)


def test_hll_accuracy_and_merge(ray_session, sf_dir):
    """HLL estimate within 3σ (σ = 1.04/√m) of the exact distinct count at
    several cardinalities, and per-batch register merging must equal a
    single-batch sketch (mergeability)."""
    import ray.data as rd

    rng = np.random.default_rng(1)
    for true_n in (50, 1000, 20000):
        keys = rng.choice(10_000_000, true_n, replace=False)
        dup = np.concatenate([keys, keys[: true_n // 2]])
        rng.shuffle(dup)
        ds = rd.from_arrow(pa.table({"k": pa.array(dup)}))
        est = ops.approx_count_distinct(ds, "k", p=6)
        sigma = 1.04 / np.sqrt(64)
        assert abs(est - true_n) <= 3 * sigma * true_n + 3, (true_n, est)
    # mergeability: many small blocks vs one block give the identical estimate
    ds1 = rd.from_arrow(pa.table({"k": pa.array(keys)}))
    ds2 = ds1.repartition(16)
    assert ops.approx_count_distinct(ds1, "k") == ops.approx_count_distinct(ds2, "k")


def test_hll_matches_exact_on_orders(ray_session, sf_dir):
    import pyarrow.parquet as pq
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    exact = len(np.unique(pq.read_table(f"{sf_dir}/orders.parquet",
                                        columns=["o_custkey"])["o_custkey"].to_numpy()))
    est = ops.approx_count_distinct(ds, "o_custkey", p=6)
    assert abs(est - exact) <= 3 * (1.04 / 8) * exact + 3
