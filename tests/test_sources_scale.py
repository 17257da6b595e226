"""Sources/sinks, pre-aggregated counts, datum shift on grids."""

import numpy as np
import pytest

from projcl_ray import ops, sources
from projcl_ray.datums import shift_datum
from projcl_ray.images import synth_images_table
from projcl_ray.index import cell_id
from projcl_ray.proj import ProjParams


def test_read_table_parquet_fallback(ray_session, sf_dir):
    ds = sources.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])
    assert ds.count() == 25
    assert [f.name for f in ds.schema().base_schema] == ["n_nationkey"]


def test_read_images_roundtrip(ray_session, tmp_path):
    import ray.data as rd

    tbl = synth_images_table(10, seed=42)
    rd.from_arrow(tbl).write_parquet(str(tmp_path / "imgs"))
    ds = sources.read_images(str(tmp_path / "imgs"))
    assert ds.count() == 10
    assert "lon0" in [f.name for f in ds.schema().base_schema]


def test_write_and_read_tile_buckets(ray_session, tmp_path):
    import os

    import ray.data as rd

    tiles = ops.warp_and_tile(
        rd.from_arrow(synth_images_table(12, seed=42)).repartition(3),
        "mercator", ProjParams(spheroid="WGS_84"), tile_size=64, batch_size=4,
    ).materialize()
    out = str(tmp_path / "tiles")
    sources.write_tiles(tiles, out, n_buckets=8)
    # one file per write task (at most one per block), no bucket directories
    files = os.listdir(out)
    assert all(f.endswith(".parquet") for f in files)
    assert 1 <= len(files) <= tiles.num_blocks()
    pdf = rd.read_parquet(out).to_pandas()
    assert len(pdf) == tiles.count() >= 12
    assert (pdf["bucket"] == pdf["cell_id"] % 8).all()
    # bucket pruning returns exactly the rows of the wanted cells' buckets
    some_cells = pdf["cell_id"].unique()[:2]
    pruned = sources.read_tile_buckets(out, np.asarray(some_cells), n_buckets=8).to_pandas()
    want = pdf[pdf["bucket"].isin({int(c) % 8 for c in some_cells})]
    key = ["image_id", "tile_idx"]
    assert len(pruned) == len(want)
    assert pruned.sort_values(key).reset_index(drop=True).equals(
        want.sort_values(key).reset_index(drop=True))
    # a query matching no bucket is empty but keeps the sink's schema
    missing = sorted(set(range(8)) - set(pdf["bucket"]))
    for cells in ([missing[0]] if missing else [], []):
        empty = sources.read_tile_buckets(out, np.asarray(cells, np.int64), n_buckets=8)
        assert empty.count() == 0
        assert empty.schema().names == list(pdf.columns)


def test_cell_counts_matches_groupby(ray_session, sf_dir):
    import ray.data as rd

    from projcl_ray.pipelines import derive_points

    ds = ops.assign_cells(derive_points(sf_dir))
    # driver-merge mode returns pandas directly; shuffle mode returns a Dataset
    fast = ops.cell_counts(ds, driver_merge=True).set_index("cell_id")["n"]
    dist = ops.cell_counts(ds, driver_merge=False).to_pandas().set_index("cell_id")["n"]
    slow = ds.groupby("cell_id").count().to_pandas().set_index("cell_id")["count()"]
    assert fast.sort_index().equals(slow.sort_index().rename("n"))
    assert dist.sort_index().equals(slow.sort_index().rename("n"))
    # auto mode: cell-grained key stays a driver merge (DataFrame)…
    auto = ops.cell_counts(ds)
    assert not isinstance(auto, rd.Dataset)
    assert auto.set_index("cell_id")["n"].sort_index().equals(
        slow.sort_index().rename("n"))
    # …but a key finer than the cap auto-flips to the distributed merge
    # (Dataset), with identical counts — no docstring threshold involved
    fine = ops.cell_counts(ds, key_col="l_orderkey", auto_cap=50)
    assert isinstance(fine, rd.Dataset)
    got = fine.to_pandas().set_index("l_orderkey")["n"]
    want = (ds.groupby("l_orderkey").count().to_pandas()
            .set_index("l_orderkey")["count()"].rename("n"))
    assert got.sort_index().equals(want.sort_index())


def test_datum_shift_on_grids():
    """pl_shift_grid_datum parity: the fused shift applies to grid-shaped
    arrays unchanged (same function, meshgrid input — SURVEY §2.4)."""
    gx, gy = np.meshgrid(np.linspace(-10, 10, 21), np.linspace(40, 55, 16))
    lon2, lat2 = shift_datum(gx, gy, "WGS_84", "NAD_27")
    assert lon2.shape == gx.shape == lat2.shape
    # equals the flat computation reshaped
    lf, pf = shift_datum(gx.ravel(), gy.ravel(), "WGS_84", "NAD_27")
    np.testing.assert_array_equal(lon2, lf.reshape(gx.shape))
    np.testing.assert_array_equal(lat2, pf.reshape(gy.shape))


def test_exact_quantiles_matches_numpy(ray_session, sf_dir):
    import pyarrow.parquet as pq
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    got = ops.exact_quantiles(ds, "l_extendedprice", [0.0, 0.5, 0.95, 1.0])
    vals = np.sort(pq.read_table(f"{sf_dir}/lineitem.parquet",
                                 columns=["l_extendedprice"])["l_extendedprice"].to_numpy())
    n = len(vals)
    for q, v in got.items():
        idx = min(max(int(np.ceil(q * n)) - 1, 0), n - 1)
        assert v == vals[idx], (q, v, vals[idx])


def test_extract_json_field(ray_session, sf_dir):
    import json

    import pyarrow.parquet as pq
    import ray.data as rd

    from projcl_ray.text import extract_json_field

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    out = extract_json_field(ds, "k").to_pandas().sort_values("event_id")
    exp = pq.read_table(f"{sf_dir}/events.parquet", columns=["event_id", "props"]).to_pandas()
    exp = exp.sort_values("event_id")
    np.testing.assert_array_equal(
        out["k"].to_numpy(), [json.loads(p)["k"] for p in exp["props"]]
    )
    # malformed JSON → null, not an exception
    bad = rd.from_items([{"props": "{not json"}, {"props": '{"k": 7}'}])
    got = extract_json_field(bad, "k").to_pandas()
    assert got["k"].isna().sum() == 1 and got["k"].dropna().iloc[0] == 7
    # batch-parse hazards: null rows, alignment-shifting fragments ("1,2"
    # splits into extra array elements when rows join into one JSON doc),
    # non-dict documents, and the string-typed output path
    import pandas as pd

    tricky = rd.from_pandas(pd.DataFrame({"props": pd.array(
        [None, "1,2", '{"k": "x"}', "42", '{"k": 3}'], dtype="string")}))
    tk = extract_json_field(tricky, "k").to_pandas()["k"]
    assert list(tk.isna()) == [True, True, False, True, False]
    assert tk.iloc[2] == "x" and tk.iloc[4] == "3"  # string path: str(v)
    # count-preserving misalignment: row 0's unterminated string would absorb
    # row 1 in the joined-array parse while row 1's comma splits it back into
    # the right element COUNT — only the structural screen catches the shift
    # (the per-row contract is [null, null, 2])
    shifty = rd.from_items([
        {"props": '"abc'}, {"props": 'x", {"k": 1}'}, {"props": '{"k": 2}'},
    ])
    sk = extract_json_field(shifty, "k").to_pandas()["k"]
    assert list(sk.isna()) == [True, True, False] and sk.iloc[2] == 2
    # same via unclosed brackets instead of strings
    shifty2 = rd.from_items([
        {"props": '{"k": [1'}, {"props": '2], "k": 9}'}, {"props": '{"k": 5}'},
    ])
    s2 = extract_json_field(shifty2, "k").to_pandas()["k"]
    assert list(s2.isna()) == [True, True, False] and s2.iloc[2] == 5


def test_semi_anti_join_keys(ray_session, sf_dir):
    import pyarrow.parquet as pq
    import ray.data as rd

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    all_keys = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])["c_custkey"].to_numpy()
    some = all_keys[: len(all_keys) // 3]
    semi = ops.semi_join_keys(cust, some, "c_custkey").to_pandas()
    anti = ops.semi_join_keys(cust, some, "c_custkey", anti=True).to_pandas()
    assert set(semi["c_custkey"]) == set(some)
    assert set(anti["c_custkey"]) == set(all_keys) - set(some)
    assert len(semi) + len(anti) == len(all_keys)


def test_deterministic_sample_properties(ray_session, sf_dir):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey"])
    n_total = ds.count()
    a = ops.deterministic_sample(ds, "o_orderkey", 0.2, seed=1).to_pandas()
    b = ops.deterministic_sample(ds, "o_orderkey", 0.2, seed=1).to_pandas()
    c = ops.deterministic_sample(ds, "o_orderkey", 0.2, seed=2).to_pandas()
    assert set(a["o_orderkey"]) == set(b["o_orderkey"])  # stable across runs
    assert set(a["o_orderkey"]) != set(c["o_orderkey"])  # seed changes the split
    assert 0.1 * n_total < len(a) < 0.3 * n_total  # ~fraction
    # fraction monotonicity: a 10% sample is a subset of the 20% sample
    small = ops.deterministic_sample(ds, "o_orderkey", 0.1, seed=1).to_pandas()
    assert set(small["o_orderkey"]) <= set(a["o_orderkey"])


def test_geotiff_export_roundtrip_and_resume(ray_session, tmp_path):
    """write_geotiffs → read_geotiffs round-trips pixels bit-exactly and the
    georeference through the embedded tags; a second export run skips every
    already-written file (resumable file-per-image sink)."""
    import numpy as np
    import ray.data as rd

    from projcl_ray import sources
    from projcl_ray.images import decode_image, synth_images_table

    tbl = synth_images_table(6, seed=42)
    out = str(tmp_path / "geotiffs")
    man = sources.write_geotiffs(rd.from_arrow(tbl), out).to_pandas()
    assert len(man) == 6 and not man["skipped"].any()

    back = sources.read_geotiffs(out).to_pandas().sort_values("image_id")
    orig = tbl.to_pandas().sort_values("image_id")
    assert list(back["image_id"]) == list(orig["image_id"])
    for (_, b), (_, o) in zip(back.iterrows(), orig.iterrows()):
        np.testing.assert_array_equal(
            decode_image(b["bytes"], b["w"], b["h"], "raw"),
            decode_image(o["bytes"], o["w"], o["h"], "raw"))
        assert (b["lon0"], b["lat0"], b["px_deg"]) == (o["lon0"], o["lat0"], o["px_deg"])

    man2 = sources.write_geotiffs(rd.from_arrow(tbl), out).to_pandas()
    assert man2["skipped"].all()  # rerun touches nothing
