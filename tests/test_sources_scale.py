"""Sources/sinks, pre-aggregated counts, datum shift on grids."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from projcl_ray import ops, sources
from projcl_ray.datums import shift_datum
from projcl_ray.images import synth_images_table
from projcl_ray.index import cell_id
from projcl_ray.proj import ProjParams


def test_read_table_parquet_fallback(ray_session, sf_dir):
    import pyarrow.parquet as pq
    import ray

    ds = sources.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])
    assert ds.count() == 25
    assert [f.name for f in ds.schema().base_schema] == ["n_nationkey"]
    # the file's pandas schema metadata stops at the read
    assert b"pandas" in pq.read_schema(f"{sf_dir}/nation.parquet").metadata
    assert not ds.schema().base_schema.metadata
    for ref in ds.to_arrow_refs():
        assert not ray.get(ref).schema.metadata


def test_read_table_one_block_per_file_only_where_ray_would_split(ray_session, tmp_path):
    """With 4 CPUs Ray's default read asks for at least 8 blocks, and for
    one per MiB of decoded data: fewer files than CPUs keep that default
    (the split keeps every CPU busy); up to the default, each file is one
    block; more small files than the default keep Ray's grouping of
    several files per task."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    small = pa.table({"k": pa.array(range(40), pa.int64())})
    big = pa.table({"k": pa.array(range(150_000), pa.int64())})  # 1.14 MiB decoded
    for n, tbl, want in [(3, small, None), (4, small, 4), (8, small, 8), (9, small, None),
                         (10, big, 10)]:
        d = tmp_path / f"{n}-{tbl.num_rows}"
        d.mkdir()
        for k in range(n):
            pq.write_table(tbl, str(d / f"part-{k}.parquet"))
        files = list(pads.dataset(str(d), format="parquet").get_fragments())
        assert sources._one_block_per_file(files, tbl.schema) == want, (n, tbl.num_rows)
        assert sources.read_table(str(d)).count() == n * tbl.num_rows


def test_read_table_unifies_file_schemas(ray_session, tmp_path):
    """Each file is read into the files' unified schema, not the first
    file's: an all-null column and a narrower integer widen."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"id": pa.array([1], pa.int32()), "caption": pa.array([None])}),
                   str(tmp_path / "part-0.parquet"))
    pq.write_table(pa.table({"id": pa.array([2], pa.int64()), "caption": pa.array(["b"])}),
                   str(tmp_path / "part-1.parquet"))
    ds = sources.read_table(str(tmp_path))
    schema = ds.schema().base_schema
    assert (schema.field("id").type, schema.field("caption").type) == (pa.int64(), pa.string())
    assert sorted(ds.take_all(), key=lambda r: r["id"]) == [
        {"id": 1, "caption": None}, {"id": 2, "caption": "b"}]


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
    from projcl_ray.pipelines import derive_points

    ds = ops.assign_cells(derive_points(sf_dir))
    got = ops.cell_counts(ds)
    assert isinstance(got, pd.DataFrame)
    want = ds.groupby("cell_id").count().to_pandas().set_index("cell_id")["count()"]
    assert got.set_index("cell_id")["n"].sort_index().equals(want.sort_index().rename("n"))


def test_cell_counts_empty_dataset(ray_session):
    import ray.data as rd

    ds = rd.from_items([{"cell_id": 1}]).filter(expr="cell_id < 0")
    got = ops.cell_counts(ds)
    assert isinstance(got, pd.DataFrame)
    assert len(got) == 0
    assert list(got.columns) == ["cell_id", "n"]
    assert got["cell_id"].dtype == np.int64 and got["n"].dtype == np.int64


def test_cell_counts_merges_partials_across_blocks(ray_session):
    """A hot cell spread over many blocks and small batches yields one
    partial row per batch; the driver merge must sum them exactly."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    cells = np.concatenate([np.full(900, 7), rng.integers(0, 50, 600)])
    rng.shuffle(cells)
    ds = rd.from_numpy(cells.astype(np.int64)).rename_columns({"data": "cell_id"})
    got = ops.cell_counts(ds.repartition(6), batch_size=40)
    keys, counts = np.unique(cells, return_counts=True)
    got = got.sort_values("cell_id").reset_index(drop=True)
    np.testing.assert_array_equal(got["cell_id"].to_numpy(), keys)
    np.testing.assert_array_equal(got["n"].to_numpy(), counts)
    assert got["cell_id"].dtype == np.int64 and got["n"].dtype == np.int64


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


def test_geotiff_export_roundtrip_and_resume(ray_session, tmp_path):
    """write_geotiffs → ops.ingest_geotiff over the written files' blobs
    round-trips pixels bit-exactly and the georeference through the
    embedded tags; a second export run skips every already-written file
    (resumable file-per-image sink)."""
    import pyarrow as pa
    import ray.data as rd

    from projcl_ray.images import decode_image

    tbl = synth_images_table(6, seed=42)
    out = str(tmp_path / "geotiffs")
    man = sources.write_geotiffs(rd.from_arrow(tbl), out).to_pandas()
    assert len(man) == 6 and not man["skipped"].any()

    blobs = []
    for iid, path in zip(man["image_id"], man["path"]):
        with open(path, "rb") as f:
            blobs.append({"image_id": iid, "bytes": f.read()})
    back = ops.ingest_geotiff(rd.from_arrow(pa.Table.from_pylist(blobs)))
    back = back.to_pandas().sort_values("image_id")
    orig = tbl.to_pandas().sort_values("image_id")
    assert list(back["image_id"]) == list(orig["image_id"])
    for (_, b), (_, o) in zip(back.iterrows(), orig.iterrows()):
        np.testing.assert_array_equal(
            decode_image(b["bytes"], b["w"], b["h"], "raw"),
            decode_image(o["bytes"], o["w"], o["h"], "raw"))
        assert (b["lon0"], b["lat0"], b["px_deg"]) == (o["lon0"], o["lat0"], o["px_deg"])

    man2 = sources.write_geotiffs(rd.from_arrow(tbl), out).to_pandas()
    assert man2["skipped"].all()  # rerun touches nothing


@pytest.mark.parametrize("bad", ["../escaped", "abs"])
def test_geotiff_export_rejects_ids_that_leave_out_dir(ray_session, tmp_path, bad):
    """An image_id is a file name inside out_dir: a relative escape or an
    absolute path fails the export, and no file is written outside it."""
    import ray.data as rd

    if bad == "abs":
        bad = str(tmp_path / "abs")
    tbl = synth_images_table(3, seed=42)
    ids = tbl["image_id"].to_pylist()
    tbl = tbl.set_column(tbl.schema.get_field_index("image_id"), "image_id",
                         pa.array(ids[:1] + [bad] + ids[2:], pa.string()))
    out = tmp_path / "out"
    # Ray Data re-raises the stage's ValueError as a UserCodeException
    with pytest.raises(Exception, match="ValueError: write_geotiffs: "
                       "image_id .* is not a plain file name"):
        sources.write_geotiffs(rd.from_arrow(tbl), str(out)).materialize()
    written = [p for p in tmp_path.rglob("*")
               if p.suffix in (".tif", ".part") and out not in p.parents]
    assert written == []
