"""Composed pipelines: the flagship warp→tile→cell→join flow and the
points-derivation helpers shared by `__ray_entry__.py` and `bench.py`.

The flagship pipeline (north_star): georeferenced images → decode/warp/
tile → cell assignment → cell-level aggregation + PIP join against a
polygon layer, streaming end-to-end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min

from . import ops, sources
from .images import synth_images_table
from .proj import ProjParams
from .spatial import make_convex_polygon


def derive_points(sf_dir: str, *, columns=("l_orderkey", "l_partkey")) -> rd.Dataset:
    """Deterministic lon/lat derivation from lineitem keys — the same
    arithmetic is reproduced verbatim in the SQL oracles, so every geospatial
    operator can be hash-checked against DuckDB (column-pruned read)."""
    ds = sources.read_table(f"{sf_dir}/lineitem.parquet", columns=list(columns))

    def derive(cols: dict) -> dict:
        ok = np.asarray(cols["l_orderkey"], np.float64)
        pk = np.asarray(cols["l_partkey"], np.float64)
        return {
            "lon": -60.0 + np.mod(ok * 7.0 + pk * 13.0, 1200.0) / 10.0,
            "lat": -40.0 + np.mod(ok * 11.0 + pk * 3.0, 1200.0) / 10.0,
        }

    return ops.map_columns(ds, derive, batch_size=None)


def nation_boxes(sf_dir: str) -> list[tuple[str, np.ndarray]]:
    """Deterministic rectangular polygon layer derived from the nation table
    (box per nation) — rectangles so the PIP join is range-expressible in the
    SQL oracle; convex/concave polygons are covered by pytest."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    out = []
    for nk, name in zip(tbl["n_nationkey"].to_pylist(), tbl["n_name"].to_pylist()):
        lon0 = -60.0 + (nk * 29.0) % 100.0
        lat0 = -40.0 + (nk * 17.0) % 100.0
        w = 6.0 + (nk % 5) * 2.0
        h = 5.0 + (nk % 7)
        box = np.array(
            [[lon0, lat0], [lon0 + w, lat0], [lon0 + w, lat0 + h], [lon0, lat0 + h]], float
        )
        out.append((str(name), box))
    return out


def synth_polygons(n: int = 64, seed: int = 42) -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    polys = []
    for j in range(n):
        c_lon = rng.uniform(-55, 55)
        c_lat = rng.uniform(-35, 75)
        polys.append((f"poly{j:04d}", make_convex_polygon(c_lon, c_lat, rng.uniform(0.5, 5.0), 5 + j % 8, seed=1000 + j)))
    return polys


def flagship(
    n_images: int = 64,
    *,
    proj_name: str = "transverse_mercator",
    spheroid: str = "WGS_84",
    tile_size: int = 64,
    filter: str = "bilinear",
    res_deg: float = 5.0,
    batch_size: int = 8,
    images_ds: rd.Dataset | None = None,
) -> rd.Dataset:
    """images → warp+tile → PIP join of tile centers against a
    polygon layer → per-cell aggregate (tile count, image count proxy, mean
    pixel stats). Returns the small cell-level result Dataset."""
    if images_ds is None:
        images_ds = rd.from_arrow(synth_images_table(n_images, seed=42))
    tiles = ops.warp_and_tile(
        images_ds,
        proj_name,
        ProjParams(spheroid=spheroid),
        tile_size=tile_size,
        filter=filter,
        res_deg=res_deg,
        batch_size=batch_size,
    )
    polys = synth_polygons(32)
    joined = ops.pip_join(tiles, polys, lon_col="center_lon", lat_col="center_lat")

    # pixel-free projection before the shuffle (SURVEY §7 'Wide binary rows')
    def strip_pixels(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["bytes"])

    slim = ops._map_blocks(joined, strip_pixels, batch_size=None)
    return slim.groupby("cell_id").aggregate(
        Count(alias_name="n_tiles"),
        Min("tile_idx", alias_name="min_tile_idx"),
        Max("tile_idx", alias_name="max_tile_idx"),
        Mean("center_lat", alias_name="mean_lat"),
    )


def flagship_partitioned(
    out_dir: str,
    n_images: int = 64,
    n_shards: int = 4,
    *,
    proj_name: str = "transverse_mercator",
    spheroid: str = "WGS_84",
    tile_size: int = 64,
    resume: bool = True,
) -> list[dict]:
    """The flagship warp→tile pipeline with per-partition checkpoint/resume
    (north-rule: resumable with per-partition lineage + metrics).

    The image corpus is split into ``n_shards`` deterministic shards; each
    shard streams independently through warp+tile into its own
    ``part=<shard>/`` parquet directory with a `_MANIFEST` record (rows, input
    lineage, wall time). A rerun skips completed shards; a crashed shard
    leaves no manifest and is rebuilt. Returns the manifest records written
    this run (empty = everything was already complete).
    """
    from . import checkpoint

    tbl = synth_images_table(n_images, seed=42)
    per = (n_images + n_shards - 1) // n_shards

    def build(key: str) -> rd.Dataset:
        s = int(key)
        shard = tbl.slice(s * per, per)
        ds = rd.from_arrow(shard)
        return ops.warp_and_tile(
            ds, proj_name, ProjParams(spheroid=spheroid), tile_size=tile_size, batch_size=8
        )

    return checkpoint.run_partitioned(
        [str(i) for i in range(n_shards)],
        build,
        out_dir,
        input_desc=lambda k: f"images[{int(k) * per}:{int(k) * per + per}] seed=42",
        resume=resume,
    )
