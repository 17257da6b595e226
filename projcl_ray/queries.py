"""The correctness-gate query suite: every operator from SURVEY §2 (plus the
north-rule/data-pipeline additions) as a (Ray pipeline, DuckDB oracle SQL)
pair over the driver's testdata tables.

Conventions that make hash-compare robust:
- geographic inputs are DERIVED deterministically from table keys with
  arithmetic reproduced verbatim in the SQL (exact in float64 — integers,
  fmod, /10);
- float outputs are quantized at the reference's own tolerance before compare:
  projected meters → floor(x) (ref guarantees 10 m), degrees →
  floor(x·1e4 + 0.5) ≈ 10 m (ref guarantees 1 arc-sec ≈ 30 m). This absorbs
  ≤1-ulp libm differences between NumPy and DuckDB; everything else is
  integer/string exact;
- SUMS of 2-decimal source values (prices, quantities) are integer-valued, so
  plain floor(sum) sits on a knife edge that summation ORDER can flip — all
  money/quantity sums quantize as cents: floor(x·100 + 0.5);
- every computed column carries the same name in the Ray result and the SQL.

Host-precomputed projection constants are inlined into the SQL as full-
precision literals (repr round-trips through DuckDB's parser to the same
double), mirroring how the reference folds them into kernel args.
"""

from __future__ import annotations

import math
import os
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Count, Min

from . import ops, sources
from .datums import concat_shift_matrix, DATUM_SPHEROID
from .geodesic import SPHERE_RADIUS, haversine, vincenty_inverse
from .index import DEFAULT_RES_DEG
from .pipelines import derive_points, flagship, nation_boxes
from .proj import ProjParams, prepare
from .proj.base import msfn, qsfn, tsfn
from .proj.robinson import _X, _Y, C1, RC1, FXC, FYC, NODES
from .spheroid import get_spheroid

R = SPHERE_RADIUS
A_WGS = get_spheroid("WGS_84").major_axis
E_WGS = get_spheroid("WGS_84").ecc

# --- shared SQL fragments ---------------------------------------------------

LON_SQL = "(-60.0 + fmod(l_orderkey*7.0 + l_partkey*13.0, 1200.0)/10.0)"
LAT_SQL = "(-40.0 + fmod(l_orderkey*11.0 + l_partkey*3.0, 1200.0)/10.0)"
PTS_SQL = f"SELECT l_orderkey, l_partkey, {LON_SQL} AS lon, {LAT_SQL} AS lat FROM lineitem"


def _asinh(t: str) -> str:
    return f"ln(({t}) + sqrt(({t})*({t}) + 1.0))"


def _atanh(t: str) -> str:
    return f"(0.5*ln((1.0+({t}))/(1.0-({t}))))"


def _sinh(t: str) -> str:
    return f"((exp({t}) - exp(-({t})))/2.0)"


def _quant_df(df: pd.DataFrame, spec: dict[str, float]) -> pd.DataFrame:
    for col, scale in spec.items():
        v = df[col].to_numpy(np.float64) * scale
        if scale > 1.0:  # degree-valued lattice outputs: round-to-nearest
            v = v + 0.5
        df[col] = np.floor(v).astype(np.int64)
    return df


def _hav_sql(lon1, lat1, lon2, lat2, radius=R):
    return (
        f"2.0*{radius!r}*asin(least(sqrt("
        f"sin(radians(({lat2})-({lat1}))/2.0)*sin(radians(({lat2})-({lat1}))/2.0)"
        f"+ cos(radians({lat1}))*cos(radians({lat2}))"
        f"*sin(radians(({lon2})-({lon1}))/2.0)*sin(radians(({lon2})-({lon1}))/2.0)), 1.0))"
    )


# --- query registry ---------------------------------------------------------

QUERIES: dict[str, callable] = {}
ORACLES: dict[str, str] = {}


def q(name: str, oracle: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if oracle is not None:
            ORACLES[name] = oracle
        return fn

    return deco


# ---------------------------------------------------------------------------
# Forward projections (oracle-checked, floor-to-meter outputs)
# ---------------------------------------------------------------------------


def _proj_query(proj_name: str, **param_kw):
    def run(sf_dir: str):
        ds = ops.project_points(derive_points(sf_dir), proj_name, **param_kw)
        df = ds.select_columns(["l_orderkey", "l_partkey", "x", "y"]).to_pandas()
        df = _quant_df(df, {"x": 1.0, "y": 1.0})
        return df.rename(columns={"x": "x_m", "y": "y_m"})

    return run


QUERIES["project_mercator_sphere_fwd"] = _proj_query("mercator", spheroid="SPHERE")
ORACLES["project_mercator_sphere_fwd"] = f"""
SELECT l_orderkey, l_partkey,
  CAST(floor({R!r} * radians(lon)) AS BIGINT) AS x_m,
  CAST(floor({R!r} * {_asinh('tan(radians(lat))')}) AS BIGINT) AS y_m
FROM ({PTS_SQL})
"""

QUERIES["project_mercator_ell_fwd"] = _proj_query("mercator", spheroid="WGS_84")
ORACLES["project_mercator_ell_fwd"] = f"""
SELECT l_orderkey, l_partkey,
  CAST(floor({A_WGS!r} * radians(lon)) AS BIGINT) AS x_m,
  CAST(floor({A_WGS!r} * ({_asinh('tan(radians(lat))')} - {E_WGS!r}*{_atanh(f'{E_WGS!r}*sin(radians(lat))')})) AS BIGINT) AS y_m
FROM ({PTS_SQL})
"""

QUERIES["project_tmerc_sphere_fwd"] = _proj_query("transverse_mercator", spheroid="SPHERE")
_k_tm_s = get_spheroid("SPHERE").krueger_A * R
ORACLES["project_tmerc_sphere_fwd"] = f"""
SELECT l_orderkey, l_partkey,
  CAST(floor({_k_tm_s!r} * {_asinh('sin(radians(lon))/sqrt(tan(radians(lat))*tan(radians(lat)) + cos(radians(lon))*cos(radians(lon)))')}) AS BIGINT) AS x_m,
  CAST(floor({_k_tm_s!r} * atan2(tan(radians(lat)), cos(radians(lon)))) AS BIGINT) AS y_m
FROM ({PTS_SQL})
"""


def _lcc_sphere_consts(rlat1=30.0, rlat2=60.0, lat0=0.0):
    phi1, phi2_, phi0 = map(math.radians, (rlat1, rlat2, lat0))
    n = math.log(math.cos(phi1) / math.cos(phi2_)) / (
        math.asinh(math.tan(phi2_)) - math.asinh(math.tan(phi1))
    )
    c = math.cos(phi1) * math.tan(math.pi / 4 + 0.5 * phi1) ** n / n
    rho0 = c * math.tan(math.pi / 4 + 0.5 * phi0) ** (-n)
    return n, c, rho0


QUERIES["project_lcc_sphere_fwd"] = _proj_query(
    "lambert_conformal_conic", spheroid="SPHERE", rlat1=30, rlat2=60
)
_n, _c, _rho0 = _lcc_sphere_consts()
ORACLES["project_lcc_sphere_fwd"] = f"""
WITH p AS ({PTS_SQL}),
r AS (SELECT l_orderkey, l_partkey, radians(lon) AS lam,
      {_c!r} * exp(-{_n!r} * {_asinh('tan(radians(lat))')}) AS rho FROM p)
SELECT l_orderkey, l_partkey,
  CAST(floor({R!r} * rho * sin(lam * {_n!r})) AS BIGINT) AS x_m,
  CAST(floor({R!r} * ({_rho0!r} - rho * cos(lam * {_n!r}))) AS BIGINT) AS y_m
FROM r
"""


def _albers_sphere_consts(rlat1=30.0, rlat2=60.0, lat0=0.0):
    phi1, phi2_, phi0 = map(math.radians, (rlat1, rlat2, lat0))
    n = 0.5 * (math.sin(phi1) + math.sin(phi2_))
    c = 1.0 + math.sin(phi2_) * math.sin(phi1)
    rho0 = math.sqrt(c - 2.0 * n * math.sin(phi0))
    return n, c, rho0


QUERIES["project_albers_sphere_fwd"] = _proj_query(
    "albers_equal_area", spheroid="SPHERE", rlat1=30, rlat2=60
)
_an, _ac, _arho0 = _albers_sphere_consts()
ORACLES["project_albers_sphere_fwd"] = f"""
WITH p AS ({PTS_SQL}),
r AS (SELECT l_orderkey, l_partkey, radians(lon) AS lam,
      sqrt({_ac!r} - 2.0*{_an!r}*sin(radians(lat))) AS rho FROM p)
SELECT l_orderkey, l_partkey,
  CAST(floor({R / _an!r} * rho * sin(lam * {_an!r})) AS BIGINT) AS x_m,
  CAST(floor({R / _an!r} * ({_arho0!r} - rho * cos(lam * {_an!r}))) AS BIGINT) AS y_m
FROM r
"""

QUERIES["project_laea_sphere_fwd"] = _proj_query("lambert_azimuthal_equal_area", spheroid="SPHERE")
ORACLES["project_laea_sphere_fwd"] = f"""
WITH p AS ({PTS_SQL}),
r AS (SELECT l_orderkey, l_partkey, radians(lon) AS lam, radians(lat) AS phi,
      sqrt(2.0/(1.0 + cos(radians(lat))*cos(radians(lon)))) AS b FROM p)
SELECT l_orderkey, l_partkey,
  CAST(floor({R!r} * b * cos(phi) * sin(lam)) AS BIGINT) AS x_m,
  CAST(floor({R!r} * b * sin(phi)) AS BIGINT) AS y_m
FROM r
"""

QUERIES["project_winkel_fwd"] = _proj_query("winkel_tripel", spheroid="SPHERE")
_cosphi1 = 2.0 / math.pi
ORACLES["project_winkel_fwd"] = f"""
WITH p AS ({PTS_SQL}),
r AS (SELECT l_orderkey, l_partkey, radians(lon)/2.0 AS lam2, radians(lat) AS phi,
      acos(greatest(least(cos(radians(lat))*cos(radians(lon)/2.0), 1.0), -1.0)) AS d,
      cos(radians(lat))*cos(radians(lon)/2.0) AS cosd FROM p),
s AS (SELECT *, CASE WHEN d = 0.0 THEN 1.0 ELSE d / sqrt(1.0 - cosd*cosd) END AS dsin FROM r)
SELECT l_orderkey, l_partkey,
  CAST(floor({R!r} * (lam2 * {_cosphi1!r} + dsin * cos(phi) * sin(lam2))) AS BIGINT) AS x_m,
  CAST(floor({R!r} * 0.5 * (phi + dsin * sin(phi))) AS BIGINT) AS y_m
FROM s
"""

QUERIES["project_polyconic_sphere_fwd"] = _proj_query("american_polyconic", spheroid="SPHERE", lat0=10.0)
_phi0_poly = math.radians(10.0)
ORACLES["project_polyconic_sphere_fwd"] = f"""
WITH p AS ({PTS_SQL}),
r AS (SELECT l_orderkey, l_partkey, radians(lon) AS lam, radians(lat) AS phi,
      sin(radians(lat)) AS sp, cos(radians(lat)) AS cp FROM p)
SELECT l_orderkey, l_partkey,
  CAST(floor({R!r} * (CASE WHEN abs(sp) < 1e-12 THEN lam
        ELSE cp/sp * sin(lam*sp) END)) AS BIGINT) AS x_m,
  CAST(floor({R!r} * (CASE WHEN abs(sp) < 1e-12 THEN phi - {_phi0_poly!r}
        ELSE phi - {_phi0_poly!r} + cp/sp * sin(lam*sp) * tan(0.5*lam*sp) END)) AS BIGINT) AS y_m
FROM r
"""


def _stereo_consts(lat0=10.0, lon0=0.0):
    info = get_spheroid("WGS_84")
    p = prepare("oblique_stereographic", spheroid="WGS_84", lat0=lat0, lon0=lon0)
    # recompute the inlined constants exactly as the prep does
    phi0 = math.radians(lat0)
    sin0, cos0 = math.sin(phi0), math.cos(phi0)
    scale_r2 = 2.0 * info.major_axis * math.sqrt(info.one_ecc2) / (1.0 - info.ecc2 * sin0 * sin0)
    c0 = math.sqrt(1.0 + info.ecc2 * cos0**4 / info.one_ecc2)
    phiC0 = math.asin(sin0 / c0)
    k0 = math.tan(0.5 * phiC0 + math.pi / 4) / (
        math.tan(0.5 * phi0 + math.pi / 4) ** c0
        * ((1.0 - info.ecc * sin0) / (1.0 + info.ecc * sin0)) ** (0.5 * c0 * info.ecc)
    )
    return scale_r2, c0, math.log(k0), math.sin(phiC0), math.cos(phiC0)


QUERIES["project_stereographic_fwd"] = _proj_query("oblique_stereographic", spheroid="WGS_84", lat0=10.0)
_sr2, _sc0, _slogk0, _ssin, _scos = _stereo_consts()
ORACLES["project_stereographic_fwd"] = f"""
WITH p AS ({PTS_SQL}),
conf AS (SELECT l_orderkey, l_partkey, {_sc0!r} * radians(lon) AS lam,
  atan({_sinh(f"{_slogk0!r} + {_sc0!r}*({_asinh('tan(radians(lat))')} - {E_WGS!r}*{_atanh(f'{E_WGS!r}*sin(radians(lat))')})")}) AS phi
  FROM p),
k AS (SELECT *, {_sr2!r} / (1.0 + {_ssin!r}*sin(phi) + {_scos!r}*cos(phi)*cos(lam)) AS kf FROM conf)
SELECT l_orderkey, l_partkey,
  CAST(floor(kf * cos(phi) * sin(lam)) AS BIGINT) AS x_m,
  CAST(floor(kf * ({_scos!r}*sin(phi) - {_ssin!r}*cos(phi)*cos(lam))) AS BIGINT) AS y_m
FROM k
"""


def _robinson_case(table: np.ndarray, z_expr: str, idx_expr: str) -> str:
    branches = []
    for i in range(NODES + 1):
        c = table[i]
        poly = f"({c[0]!r} + {z_expr}*({c[1]!r} + {z_expr}*({c[2]!r} + {z_expr}*{c[3]!r})))"
        branches.append(f"WHEN {idx_expr} = {i} THEN {poly}")
    return "CASE " + " ".join(branches) + " ELSE NULL END"


QUERIES["project_robinson_fwd"] = _proj_query("robinson", spheroid="SPHERE")
_rob_idx = f"least(CAST(floor(abs(radians(lat)) * {C1!r}) AS BIGINT), {NODES - 1})"
_rob_z = f"degrees(abs(radians(lat)) - {RC1!r} * ({_rob_idx}))"
ORACLES["project_robinson_fwd"] = f"""
WITH p AS ({PTS_SQL}),
r AS (SELECT l_orderkey, l_partkey, radians(lon) AS lam, lat,
      {_rob_idx} AS idx, {_rob_z} AS z FROM p)
SELECT l_orderkey, l_partkey,
  CAST(floor({R!r} * ({_robinson_case(_X, 'z', 'idx')}) * {FXC!r} * lam) AS BIGINT) AS x_m,
  CAST(floor({R!r} * (CASE WHEN lat < 0 THEN -1.0 ELSE 1.0 END)
       * abs(({_robinson_case(_Y, 'z', 'idx')}) * {FYC!r})) AS BIGINT) AS y_m
FROM r
"""


# --- inverse projection round-trip (oracle: identity at 1e-4° quantization) --


_IDENTITY_SQL = f"""
SELECT l_orderkey, l_partkey,
  CAST(floor(lon * 10000.0 + 0.5) AS BIGINT) AS lon_q,
  CAST(floor(lat * 10000.0 + 0.5) AS BIGINT) AS lat_q
FROM ({PTS_SQL})
"""


def _roundtrip_query(proj_name: str, **param_kw):
    """Forward→inverse round trip vs the identity oracle: the derived lons
    are exact 1e-4-degree lattice points, so round-to-nearest quantization
    tolerates any inverse-iteration residual below 5e-5° (Newton/fixed-point
    inverses converge to ~1e-12°). One such query per projection puts every
    INVERSE kernel under the driver gate, not just pytest."""

    def run(sf_dir: str):
        ds = ops.project_points(derive_points(sf_dir), proj_name, **param_kw)
        ds = ops.project_points(ds, proj_name, inverse=True,
                                lon_col="lon_rt", lat_col="lat_rt", **param_kw)
        df = ds.select_columns(["l_orderkey", "l_partkey", "lon_rt", "lat_rt"]).to_pandas()
        df = _quant_df(df, {"lon_rt": 1e4, "lat_rt": 1e4})
        return df.rename(columns={"lon_rt": "lon_q", "lat_rt": "lat_q"})

    return run


for _name, _proj, _kw in (
    ("project_tmerc_sphere_roundtrip", "transverse_mercator", dict(spheroid="WGS_84")),
    ("project_mercator_ell_roundtrip", "mercator", dict(spheroid="WGS_84")),
    ("project_lcc_ell_roundtrip", "lambert_conformal_conic",
     dict(spheroid="WGS_84", rlat1=30, rlat2=60)),
    ("project_albers_ell_roundtrip", "albers_equal_area",
     dict(spheroid="WGS_84", rlat1=30, rlat2=60)),
    ("project_laea_ell_roundtrip", "lambert_azimuthal_equal_area", dict(spheroid="WGS_84")),
    ("project_polyconic_ell_roundtrip", "american_polyconic",
     dict(spheroid="WGS_84", lat0=10.0)),
    ("project_winkel_roundtrip", "winkel_tripel", dict(spheroid="SPHERE")),
    ("project_robinson_roundtrip", "robinson", dict(spheroid="SPHERE")),
    ("project_stereographic_roundtrip", "oblique_stereographic",
     dict(spheroid="WGS_84", lat0=10.0)),
):
    QUERIES[_name] = _roundtrip_query(_proj, **_kw)
    ORACLES[_name] = _IDENTITY_SQL


# ---------------------------------------------------------------------------
# Datum shift (oracle: full 3-stage Helmert in SQL with inlined fused matrix)
# ---------------------------------------------------------------------------


def _datum_oracle(src: str, dst: str) -> str:
    m = concat_shift_matrix(src, dst)
    s_sph = get_spheroid(DATUM_SPHEROID.get(src, "WGS_84"))
    d_sph = get_spheroid(DATUM_SPHEROID.get(dst, "WGS_84"))
    return f"""
WITH p AS ({PTS_SQL}),
g AS (SELECT l_orderkey, l_partkey,
    {s_sph.major_axis!r}/sqrt(1.0 - {s_sph.ecc2!r}*sin(radians(lat))*sin(radians(lat))) AS r,
    radians(lon) AS lam, radians(lat) AS phi FROM p),
xyz AS (SELECT l_orderkey, l_partkey,
    r*cos(phi)*cos(lam) AS X, r*cos(phi)*sin(lam) AS Y, r*{s_sph.one_ecc2!r}*sin(phi) AS Z FROM g),
t AS (SELECT l_orderkey, l_partkey,
    {m[0,0]!r}*X + {m[0,1]!r}*Y + {m[0,2]!r}*Z + {m[0,3]!r} AS X2,
    {m[1,0]!r}*X + {m[1,1]!r}*Y + {m[1,2]!r}*Z + {m[1,3]!r} AS Y2,
    {m[2,0]!r}*X + {m[2,1]!r}*Y + {m[2,2]!r}*Z + {m[2,3]!r} AS Z2 FROM xyz),
b AS (SELECT l_orderkey, l_partkey, X2, Y2, Z2,
    sqrt(X2*X2 + Y2*Y2) AS W, Z2*1.0026 AS T0,
    sqrt(Z2*1.0026*Z2*1.0026 + X2*X2 + Y2*Y2) AS S0 FROM t),
f AS (SELECT l_orderkey, l_partkey,
    degrees(atan2(Y2, X2)) AS lon2,
    degrees(atan2(Z2 + {d_sph.minor_axis!r}*{d_sph.ecc2!r}/{d_sph.one_ecc2!r}*(T0/S0)*(T0/S0)*(T0/S0),
                  W - {d_sph.major_axis!r}*{d_sph.ecc2!r}*(W/S0)*(W/S0)*(W/S0))) AS lat2 FROM b)
SELECT l_orderkey, l_partkey,
  CAST(floor(lon2 * 10000.0 + 0.5) AS BIGINT) AS lon_q,
  CAST(floor(lat2 * 10000.0 + 0.5) AS BIGINT) AS lat_q
FROM f
"""


@q("datum_shift_wgs84_nad27", _datum_oracle("WGS_84", "NAD_27"))
def q_datum_shift(sf_dir: str):
    ds = ops.shift_datum(derive_points(sf_dir), "WGS_84", "NAD_27",
                         out_lon="lon2", out_lat="lat2")
    df = ds.select_columns(["l_orderkey", "l_partkey", "lon2", "lat2"]).to_pandas()
    df = _quant_df(df, {"lon2": 1e4, "lat2": 1e4})
    return df.rename(columns={"lon2": "lon_q", "lat2": "lat_q"})


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

CUST_PT = (
    "SELECT c_custkey, "
    "(-60.0 + fmod(c_custkey*7.0 + c_nationkey*13.0, 1200.0)/10.0) AS lon, "
    "(-40.0 + fmod(c_custkey*11.0 + c_nationkey*3.0, 1200.0)/10.0) AS lat FROM customer"
)
SUPP_PT = (
    "SELECT s_suppkey, "
    "(-60.0 + fmod(s_suppkey*31.0, 1200.0)/10.0) AS lon, "
    "(-40.0 + fmod(s_suppkey*37.0, 1200.0)/10.0) AS lat FROM supplier"
)


def _customer_points(sf_dir: str) -> rd.Dataset:
    ds = sources.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def derive(cols: dict) -> dict:
        ck = np.asarray(cols["c_custkey"], np.float64)
        nk = np.asarray(cols["c_nationkey"], np.float64)
        return {
            "lon": -60.0 + np.mod(ck * 7.0 + nk * 13.0, 1200.0) / 10.0,
            "lat": -40.0 + np.mod(ck * 11.0 + nk * 3.0, 1200.0) / 10.0,
        }

    return ops.map_columns(ds, derive, batch_size=None)


def _merged_blocks(ds: rd.Dataset, rows: int = 32 * 1024) -> rd.Dataset:
    """``ds`` in ``rows``-row batches, Ray's ``batch_size`` merging small
    blocks: a one-file table read at more CPUs than files splits into two
    blocks per CPU. Unmerged, the ring-pruned joins' per-cell candidate
    loops run once per cell in every block, and every block reaches a
    shuffle as its own map task."""
    return ds.map_batches(lambda t: t, batch_format="pyarrow", batch_size=rows)


def _supplier_points(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey"])
    sk = np.asarray(t["s_suppkey"], np.float64)
    return (
        t["s_suppkey"].to_numpy(),
        -60.0 + np.mod(sk * 31.0, 1200.0) / 10.0,
        -40.0 + np.mod(sk * 37.0, 1200.0) / 10.0,
    )


@q(
    "geodesic_haversine_pairs",
    f"""
WITH p AS ({PTS_SQL}),
p2 AS (SELECT l_orderkey, l_partkey, lon, lat,
  (-60.0 + fmod(l_orderkey*13.0 + l_partkey*7.0, 1200.0)/10.0) AS lon2,
  (-40.0 + fmod(l_orderkey*3.0 + l_partkey*11.0, 1200.0)/10.0) AS lat2 FROM p)
SELECT l_orderkey, l_partkey,
  CAST(floor({_hav_sql('lon', 'lat', 'lon2', 'lat2')}) AS BIGINT) AS dist_m
FROM p2
""",
)
def q_haversine_pairs(sf_dir: str):
    ds = derive_points(sf_dir)

    def second_point(cols: dict) -> dict:
        ok = np.asarray(cols["l_orderkey"], np.float64)
        pk = np.asarray(cols["l_partkey"], np.float64)
        return {
            "lon2": -60.0 + np.mod(ok * 13.0 + pk * 7.0, 1200.0) / 10.0,
            "lat2": -40.0 + np.mod(ok * 3.0 + pk * 11.0, 1200.0) / 10.0,
        }

    ds = ops.map_columns(ds, second_point, batch_size=None)
    ds = ops.geodesic_distance(ds, lon1="lon", lat1="lat", lon2="lon2", lat2="lat2",
                               out="dist", method="sphere")
    df = ds.select_columns(["l_orderkey", "l_partkey", "dist"]).to_pandas()
    df = _quant_df(df, {"dist": 1.0})
    return df.rename(columns={"dist": "dist_m"})


@q(
    "geodesic_distance_matrix",
    f"""
WITH c AS ({CUST_PT}), s AS ({SUPP_PT})
SELECT c.c_custkey, s.s_suppkey,
  CAST(floor({_hav_sql('c.lon', 'c.lat', 's.lon', 's.lat')}) AS BIGINT) AS dist_m
FROM c CROSS JOIN s
""",
)
def q_distance_matrix(sf_dir: str):
    """The reference's many-to-many distance table (pl_inverse_geodesic_s):
    small side broadcast, one row per (customer, supplier) pair."""
    cust = _customer_points(sf_dir)
    s_ids, s_lon, s_lat = _supplier_points(sf_dir)

    def cross(batch: pa.Table) -> pa.Table:
        n, m = batch.num_rows, len(s_ids)
        d = haversine(
            batch["lon"].to_numpy()[:, None], batch["lat"].to_numpy()[:, None],
            s_lon[None, :], s_lat[None, :],
        )
        return pa.table({
            "c_custkey": batch["c_custkey"].take(pa.array(np.repeat(np.arange(n), m))),
            "s_suppkey": pa.array(np.tile(s_ids, n)),
            "dist_m": pa.array(np.floor(d.ravel()).astype(np.int64)),
        })

    return cust.map_batches(cross, batch_format="pyarrow")


@q(
    "forward_geodesic_sphere",
    f"""
WITH c AS ({CUST_PT}),
az(azimuth_deg) AS (VALUES (0.0), (90.0), (180.0), (270.0)),
x AS (SELECT c.*, az.azimuth_deg,
  {500000.0 / R!r} AS dr, radians(az.azimuth_deg) AS azr,
  sin(radians(lat)) AS sp, cos(radians(lat)) AS cp FROM c CROSS JOIN az),
o AS (SELECT c_custkey, azimuth_deg,
  asin(least(greatest(sp*cos(dr) + cp*sin(dr)*cos(azr), -1.0), 1.0)) AS phi2,
  radians(lon) + atan2(sin(dr)*sin(azr), cp*cos(dr) - sp*sin(dr)*cos(azr)) AS lam2 FROM x)
SELECT c_custkey, azimuth_deg,
  CAST(floor(degrees(CASE WHEN abs(lam2) > pi() THEN lam2 - 2.0*pi()*sign(lam2) ELSE lam2 END) * 10000.0 + 0.5) AS BIGINT) AS lon2_q,
  CAST(floor(degrees(phi2) * 10000.0 + 0.5) AS BIGINT) AS lat2_q
FROM o
""",
)
def q_forward_geodesic(sf_dir: str):
    ds = ops.forward_geodesic(_customer_points(sf_dir), [0.0, 90.0, 180.0, 270.0], 500000.0)
    df = ds.select_columns(["c_custkey", "azimuth_deg", "lon2", "lat2"]).to_pandas()
    df = _quant_df(df, {"lon2": 1e4, "lat2": 1e4})
    return df.rename(columns={"lon2": "lon2_q", "lat2": "lat2_q"})


def _vincenty_oracle_sql(n_iter: int = 10) -> str:
    """Vincenty's inverse problem unrolled as generated SQL: the λ fixed-point
    iteration contracts by ~f·sinα ≈ 3e-3 per step, so ``n_iter=10`` is far
    past double-precision convergence for the non-antipodal test corpus (max
    separation ≈ 140°). Guards (sin σ = 0 coincident points, cos²α = 0
    equatorial geodesics) mirror geodesic.vincenty_inverse exactly."""
    info = get_spheroid("WGS_84")
    a, b = info.major_axis, info.minor_axis
    f = info.flattening
    parts = [
        f"WITH c AS ({CUST_PT}), s AS ({SUPP_PT}),",
        "p AS (SELECT c.c_custkey, s.s_suppkey,"
        " radians(c.lon) AS lam1, radians(c.lat) AS phi1,"
        " radians(s.lon) AS lam2, radians(s.lat) AS phi2 FROM c CROSS JOIN s),",
        f"q0 AS (SELECT c_custkey, s_suppkey, lam2 - lam1 AS L,"
        f" (1.0 - {f!r})*tan(phi1) AS tU1, (1.0 - {f!r})*tan(phi2) AS tU2 FROM p),",
        "q1 AS (SELECT *, 1.0/sqrt(1.0 + tU1*tU1) AS cU1, 1.0/sqrt(1.0 + tU2*tU2) AS cU2 FROM q0),",
        "it0 AS (SELECT c_custkey, s_suppkey, L, cU1, cU2, tU1*cU1 AS sU1, tU2*cU2 AS sU2,"
        " L AS lam FROM q1),",
    ]
    trig = (
        "x{i} AS (SELECT c_custkey, s_suppkey, L, cU1, cU2, sU1, sU2, lam,"
        " sin(lam) AS sl, cos(lam) AS cl FROM it{p}),"
        " y{i} AS (SELECT *, sqrt((cU2*sl)*(cU2*sl)"
        " + (cU1*sU2 - sU1*cU2*cl)*(cU1*sU2 - sU1*cU2*cl)) AS ss,"
        " sU1*sU2 + cU1*cU2*cl AS cs FROM x{i}),"
        " z{i} AS (SELECT *, atan2(ss, cs) AS sig,"
        " CASE WHEN ss = 0.0 THEN 0.0 ELSE cU1*cU2*sl/ss END AS sa FROM y{i}),"
        " w{i} AS (SELECT *, 1.0 - sa*sa AS c2a FROM z{i}),"
        " v{i} AS (SELECT *, CASE WHEN c2a = 0.0 THEN 0.0"
        " ELSE cs - 2.0*sU1*sU2/c2a END AS c2m,"
        " {F}/16.0*c2a*(4.0 + {F}*(4.0 - 3.0*c2a)) AS cf FROM w{i}),"
    )
    for i in range(1, n_iter + 1):
        parts.append(trig.format(i=i, p=i - 1, F=repr(f)))
        parts.append(
            f"it{i} AS (SELECT c_custkey, s_suppkey, L, cU1, cU2, sU1, sU2,"
            f" L + (1.0-cf)*{f!r}*sa*(sig + cf*ss*(c2m + cf*cs*(-1.0 + 2.0*c2m*c2m))) AS lam"
            f" FROM v{i}),"
        )
    n = n_iter + 1  # one more trig pass on the converged lam for the output
    parts.append(trig.format(i=n, p=n - 1, F=repr(f)))
    parts.append(
        f"f1 AS (SELECT *, c2a*{a * a - b * b!r}/{b * b!r} AS uu FROM v{n}),"
        " f2 AS (SELECT *, 1.0 + uu/16384.0*(4096.0 + uu*(-768.0 + uu*(320.0 - 175.0*uu))) AS fA,"
        " uu/1024.0*(256.0 + uu*(-128.0 + uu*(74.0 - 47.0*uu))) AS fB FROM f1),"
        " f3 AS (SELECT *, fB*ss*(c2m + 0.25*fB*(cs*(-1.0 + 2.0*c2m*c2m)"
        " - fB/6.0*c2m*(-3.0 + 4.0*ss*ss)*(-3.0 + 4.0*c2m*c2m))) AS dsig FROM f2),"
        f" f4 AS (SELECT c_custkey, s_suppkey, {b!r}*fA*(sig - dsig) AS dist,"
        " degrees(atan2(cU2*sl, cU1*sU2 - sU1*cU2*cl)) AS a1 FROM f3)"
        " SELECT c_custkey, s_suppkey, CAST(floor(dist) AS BIGINT) AS dist_m,"
        " CAST(floor((CASE WHEN a1 < 0.0 THEN a1 + 360.0 ELSE a1 END) * 10000.0 + 0.5)"
        " AS BIGINT) AS azi1_q FROM f4"
    )
    return "\n".join(parts)


def _vincenty_direct_oracle_sql(dist_m: float, n_iter: int = 8) -> str:
    """Vincenty's DIRECT problem unrolled as SQL (σ fixed-point iteration,
    contraction ≈ B ≈ 2e-3/step): gates geodesic.vincenty_direct itself, not
    just round-trips. Four azimuths × customer points at a fixed distance."""
    info = get_spheroid("WGS_84")
    a, b = info.major_axis, info.minor_axis
    f = info.flattening
    parts = [
        f"WITH c AS ({CUST_PT}),",
        "az(azimuth_deg) AS (VALUES (30.0), (120.0), (210.0), (300.0)),",
        "p AS (SELECT c.c_custkey, az.azimuth_deg, radians(c.lon) AS lam1,"
        " radians(c.lat) AS phi1, radians(az.azimuth_deg) AS alp1 FROM c CROSS JOIN az),",
        f"q0 AS (SELECT *, sin(alp1) AS sa1, cos(alp1) AS ca1,"
        f" (1.0 - {f!r})*tan(phi1) AS tU1 FROM p),",
        "q1 AS (SELECT *, 1.0/sqrt(1.0 + tU1*tU1) AS cU1 FROM q0),",
        "q2 AS (SELECT *, tU1*cU1 AS sU1, atan2(tU1, ca1) AS sig1, cU1*sa1 AS salp FROM q1),",
        f"q3 AS (SELECT *, 1.0 - salp*salp AS c2a FROM q2),",
        f"q4 AS (SELECT *, c2a*{a * a - b * b!r}/{b * b!r} AS uu FROM q3),",
        "q5 AS (SELECT *, 1.0 + uu/16384.0*(4096.0 + uu*(-768.0 + uu*(320.0 - 175.0*uu))) AS fA,"
        " uu/1024.0*(256.0 + uu*(-128.0 + uu*(74.0 - 47.0*uu))) AS fB FROM q4),",
        f"it0 AS (SELECT *, {dist_m!r}/({b!r}*fA) AS sig FROM q5),",
    ]
    for i in range(1, n_iter + 1):
        parts.append(
            f"x{i} AS (SELECT *, cos(2.0*sig1 + sig) AS c2m,"
            f" sin(sig) AS ss, cos(sig) AS cs FROM it{i - 1}),"
            f" it{i} AS (SELECT * EXCLUDE (sig, c2m, ss, cs),"
            f" {dist_m!r}/({b!r}*fA) + fB*ss*(c2m + 0.25*fB*(cs*(-1.0 + 2.0*c2m*c2m)"
            f" - fB/6.0*c2m*(-3.0 + 4.0*ss*ss)*(-3.0 + 4.0*c2m*c2m))) AS sig FROM x{i}),"
        )
    parts.append(
        f"fin AS (SELECT *, sin(sig) AS ss, cos(sig) AS cs, cos(2.0*sig1 + sig) AS c2m"
        f" FROM it{n_iter}),"
        " f1 AS (SELECT *, sU1*ss - cU1*cs*ca1 AS tmp FROM fin),"
        f" f2 AS (SELECT *, atan2(sU1*cs + cU1*ss*ca1,"
        f" (1.0 - {f!r})*sqrt(salp*salp + tmp*tmp)) AS phi2,"
        " atan2(ss*sa1, cU1*cs - sU1*ss*ca1) AS lam,"
        f" {f!r}/16.0*c2a*(4.0 + {f!r}*(4.0 - 3.0*c2a)) AS cc FROM f1),"
        f" f3 AS (SELECT *, lam - (1.0-cc)*{f!r}*salp*(sig + cc*ss*(c2m"
        " + cc*cs*(-1.0 + 2.0*c2m*c2m))) AS LL FROM f2),"
        " f4 AS (SELECT c_custkey, azimuth_deg, phi2, lam1 + LL AS lam2 FROM f3)"
        " SELECT c_custkey, azimuth_deg,"
        " CAST(floor(degrees(CASE WHEN abs(lam2) > pi() THEN lam2 - 2.0*pi()*sign(lam2)"
        " ELSE lam2 END) * 10000.0 + 0.5) AS BIGINT) AS lon2_q,"
        " CAST(floor(degrees(phi2) * 10000.0 + 0.5) AS BIGINT) AS lat2_q"
        " FROM f4"
    )
    return "\n".join(parts)


@q("forward_geodesic_vincenty", _vincenty_direct_oracle_sql(2_000_000.0))
def q_forward_vincenty(sf_dir: str):
    """Ellipsoidal fixed-distance fan-out (the reference's commented-out
    pl_forward_geodesic_e, kernel/pl_geodesic.opencl:139-209) vs the unrolled
    direct-problem SQL."""
    ds = ops.forward_geodesic(_customer_points(sf_dir), [30.0, 120.0, 210.0, 300.0],
                              2_000_000.0, method="vincenty", spheroid="WGS_84")
    df = ds.select_columns(["c_custkey", "azimuth_deg", "lon2", "lat2"]).to_pandas()
    df = _quant_df(df, {"lon2": 1e4, "lat2": 1e4})
    return df.rename(columns={"lon2": "lon2_q", "lat2": "lat2_q"})


@q("vincenty_inverse_matrix", _vincenty_oracle_sql())
def q_vincenty_matrix(sf_dir: str):
    cust = _customer_points(sf_dir)
    s_ids, s_lon, s_lat = _supplier_points(sf_dir)

    def cross(batch: pa.Table) -> pa.Table:
        n, m = batch.num_rows, len(s_ids)
        d, a12, a21 = vincenty_inverse(
            batch["lon"].to_numpy()[:, None], batch["lat"].to_numpy()[:, None],
            s_lon[None, :], s_lat[None, :],
        )
        return pa.table({
            "c_custkey": batch["c_custkey"].take(pa.array(np.repeat(np.arange(n), m))),
            "s_suppkey": pa.array(np.tile(s_ids, n)),
            "dist_m": pa.array(np.floor(d.ravel()).astype(np.int64)),
            "azi1_q": pa.array(np.floor(a12.ravel() * 1e4 + 0.5).astype(np.int64)),
        })

    return cust.map_batches(cross, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Cells, PIP join, kNN
# ---------------------------------------------------------------------------

CELL_SQL = (
    f"(CAST(least(greatest(floor((lat + 90.0)/{DEFAULT_RES_DEG!r}), 0.0), {180/DEFAULT_RES_DEG - 1:.1f}) AS BIGINT) * {int(360/DEFAULT_RES_DEG)}"
    f" + CAST(least(greatest(floor((lon + 180.0)/{DEFAULT_RES_DEG!r}), 0.0), {360/DEFAULT_RES_DEG - 1:.1f}) AS BIGINT))"
)


@q(
    "cell_assign_counts",
    f"""
SELECT {CELL_SQL} AS cell_id, COUNT(*) AS n
FROM ({PTS_SQL})
GROUP BY 1
""",
)
def q_cell_counts(sf_dir: str):
    pts = _merged_blocks(derive_points(sf_dir), 128 * 1024)
    ds = ops.assign_cells(pts, res_deg=DEFAULT_RES_DEG)
    return ds.groupby("cell_id").aggregate(Count(alias_name="n"))


def _poly_counts(joined: rd.Dataset) -> pd.DataFrame:
    """Per-polygon ``n`` and ``sum_ok`` (of ``l_orderkey``) of a PIP join:
    per-block Arrow partials merged in the driver, as ``ops.cell_counts``
    does; with 25 polygons a shuffle only adds latency. (A stage after the
    join would see its 0-row blocks with no schema.)"""
    parts = [t.group_by("poly_id").aggregate([("l_orderkey", "count"), ("l_orderkey", "sum")])
             for t in joined.iter_batches(batch_format="pyarrow", batch_size=None)]
    g = pa.concat_tables(parts).group_by("poly_id").aggregate(
        [("l_orderkey_count", "sum"), ("l_orderkey_sum", "sum")])
    return g.select(["poly_id", "l_orderkey_count_sum", "l_orderkey_sum_sum"]).rename_columns(
        ["poly_id", "n", "sum_ok"]).to_pandas()


def _partitioned_join(group_max_rows: int):
    """Force the joins' partitioned plan, salting cells above
    ``group_max_rows`` probe rows."""
    return mock.patch.multiple(ops, BROADCAST_MAX_BYTES=0, GROUP_MAX_ROWS=group_max_rows)


@q("pip_join_boxes", None)  # oracle attached below (built from the same box math)
def q_pip_boxes(sf_dir: str):
    ds = derive_points(sf_dir)
    polys = nation_boxes(sf_dir)
    return _poly_counts(ops.pip_join(ds, polys))


ORACLES["pip_join_boxes"] = f"""
WITH p AS ({PTS_SQL}),
boxes AS (SELECT n_name AS poly_id,
  (-60.0 + fmod(n_nationkey*29.0, 100.0)) AS lon0,
  (-40.0 + fmod(n_nationkey*17.0, 100.0)) AS lat0,
  (6.0 + (n_nationkey % 5) * 2.0) AS w,
  (5.0 + (n_nationkey % 7)) AS h
  FROM nation)
SELECT b.poly_id, COUNT(*) AS n, CAST(SUM(p.l_orderkey) AS BIGINT) AS sum_ok
FROM p JOIN boxes b
  ON p.lon >= b.lon0 AND p.lon < b.lon0 + b.w AND p.lat >= b.lat0 AND p.lat < b.lat0 + b.h
GROUP BY b.poly_id
"""


@q(
    "geofence_customers_near_suppliers",
    f"""
WITH c AS ({CUST_PT}), s AS ({SUPP_PT})
SELECT c.c_custkey, s.s_suppkey,
  CAST(floor({_hav_sql('c.lon', 'c.lat', 's.lon', 's.lat')}) AS BIGINT) AS dist_m
FROM c CROSS JOIN s
WHERE {_hav_sql('c.lon', 'c.lat', 's.lon', 's.lat')} <= 300000.0
""",
)
def q_geofence(sf_dir: str):
    """Within-distance (geofence) join, cell-ring pruned, vs the brute-force
    cross-join filter (identical haversine expression on both sides, so the
    radius boundary cannot flip)."""
    cust = _merged_blocks(_customer_points(sf_dir))
    s_ids, s_lon, s_lat = _supplier_points(sf_dir)
    out = ops.within_distance_join(cust, s_ids, s_lon, s_lat, 300000.0).to_pandas()
    out["s_suppkey"] = out["site_id"].astype(np.int64)
    out["dist_m"] = np.floor(out["site_dist_m"].to_numpy()).astype(np.int64)
    return out[["c_custkey", "s_suppkey", "dist_m"]]


@q(
    "rasterize_density_tiles",
    f"""
WITH p AS ({PTS_SQL}),
g AS (SELECT (lon + 180.0)/5.0 AS v, (lat + 90.0)/5.0 AS u FROM p),
i AS (SELECT CAST(least(greatest(floor(v), 0.0), 71.0) AS BIGINT) AS ix,
             CAST(least(greatest(floor(u), 0.0), 35.0) AS BIGINT) AS iy, v, u FROM g),
x AS (SELECT iy*72 + ix AS cell_id,
  least(greatest(CAST(floor(v*64.0) AS BIGINT) - ix*64, 0), 63) AS px,
  least(greatest(CAST(floor(u*64.0) AS BIGINT) - iy*64, 0), 63) AS py FROM i)
SELECT cell_id, px, py, CAST(least(COUNT(*), 255) AS BIGINT) AS n
FROM x GROUP BY 1, 2, 3
""",
)
def q_rasterize(sf_dir: str):
    """Vector→raster: density tiles decoded back to nonzero pixel-count rows,
    hash-compared against the SQL sub-pixel histogram (identical v=(lon+180)/res
    arithmetic on both sides, so the raster content matches bit-for-bit)."""
    tiles = ops.rasterize_points(derive_points(sf_dir), res_deg=5.0, tile_px=64).to_pandas()
    frames = []
    for _, r in tiles.iterrows():
        a = np.frombuffer(r["bytes"], np.uint8).reshape(64, 64)
        py, px = np.nonzero(a)
        frames.append(pd.DataFrame({
            "cell_id": np.full(len(px), r["cell_id"], np.int64),
            "px": px.astype(np.int64), "py": py.astype(np.int64),
            "n": a[py, px].astype(np.int64),
        }))
    return pd.concat(frames, ignore_index=True)


@q(
    "polygon_area_nation_boxes",
    """
SELECT n_name AS poly_id,
  CAST(floor((6.0 + (n_nationkey % 5) * 2.0) * (5.0 + (n_nationkey % 7)) * 1000000.0 + 0.5)
       AS BIGINT) AS area_q,
  CAST(floor(((-60.0 + fmod(n_nationkey*29.0, 100.0)) + (6.0 + (n_nationkey % 5) * 2.0)/2.0)
       * 10000.0 + 0.5) AS BIGINT) AS cx_q
FROM nation
""",
)
def q_polygon_area(sf_dir: str):
    """Vector analytics: shoelace area + centroid of the polygon layer vs the
    independent rectangle formulas (w·h, lon0 + w/2) in SQL — validates the
    general-polygon implementation through a shape where the answer has a
    closed form."""
    import ray.data as rd2

    polys = nation_boxes(sf_dir)
    ds = rd2.from_items(
        [{"poly_id": pid, "vertices": np.asarray(p, np.float64).ravel().tolist()}
         for pid, p in polys]
    )

    def feats(batch: pa.Table) -> pa.Table:
        from .spatial import polygon_area, polygon_centroid

        areas, cxs = [], []
        for v in batch["vertices"].to_pylist():
            poly = np.asarray(v, np.float64).reshape(-1, 2)
            areas.append(polygon_area(poly))
            cxs.append(polygon_centroid(poly)[0])
        out = batch.drop_columns(["vertices"])
        out = out.append_column("area_q", pa.array(
            np.floor(np.asarray(areas) * 1e6 + 0.5).astype(np.int64)))
        return out.append_column("cx_q", pa.array(
            np.floor(np.asarray(cxs) * 1e4 + 0.5).astype(np.int64)))

    return ds.map_batches(feats, batch_format="pyarrow")


@q(
    "knn_customers_suppliers",
    f"""
WITH c AS ({CUST_PT}), s AS ({SUPP_PT}),
d AS (SELECT c.c_custkey, s.s_suppkey,
  {_hav_sql('c.lon', 'c.lat', 's.lon', 's.lat')} AS dist FROM c CROSS JOIN s),
r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY c_custkey ORDER BY dist, s_suppkey) AS rk FROM d)
SELECT c_custkey, s_suppkey, CAST(rk - 1 AS BIGINT) AS neighbor_rank,
  CAST(floor(dist) AS BIGINT) AS dist_m
FROM r WHERE rk <= 3
""",
)
def q_knn(sf_dir: str):
    cust = _merged_blocks(_customer_points(sf_dir))
    s_ids, s_lon, s_lat = _supplier_points(sf_dir)
    # exercise the ring-of-cells scale path — provably exact, so the DuckDB
    # oracle (full cross-join + window) still matches
    out = ops.knn_join(cust, (s_ids, s_lon, s_lat), 3, id_col="c_custkey",
                       res_deg=10.0).to_pandas()
    out["s_suppkey"] = out["neighbor_id"].astype(np.int64)
    out["neighbor_rank"] = out["neighbor_rank"].astype(np.int64)
    out["dist_m"] = np.floor(out["distance_m"].to_numpy()).astype(np.int64)
    return out[["c_custkey", "s_suppkey", "neighbor_rank", "dist_m"]]


@q("knn_join_large_customers_suppliers")
def q_knn_large(sf_dir: str):
    """kNN with the targets a Dataset, forced onto the partitioned plan with
    hot cells salted (10° cells hold up to 3 suppliers at sf0.01), against
    the SAME cross-join SQL oracle as the broadcast plan."""
    cust = _customer_points(sf_dir)
    s_ids, s_lon, s_lat = _supplier_points(sf_dir)
    supp_ds = rd.from_arrow(
        pa.table({"id": pa.array(np.asarray(s_ids, np.int64)),
                  "lon": pa.array(s_lon), "lat": pa.array(s_lat)})
    )
    with _partitioned_join(2):
        out = ops.knn_join(cust, supp_ds, 3, id_col="c_custkey", res_deg=10.0).to_pandas()
    out["s_suppkey"] = out["neighbor_id"].astype(np.int64)
    out["neighbor_rank"] = out["neighbor_rank"].astype(np.int64)
    out["dist_m"] = np.floor(out["distance_m"].to_numpy()).astype(np.int64)
    return out[["c_custkey", "s_suppkey", "neighbor_rank", "dist_m"]]


ORACLES["knn_join_large_customers_suppliers"] = ORACLES["knn_customers_suppliers"]


# ---------------------------------------------------------------------------
# Image pipelines (warp semantics are not SQL-expressible — rows-only checks;
# the real pixel correctness gate is tests/test_warp.py's PSNR goldens)
# ---------------------------------------------------------------------------


def _ingest_tiles(ds: rd.Dataset) -> rd.Dataset:
    """Mercator warp → 64-px tiles of one images Dataset: the shared
    builder of the ingest queries AND of the pytest pixel gates that pin
    their tiles against the raw path and against each other."""
    return ops.warp_and_tile(ds, "mercator", ProjParams(spheroid="WGS_84"),
                             tile_size=64, batch_size=8)


def _ingest_layout(tiles: rd.Dataset) -> pd.DataFrame:
    """Oracle-comparable tail of the ingest/warp queries: the tile LAYOUT —
    (image_id, tile_col/row/idx, cell_id, quantized tile-center lon/lat) —
    is a pure function of each image's georeference and the projection
    math, so it hash-compares against a DuckDB transcription
    (:func:`_ingest_oracle_sql`). Pixel CONTENT stays pinned by the
    bit-equality/PSNR pytests (tests/test_warp.py), per VERDICT r4 §next-3."""
    df = tiles.select_columns(
        ["image_id", "tile_col", "tile_row", "tile_idx", "cell_id",
         "center_lon", "center_lat"]).to_pandas()
    for c in ("tile_col", "tile_row", "tile_idx", "cell_id"):
        df[c] = df[c].astype(np.int64)  # match the oracle's BIGINT lattice
    df = _quant_df(df, {"center_lon": 1e4, "center_lat": 1e4})
    return df.rename(columns={"center_lon": "clon_q", "center_lat": "clat_q"})


_META_CACHE: dict[tuple, list] = {}


def _synth_meta(n: int, seed: int, sizes: tuple | None = None) -> list[tuple]:
    """Georeference metadata of synth_images_table(n, seed) — deterministic,
    pixel-independent, inlined into the ingest oracles as a VALUES list."""
    key = (n, seed, sizes)
    if key not in _META_CACHE:
        from .images import synth_images_table

        kw = {"sizes": sizes} if sizes is not None else {}
        t = synth_images_table(n, seed=seed, **kw)
        _META_CACHE[key] = list(zip(
            t["image_id"].to_pylist(), t["w"].to_pylist(), t["h"].to_pylist(),
            t["lon0"].to_pylist(), t["lat0"].to_pylist(),
            t["px_deg"].to_pylist()))
    return _META_CACHE[key]


def _ingest_oracle_sql(n: int, seed: int, *, tile: int = 64,
                       n_iter: int = 8) -> str:
    """DuckDB transcription of warp_and_tile's tile layout for a
    synth_images_table corpus under ellipsoidal Mercator (the projection all
    ingest queries use): projected window from the image extent (Mercator is
    separable-monotone, so the 33-point edge min/max reduces to the corner
    values), ceil-division tile grid, row-first tile_idx
    (pl_sample_nearest.opencl:37-39), tile-center inverse projection
    (pl_phi2 fixed point unrolled ``n_iter`` CTE layers — converges to
    <1e-15 rad in 6), and the res=5° cell_id floor. Constants inlined via
    repr() per the module convention."""
    from .index import nx as _nx_fn, ny as _ny_fn

    meta = _synth_meta(n, seed)
    rows = ",\n  ".join(
        f"('{iid}', {w}, {h}, {lon0!r}, {lat0!r}, {pxd!r})"
        for iid, w, h, lon0, lat0, pxd in meta)
    A, E = A_WGS, E_WGS
    res = DEFAULT_RES_DEG
    nx_, ny_ = _nx_fn(res), _ny_fn(res)

    def merc_y(lat_expr: str) -> str:
        return (f"({_asinh(f'tan(radians({lat_expr}))')}"
                f" - {E!r}*{_atanh(f'{E!r}*sin(radians({lat_expr}))')})")

    step = f"yy + {E!r}*{_atanh(f'{E!r}*sin(phi)')}"
    its = "\n".join(
        f"i{k + 1} AS (SELECT * EXCLUDE (phi), atan({_sinh(step)}) AS phi FROM i{k}),"
        for k in range(n_iter))
    return f"""
WITH imgs(image_id, w, h, lon0, lat0, px_deg) AS (VALUES
  {rows}),
win AS (SELECT *,
  {A!r}*radians(lon0) AS x0w,
  {A!r}*radians(lon0 + px_deg*(w-1)) AS x1w,
  {A!r}*{merc_y('lat0 - px_deg*(h-1)')} AS y0w,
  {A!r}*{merc_y('lat0')} AS y1w,
  CAST(ceil(w/{float(tile)!r}) AS BIGINT) AS ta,
  CAST(ceil(h/{float(tile)!r}) AS BIGINT) AS td
  FROM imgs),
ser AS (SELECT * FROM generate_series(0, 63) s(i)),
tl AS (SELECT w.*, sx.i AS tile_col, sy.i AS tile_row
       FROM win w, ser sx, ser sy WHERE sx.i < w.ta AND sy.i < w.td),
inv AS (SELECT *,
  (x0w + (x1w-x0w)*least((tile_col+0.5)*{float(tile)!r}/greatest(w-1,1), 1.0))/{A!r} AS lam,
  (y0w + (y1w-y0w)*least((tile_row+0.5)*{float(tile)!r}/greatest(h-1,1), 1.0))/{A!r} AS yy
  FROM tl),
i0 AS (SELECT *, atan({_sinh('yy')}) AS phi FROM inv),
{its}
geo AS (SELECT *, degrees(lam) AS clon, degrees(phi) AS clat FROM i{n_iter})
SELECT image_id, tile_col, tile_row,
  tile_col + tile_row*ta AS tile_idx,
  least(greatest(CAST(floor((clat+90.0)/{res!r}) AS BIGINT), 0), {ny_ - 1})*{nx_}
    + least(greatest(CAST(floor((clon+180.0)/{res!r}) AS BIGINT), 0), {nx_ - 1}) AS cell_id,
  CAST(floor(clon*10000.0 + 0.5) AS BIGINT) AS clon_q,
  CAST(floor(clat*10000.0 + 0.5) AS BIGINT) AS clat_q
FROM geo
"""


@q("warp_tile_pipeline", _ingest_oracle_sql(32, 42))
def q_warp_tiles(sf_dir: str):
    from .images import synth_images_table

    return _ingest_layout(_ingest_tiles(rd.from_arrow(
        synth_images_table(32, seed=42))))


@q("geotiff_export_resume")  # rows-only (filesystem sink; parity in pytest)
def q_geotiff_export(sf_dir: str):
    """GeoTIFF export sink: images → one georeferenced .tif per row
    (embedded ModelPixelScale/ModelTiepoint tags), then a second pass over
    the same output dir proving the file-per-image sink resumes (every row
    skipped). Returns the second run's manifest; pytest pins the re-ingest
    round-trip bit-exactly."""
    import shutil
    import tempfile

    from .images import synth_images_table
    from .sources import write_geotiffs

    out = os.path.join(tempfile.gettempdir(), "projcl_geotiff_export_q")
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.from_arrow(synth_images_table(12, seed=42))
    write_geotiffs(ds, out).materialize()  # first run writes all files
    return write_geotiffs(ds, out)  # second run: all rows skipped=True


def _geotiff_blobs(n: int, seed: int, *, dem: bool, id_col: str) -> pa.Table:
    """GeoTIFF blobs of ``synth_images_table(n, seed)``: one row per image,
    ``id_col`` (the image id), ``caption`` and ``bytes``, a deflate-strip
    TIFF with the image's georeference in embedded GeoTIFF tags. The TIFF
    holds the RGBA pixels, or with ``dem`` a deterministic single-band
    float32 elevation field driven by the pixels' first two channels."""
    from .images import decode_image, synth_images_table
    from .tiff import GeoTags, encode_tiff

    blobs = []
    for r in synth_images_table(n, seed=seed).to_pylist():
        img = decode_image(r["bytes"], r["w"], r["h"], "raw")
        if dem:
            img = (100.0 + 12.5 * img[..., 0].astype(np.float32)
                   + 0.25 * img[..., 1].astype(np.float32))
        geo = GeoTags(r["px_deg"], r["px_deg"], 0.0, 0.0, r["lon0"], r["lat0"])
        blobs.append({id_col: r["image_id"], "caption": r["caption"],
                      "bytes": encode_tiff(img, geo=geo)})
    return pa.Table.from_pylist(blobs)


@q("geotiff_ingest_warp_tile", _ingest_oracle_sql(24, 42))
def q_geotiff_ingest(sf_dir: str):
    """GeoTIFF ingest end-to-end: bare georeferenced-raster blobs (pixels +
    embedded ModelPixelScale/ModelTiepoint tags, NO sidecar georeference
    columns) → ops.ingest_geotiff (in-repo tiff.py codec recovers GeoRef
    from the tags) → warp → tile → oracle-checked tile layout (the DOUBLE
    tags round-trip the georeference exactly, so the layout hash-compares
    against the DuckDB transcription); tests pin tile PIXEL bit-equality
    vs the raw path."""
    return _ingest_layout(_ingest_tiles(
        ops.ingest_geotiff(rd.from_arrow(_geotiff_blobs(24, 42, dem=False, id_col="image_id")))))


@q("geotiff_dem_ingest_warp_tile", _ingest_oracle_sql(24, 43))
def q_geotiff_dem_ingest(sf_dir: str):
    """Deep-sample GeoTIFF ingest: single-band float32 elevation rasters
    (the real-world DEM/band layout — BitsPerSample 32, SampleFormat 3,
    embedded georeference) → ops.ingest_geotiff, whose decode maps the
    native samples through the deterministic min-max 8-bit preview
    (decode_tiff_native keeps the exact values for numeric pipelines) →
    warp → tile → oracle-checked tile layout; pixel determinism is gated
    in pytest."""
    return _ingest_layout(_ingest_tiles(
        ops.ingest_geotiff(rd.from_arrow(_geotiff_blobs(24, 43, dem=True, id_col="image_id")))))


@q("zonal_stats_dem")  # pixel-derived values — exact brute-force oracle in pytest
def q_zonal_stats(sf_dir: str):
    """Zonal statistics: per-polygon (n, mean, min, max) of float32 DEM
    samples across a raster corpus — the classic DEM × vector-zones
    geospatial aggregate. Pixels never shuffle: each raster batch reduces
    to ≤1 combiner row per zone (ops.zonal_stats), then one small
    groupby-aggregate merges partials. Values derive from decoded raster
    bytes, so correctness is gated by the exact brute-force pytest
    (test_zonal_stats_matches_bruteforce), not SQL."""
    from .pipelines import synth_polygons

    # three blocks of 8 rasters, the stage's slice size
    ds = rd.from_arrow(_geotiff_blobs(24, 44, dem=True, id_col="raster_id")).repartition(3)
    return ops.zonal_stats(ds, synth_polygons(32))


@q("dem_terrain_features")  # pixel-derived — exact scalar-Horn oracle in pytest
def q_dem_terrain(sf_dir: str):
    """Terrain analysis over the DEM corpus: per raster, Horn-method
    slope/aspect/hillshade reduced to slim feature rows (mean/max slope,
    circular-mean aspect, mean hillshade, roughness). Zero-movement map —
    pixels never leave the decode task (ops.dem_terrain_features);
    correctness gated by the per-pixel scalar-Horn pytest."""
    # three blocks of 8 rasters, the stage's slice size
    return ops.dem_terrain_features(
        rd.from_arrow(_geotiff_blobs(24, 44, dem=True, id_col="raster_id")).repartition(3))


def _fixture_layout(name: str) -> pd.DataFrame:
    """The tile layout of one checked-in coded corpus (FIXTURES.md §8)."""
    from .images import read_fixture

    return _ingest_layout(_ingest_tiles(rd.from_arrow(read_fixture(name))))


@q("gif_bmp_ingest_warp_tile", _ingest_oracle_sql(24, 42))
def q_gif_bmp_ingest(sf_dir: str):
    """Mixed palette/DIB ingest: the images table stored alternately as GIF
    (64-color-quantized — GIF is a palette format; alternate files are
    interlaced) and BMP (24-bit DIB), decoded by the in-repo codecs
    (gif.py, bmp.py) → warp → tile → oracle-checked tile layout. The coded
    table is the checked-in ``gif_bmp_ingest`` corpus (FIXTURES.md §8).
    Both formats are lossless here, so tests pin PIXEL bit-equality
    against the raw path on the same quantized pixels."""
    return _fixture_layout("gif_bmp_ingest")


@q("png_ingest_warp_tile", _ingest_oracle_sql(24, 42))
def q_png_ingest(sf_dir: str):
    """Compressed-ingest pipeline: the images table stored as PNG (Paeth
    filter, Adam7 on odd rows; the checked-in ``png_ingest`` corpus,
    FIXTURES.md §8) → decode (projcl_ray/png.py) → warp → tile. Returns
    the oracle-checked tile layout; tests/test_warp.py proves pixel
    bit-equality with the raw path (the reference ingests arbitrary
    images, projcl_warp.c:68-107)."""
    return _fixture_layout("png_ingest")


def _jpeg_ingest_table() -> pa.Table:
    """The images table re-encoded as baseline JFIF, q92 4:2:0."""
    from .images import decode_image, encode_image, synth_images_table

    rows = synth_images_table(24, seed=42).to_pylist()
    for r in rows:
        img = decode_image(r["bytes"], r["w"], r["h"], "raw")
        r["bytes"] = encode_image(img, "jpeg", quality=92, subsample=True)
        r["fmt"] = "jpeg"
    return pa.Table.from_pylist(rows)


@q("jpeg_ingest_warp_tile", _ingest_oracle_sql(24, 42))
def q_jpeg_ingest(sf_dir: str):
    """Compressed LOSSY ingest: the images table re-encoded as baseline JFIF
    (in-repo pure-Python codec, projcl_ray/jpeg.py, q=92 4:2:0) → decode →
    warp → tile. Layout is lossy-independent, so it hash-compares against
    the DuckDB oracle; pixel content is pinned by the codec pytests."""
    return _ingest_layout(_ingest_tiles(rd.from_arrow(_jpeg_ingest_table())))


@q("jpeg_progressive_ingest_warp_tile", _ingest_oracle_sql(24, 42))
def q_jpeg_progressive_ingest(sf_dir: str):
    """Progressive-JPEG ingest: the images table as SOF2 multi-scan JFIF
    (spectral selection + successive approximation; the checked-in
    ``jpeg_progressive_ingest`` corpus, FIXTURES.md §8) → decode → warp →
    tile. Same quality/subsampling as jpeg_ingest_warp_tile, and the
    progressive decode is coefficient-exact vs baseline, so
    tests/test_warp.py pins this query's tile bytes equal to the
    baseline-JPEG query's; the layout hash-compares vs DuckDB."""
    return _fixture_layout("jpeg_progressive_ingest")


@q("flagship_cells")
def q_flagship(sf_dir: str):
    return flagship(n_images=32)


def _pyramid_oracle_sql(n: int, seed: int, sizes: tuple, tile: int,
                        levels: int) -> str:
    """Pyramid LAYOUT oracle: per (level, image) tile counts follow pure
    ceil arithmetic — level 0 = ceil(w/t)·ceil(h/t), each level up halves
    each axis (children fill the full grid, so parents = ceil/2 per axis).
    ``levels`` here counts EMITTED levels (build_tile_pyramid(levels=k)
    emits k+1 including the input). Pixel content stays pinned by the
    level-1 bit-exactness pytest."""
    meta = _synth_meta(n, seed, sizes)
    rows = ",\n  ".join(f"('{iid}', {w}, {h})" for iid, w, h, *_ in meta)
    parts = []
    ta, td = f"CAST(ceil(w/{float(tile)!r}) AS BIGINT)", \
             f"CAST(ceil(h/{float(tile)!r}) AS BIGINT)"
    for lv in range(levels):
        for _ in range(lv):
            ta, td = f"(({ta})+1)//2", f"(({td})+1)//2"
        parts.append(f"SELECT CAST({lv} AS BIGINT) AS level, image_id,"
                     f" ({ta})*({td}) AS n_tiles FROM imgs")
        ta, td = f"CAST(ceil(w/{float(tile)!r}) AS BIGINT)", \
                 f"CAST(ceil(h/{float(tile)!r}) AS BIGINT)"
    return (f"WITH imgs(image_id, w, h) AS (VALUES\n  {rows})\n"
            + "\nUNION ALL\n".join(parts))


@q("warp_tile_pyramid", _pyramid_oracle_sql(16, 42, (128,), 32, 3))
def q_tile_pyramid(sf_dir: str):
    """Tile pyramid layout, oracle-checked per (level, image): counts are
    ceil-arithmetic from the synth sizes (two independent paths — the Ray
    side actually builds and downsamples the tiles); level-1 pixel content
    is bit-exactness-gated in pytest."""
    from .images import synth_images_table

    ds = rd.from_arrow(synth_images_table(16, seed=42, sizes=(128,)))
    tiles = ops.warp_and_tile(ds, "mercator", ProjParams(spheroid="WGS_84"),
                              tile_size=32, batch_size=8)
    pyr = ops.build_tile_pyramid(tiles, levels=2)
    return pyr.groupby(["level", "image_id"]).aggregate(Count(alias_name="n_tiles"))


# ---------------------------------------------------------------------------
# Fixed-angle geodesic trace, mosaic warp, phash dedup
# ---------------------------------------------------------------------------

_TRACE_ORIGIN = (10.0, 20.0)
_TRACE_AZ = 45.0

ORACLES["forward_geodesic_fixed_angle"] = f"""
WITH d AS (SELECT l_orderkey, l_partkey,
  (1000.0 + fmod(l_orderkey*97.0 + l_partkey*13.0, 5000.0) * 1000.0) AS distance_m
  FROM lineitem),
x AS (SELECT *, distance_m / {R!r} AS dr,
  sin(radians({_TRACE_ORIGIN[1]!r})) AS sp, cos(radians({_TRACE_ORIGIN[1]!r})) AS cp,
  sin(radians({_TRACE_AZ!r})) AS sa, cos(radians({_TRACE_AZ!r})) AS ca FROM d),
o AS (SELECT l_orderkey, l_partkey,
  asin(least(greatest(sp*cos(dr) + cp*sin(dr)*ca, -1.0), 1.0)) AS phi2,
  radians({_TRACE_ORIGIN[0]!r}) + atan2(sin(dr)*sa, cp*cos(dr) - sp*sin(dr)*ca) AS lam2 FROM x)
SELECT l_orderkey, l_partkey,
  CAST(floor(degrees(CASE WHEN abs(lam2) > pi() THEN lam2 - 2.0*pi()*sign(lam2) ELSE lam2 END) * 10000.0 + 0.5) AS BIGINT) AS lon2_q,
  CAST(floor(degrees(phi2) * 10000.0 + 0.5) AS BIGINT) AS lat2_q
FROM o
"""


@q("forward_geodesic_fixed_angle", ORACLES["forward_geodesic_fixed_angle"])
def q_fixed_angle(sf_dir: str):
    ds = sources.read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])

    def derive_dist(cols: dict) -> dict:
        ok = np.asarray(cols["l_orderkey"], np.float64)
        pk = np.asarray(cols["l_partkey"], np.float64)
        return {"distance_m": 1000.0 + np.mod(ok * 97.0 + pk * 13.0, 5000.0) * 1000.0}

    ds = ops.map_columns(ds, derive_dist, batch_size=None)
    out = ops.forward_geodesic_fixed_angle(ds, *_TRACE_ORIGIN, _TRACE_AZ)
    df = out.select_columns(["l_orderkey", "l_partkey", "lon2", "lat2"]).to_pandas()
    df = _quant_df(df, {"lon2": 1e4, "lat2": 1e4})
    return df.rename(columns={"lon2": "lon2_q", "lat2": "lat2_q"})


def _phash_dedup_oracle_sql(n: int = 256, seed: int = 42) -> str:
    """The phash column is carried BY the corpus (computed once at synth
    time), so the dedup itself — keep the lexicographically-first image id
    per phash — is plain SQL over the inlined (image_id, phash) pairs.
    The hash values' own correctness is pinned by the codec pytests."""
    from .images import synth_images_table

    t = synth_images_table(n, seed=seed)
    rows = ",\n  ".join(
        f"('{i}', {p})" for i, p in zip(t["image_id"].to_pylist(),
                                        t["phash"].to_pylist()))
    return (f"WITH imgs(image_id, phash) AS (VALUES\n  {rows})\n"
            "SELECT MIN(image_id) AS image_id, phash FROM imgs GROUP BY phash")


@q("dedup_phash_images", _phash_dedup_oracle_sql())
def q_phash_dedup(sf_dir: str):
    from .images import synth_images_table

    ds = rd.from_arrow(synth_images_table(256, seed=42).select(["image_id", "phash"]))
    return ds.groupby("phash").aggregate(Min("image_id", alias_name="image_id"))


def _warp_layout_oracle_sql(images) -> str:
    """Warp LAYOUT oracle: one raw warped row per (image_id, w, h), inlined
    as a VALUES list."""
    rows = ",\n  ".join(f"('{iid}', {w}, {h})" for iid, w, h in images)
    return ("SELECT image_id, CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, 'raw' AS fmt\n"
            f"FROM (VALUES\n  {rows}) imgs(image_id, w, h)")


@q("warp_tiled_mosaic", _warp_layout_oracle_sql(
    (iid, w, h) for iid, w, h, *_ in _synth_meta(8, 42)))
def q_mosaic(sf_dir: str):
    """Tiled-mosaic warp: one row per image, layout (image_id, w, h, fmt)
    oracle-checked; pixel content is pinned by
    tests/test_mosaic.py::test_warp_tiled_mosaic_stage_matches_direct_warp."""
    from .images import synth_images_table, decode_image, encode_image
    from .index import cut_tiles

    tbl = synth_images_table(8, seed=42).to_pylist()
    rows = []
    for r in tbl:
        img = decode_image(r["bytes"], r["w"], r["h"], r["fmt"])
        for tx, ty, _, tile in cut_tiles(img, 32):
            rows.append(
                {
                    "image_id": r["image_id"], "tile_col": tx, "tile_row": ty,
                    "tile_size": 32, "bytes": encode_image(tile), "fmt": "raw",
                    "w": r["w"], "h": r["h"], "lon0": r["lon0"], "lat0": r["lat0"],
                    "px_deg": r["px_deg"],
                }
            )
    # one block: from_items would make one block, and one sort partition,
    # per tile row
    tiles = rd.from_arrow(pa.Table.from_pylist(rows))
    out = ops.warp_tiled_mosaic(tiles, "mercator", ProjParams(spheroid="WGS_84"))
    df = out.select_columns(["image_id", "w", "h", "fmt"]).to_pandas()
    return df.astype({"w": np.int64, "h": np.int64})


# ---------------------------------------------------------------------------
# Ellipsoidal conic forwards (closed-form → SQL-expressible with inlined
# host-precomputed constants, exercising the qsfn/tsfn ellipsoidal paths)
# ---------------------------------------------------------------------------


def _albers_ell_consts(rlat1=30.0, rlat2=60.0, lat0=0.0):
    info = get_spheroid("WGS_84")
    phi1, phi2_, phi0 = map(math.radians, (rlat1, rlat2, lat0))
    m1 = msfn(math.sin(phi1), math.cos(phi1), info.ecc2)
    ml1 = qsfn(math.sin(phi1), info.ecc, info.one_ecc2)
    m2 = msfn(math.sin(phi2_), math.cos(phi2_), info.ecc2)
    ml2 = qsfn(math.sin(phi2_), info.ecc, info.one_ecc2)
    n = (m1 * m1 - m2 * m2) / (ml2 - ml1)
    c = m1 * m1 + ml1 * n
    rho0 = math.sqrt(c - n * qsfn(math.sin(phi0), info.ecc, info.one_ecc2))
    return n, c, rho0


_aen, _aec, _aerho0 = _albers_ell_consts()
_QSFN_SQL = (
    f"({get_spheroid('WGS_84').one_ecc2!r} * (sin(radians(lat))/(1.0 - {get_spheroid('WGS_84').ecc2!r}"
    f"*sin(radians(lat))*sin(radians(lat))) + {_atanh(f'{E_WGS!r}*sin(radians(lat))')}/{E_WGS!r}))"
)

QUERIES["project_albers_ell_fwd"] = _proj_query(
    "albers_equal_area", spheroid="WGS_84", rlat1=30, rlat2=60
)
ORACLES["project_albers_ell_fwd"] = f"""
WITH p AS ({PTS_SQL}),
r AS (SELECT l_orderkey, l_partkey, radians(lon) AS lam,
      sqrt({_aec!r} - {_aen!r} * {_QSFN_SQL}) AS rho FROM p)
SELECT l_orderkey, l_partkey,
  CAST(floor({A_WGS / _aen!r} * rho * sin(lam * {_aen!r})) AS BIGINT) AS x_m,
  CAST(floor({A_WGS / _aen!r} * ({_aerho0!r} - rho * cos(lam * {_aen!r}))) AS BIGINT) AS y_m
FROM r
"""


def _lcc_ell_consts(rlat1=30.0, rlat2=60.0, lat0=0.0):
    info = get_spheroid("WGS_84")
    phi1, phi2_, phi0 = map(math.radians, (rlat1, rlat2, lat0))
    m1 = msfn(math.sin(phi1), math.cos(phi1), info.ecc2)
    ml1 = tsfn(phi1, math.sin(phi1), info.ecc)
    n = math.log(m1 / msfn(math.sin(phi2_), math.cos(phi2_), info.ecc2))
    n /= math.log(ml1 / tsfn(phi2_, math.sin(phi2_), info.ecc))
    c = m1 * math.pow(ml1, -n) / n
    rho0 = c * math.pow(tsfn(phi0, math.sin(phi0), info.ecc), n)
    return n, c, rho0


_len_, _lec, _lerho0 = _lcc_ell_consts()
QUERIES["project_lcc_ell_fwd"] = _proj_query(
    "lambert_conformal_conic", spheroid="WGS_84", rlat1=30, rlat2=60
)
ORACLES["project_lcc_ell_fwd"] = f"""
WITH p AS ({PTS_SQL}),
r AS (SELECT l_orderkey, l_partkey, radians(lon) AS lam,
      {_lec!r} * exp(-{_len_!r} * ({_asinh('tan(radians(lat))')}
        - {E_WGS!r}*{_atanh(f'{E_WGS!r}*sin(radians(lat))')})) AS rho FROM p)
SELECT l_orderkey, l_partkey,
  CAST(floor({A_WGS!r} * rho * sin(lam * {_len_!r})) AS BIGINT) AS x_m,
  CAST(floor({A_WGS!r} * ({_lerho0!r} - rho * cos(lam * {_len_!r}))) AS BIGINT) AS y_m
FROM r
"""


# ---------------------------------------------------------------------------
# Large-layer PIP, partitioned flagship, projected-source warp
# ---------------------------------------------------------------------------


@q("pip_join_large_boxes", ORACLES["pip_join_boxes"])  # same oracle: plans must agree
def q_pip_large(sf_dir: str):
    """PIP with the polygon layer a Dataset, forced onto the partitioned
    plan with hot cells salted (5° cells hold up to 133 points at sf0.01),
    against the SAME SQL oracle as the broadcast plan."""
    ds = derive_points(sf_dir)
    polys = nation_boxes(sf_dir)
    poly_ds = rd.from_items(
        [{"poly_id": pid, "vertices": np.asarray(p, np.float64).ravel().tolist()} for pid, p in polys]
    )
    with _partitioned_join(120):
        return _poly_counts(ops.pip_join(ds, poly_ds))


@q("flagship_partitioned_resume")  # checkpoint/lineage demo — rows-only
def q_flagship_partitioned(sf_dir: str):
    import shutil
    import tempfile

    from .pipelines import flagship_partitioned

    out = tempfile.mkdtemp(prefix="graft_flagship_ckpt_")
    try:
        recs = flagship_partitioned(out, n_images=24, n_shards=3)
        again = flagship_partitioned(out, n_images=24, n_shards=3)  # resume → []
        return pd.DataFrame(
            {
                "shard": [r["key"] for r in recs],
                "rows": [r["rows"] for r in recs],
                "input": [r["input"] for r in recs],
                "resumed_rebuilds": [len(again)] * len(recs),
            }
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _projected_source_rows() -> list[dict]:
    """Eight 64×64 Mercator-STORED source images warped into Albers (the
    reference's full 8-step recipe incl. the forward-projection leg), one
    row per image with its warped raw RGBA bytes."""
    from .images import synth_pixels, encode_image
    from .warp import ProjectedGeoRef, WarpSpec, warp_image
    from .proj import prepare

    src = prepare("mercator", ProjParams(spheroid="WGS_84"))
    params = ProjParams(spheroid="WGS_84", rlat1=30, rlat2=60)
    dst = prepare("albers_equal_area", params)
    rows = []
    for i in range(8):
        img = synth_pixels(100 + i, 64, 64)
        x0, y0 = src.forward(np.array([5.0 + 3 * i]), np.array([45.0 + i]))
        pref = ProjectedGeoRef("mercator", ProjParams(spheroid="WGS_84"),
                               float(x0[0]), float(y0[0]), 800.0)
        gx, gy = np.meshgrid(np.array([0, 63.0]), np.array([0, 63.0]))
        lon_c, lat_c = src.inverse(float(x0[0]) + gx * 800.0, float(y0[0]) - gy * 800.0)
        ex, ey = dst.forward(lon_c, lat_c)
        spec = WarpSpec("albers_equal_area", params, float(ex.min()), float(ey.min()),
                        float(ex.max() - ex.min()), float(ey.max() - ey.min()), 64, 64)
        out = np.clip(warp_image(img, pref, spec), 0, 255).astype(np.uint8)
        rows.append({"image_id": f"psrc{i}", "bytes": encode_image(out),
                     "w": 64, "h": 64, "fmt": "raw"})
    return rows


@q("warp_projected_source", _warp_layout_oracle_sql(
    (f"psrc{i}", 64, 64) for i in range(8)))
def q_warp_projected_source(sf_dir: str):
    """Projected-source warp: one row per image, layout (image_id, w, h,
    fmt) oracle-checked; pixel content is pinned by
    tests/test_warp.py::test_warp_projected_source_pixels."""
    df = pd.DataFrame(_projected_source_rows())[["image_id", "w", "h", "fmt"]]
    return df.astype({"w": np.int64, "h": np.int64})


# ---------------------------------------------------------------------------
# Query order: the correctness driver gates only the first 50 queries, so the
# oracle-checked ones come first, in registration order, then the rows-only
# ones.
# ---------------------------------------------------------------------------

_ordered = sorted(QUERIES, key=lambda k: k not in ORACLES)  # stable sort
QUERIES = {k: QUERIES[k] for k in _ordered}
