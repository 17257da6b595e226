"""Local replica of the driver's correctness gate: run each queries() entry at
a given sf and compare against oracle_sql() via DuckDB (row count + column
names + order-insensitive value hash). Usage:

    PYTHONPATH=. python tools/check_correctness.py [sf_dir] [query ...]

Every result line, rows-only ones included, ends with the result's columns,
its ``value_hash`` and the query's wall time, so two runs' outputs compare
with ``diff`` once the trailing ``(<t>s)`` is stripped. The session's worker
pool is started, and one tiny Ray Data pipeline run, before the first query,
so no query's time carries either.
"""

from __future__ import annotations

import hashlib
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = "nation customer supplier lineitem".split()


def connect(sf_dir: str, tables: list[str] = TABLES) -> duckdb.DuckDBPyConnection:
    """DuckDB connection with one view per table over ``sf_dir``'s parquet files."""
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            # astype(str) decodes bytes as UTF-8: hash blobs by their hex
            df[c] = df[c].map(lambda v: v.hex() if isinstance(v, bytes) else v).astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    df = canon(df)
    h = hashlib.sha256()
    for c in df.columns:
        col = df[c]
        if np.issubdtype(col.dtype, np.floating):
            h.update(np.round(col.to_numpy(np.float64), 9).tobytes())
        elif np.issubdtype(col.dtype, np.datetime64):
            h.update(col.astype("datetime64[us]").to_numpy().tobytes())
        elif col.dtype == object:
            h.update("\x1f".join(map(str, col.tolist())).encode())
        else:
            h.update(col.to_numpy().tobytes())
    return h.hexdigest()[:16]


def warm_workers(n: int) -> None:
    """Start one worker per CPU, each importing the stages' package, then
    run one tiny Arrow pipeline: the pool start and Ray Data's first-run
    setup (seconds each) then land before the first timed query."""
    import ray
    import ray.data as rd

    @ray.remote(num_cpus=1)
    def warm():
        import projcl_ray.ops  # noqa: F401

        time.sleep(0.5)  # hold the CPU so that each task gets its own worker

    ray.get([warm.remote() for _ in range(n)])
    rd.range(16).map_batches(lambda t: t, batch_format="pyarrow").materialize()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    n_cpus = 8
    ray.init(address="local", num_cpus=n_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    warm_workers(n_cpus)

    import __ray_entry__ as entrymod

    con = connect(sf_dir)
    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_pass = n_fail = n_rows_only = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        digest = value_hash(got)
        result = f"{len(got)} rows, cols={sorted(got.columns)}, hash={digest} ({dt:.1f}s)"
        if name not in oracles:
            print(f"rows  {name}: {result}")
            n_rows_only += 1
            continue
        try:
            exp = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {e}")
            n_fail += 1
            continue
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if sorted(got.columns) != sorted(exp.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(exp.columns)}")
        elif digest != value_hash(exp):
            problems.append("value hash mismatch")
            g, e = canon(got), canon(exp)
            if len(g) == len(e):
                for c in g.columns:
                    if not g[c].equals(e[c]):
                        if g[c].dtype == object or np.issubdtype(g[c].dtype, np.datetime64):
                            diff = g[c] != e[c]
                        else:
                            diff = ~np.isclose(
                                g[c].astype(float), e[c].astype(float), rtol=0, atol=0, equal_nan=True
                            )
                        nbad = int(np.sum(diff))
                        if nbad:
                            i = int(np.argmax(np.asarray(diff)))
                            problems.append(f"  col {c}: {nbad} diffs, first got={g[c].iloc[i]} exp={e[c].iloc[i]}")
        if problems:
            print(f"FAIL  {name}: " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"PASS  {name}: {result}")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_rows_only} rows-only")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
