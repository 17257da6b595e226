"""Driver-contract smoke (entry/queries/oracle_sql), the gate's table list,
and checkpoint resume."""

import importlib.util
import os

import duckdb
import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "check_correctness",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "tools", "check_correctness.py"))
check_correctness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_correctness)


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    result = e.entry()
    df = result.to_pandas() if hasattr(result, "to_pandas") else result
    assert len(df) >= 0
    assert "cell_id" in df.columns and "n_tiles" in df.columns


def test_queries_oracle_keys_consistent():
    import __ray_entry__ as e

    from projcl_ray.queries import ORACLES

    qs = e.queries()
    oracles = e.oracle_sql()
    assert set(oracles) == set(ORACLES)  # every oracle reaches the driver
    assert set(oracles) <= set(qs)
    assert len(qs) >= 30
    assert len(oracles) >= 20
    for sql in oracles.values():
        assert isinstance(sql, str) and "SELECT" in sql.upper()


def test_oracle_checked_queries_come_first():
    """The correctness driver gates only the first 50 queries, so every
    oracle-checked query comes before every rows-only one."""
    import __ray_entry__ as e

    checked = set(e.oracle_sql())
    flags = [name in checked for name in e.queries()]
    assert flags == sorted(flags, reverse=True)


def test_pip_gate_queries_log_no_schema_change(ray_session, sf_dir):
    """The two PIP gate queries aggregate on the driver, and the partitioned
    plan's sort leaves no partition empty, so Ray logs no "different schema
    than the previous one" warning for either (a 0-row block reaching a
    later stage arrives there with no schema)."""
    import logging

    import __ray_entry__ as e

    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    logger.addHandler(handler)
    try:
        for name in ("pip_join_boxes", "pip_join_large_boxes"):
            assert len(check_correctness.to_pandas(e.queries()[name](sf_dir))) > 0
    finally:
        logger.removeHandler(handler)
    assert not [r.getMessage() for r in records
                if "different schema than the previous one" in r.getMessage()]


def _unbound_oracles(sf_dir: str, tables: list[str]) -> list[str]:
    """Oracles that fail to bind against views over only ``tables``."""
    import __ray_entry__ as e

    con = check_correctness.connect(sf_dir, tables)
    bad = []
    for name, sql in e.oracle_sql().items():
        try:
            con.execute("EXPLAIN " + sql)
        except duckdb.Error:
            bad.append(name)
    return bad


def test_gate_tables_bind_every_oracle(sf_dir):
    assert _unbound_oracles(sf_dir, check_correctness.TABLES) == []


@pytest.mark.parametrize("dropped", check_correctness.TABLES)
def test_gate_tables_are_all_read(sf_dir, dropped):
    """Every table the gate loads is read by at least one oracle."""
    kept = [t for t in check_correctness.TABLES if t != dropped]
    assert _unbound_oracles(sf_dir, kept)


def test_gate_value_hash_ignores_row_and_column_order():
    """The gate compares row sets: its hash ignores row and column order
    (bytes cells included) and changes with any value."""
    import pandas as pd

    df = pd.DataFrame({"k": [3, 1, 2], "v": [0.5, 1.5, 2.5], "b": [b"\x00", b"\xff", b"ab"]})
    h = check_correctness.value_hash(df)
    shuffled = df.iloc[[2, 0, 1]][["b", "v", "k"]]
    assert check_correctness.value_hash(shuffled) == h
    changed = df.assign(v=[0.5, 1.5, 2.6])
    assert check_correctness.value_hash(changed) != h


def test_checkpoint_resume(ray_session, tmp_path):
    import ray.data as rd

    from projcl_ray import checkpoint

    out = str(tmp_path / "out")
    calls = []

    def build(key: str):
        calls.append(key)
        return rd.range(10).map_batches(
            lambda b: {"id": b["id"], "part": np.full(len(b["id"]), key, dtype=object)},
            batch_format="numpy",
        )

    recs = checkpoint.run_partitioned(["a", "b"], build, out)
    assert [r["key"] for r in recs] == ["a", "b"]
    assert all(r["rows"] == 10 and r["done"] for r in recs)
    assert checkpoint.completed_keys(out) == {"a", "b"}

    # resume: nothing rebuilt
    calls.clear()
    recs2 = checkpoint.run_partitioned(["a", "b"], build, out)
    assert recs2 == [] and calls == []

    # a new key builds only itself
    recs3 = checkpoint.run_partitioned(["a", "b", "c"], build, out)
    assert [r["key"] for r in recs3] == ["c"] and calls == ["c"]

    # corrupt manifest → partition is rebuilt
    mpath = os.path.join(checkpoint.manifest_dir(out), "b.json")
    with open(mpath, "w") as f:
        f.write("{not json")
    recs4 = checkpoint.run_partitioned(["a", "b", "c"], build, out)
    assert [r["key"] for r in recs4] == ["b"]
    # output readable end-to-end
    total = rd.read_parquet(out + "/part=a").count() + rd.read_parquet(out + "/part=b").count()
    assert total == 20


def test_flagship_partitioned_resume(ray_session, tmp_path):
    """End-to-end resumable flagship: run → all shards manifested; delete one
    manifest (simulated crash) → rerun rebuilds exactly that shard; tile
    totals identical to a fresh run."""
    import ray.data as rd

    from projcl_ray import checkpoint
    from projcl_ray.pipelines import flagship_partitioned

    out = str(tmp_path / "flagship")
    recs = flagship_partitioned(out, n_images=24, n_shards=3)
    assert [r["key"] for r in recs] == ["0", "1", "2"]
    assert all(r["rows"] > 0 and r["wall_s"] >= 0 for r in recs)
    assert all("images[" in r["input"] for r in recs)  # lineage recorded
    total = rd.read_parquet(out + "/part=1").count() + sum(
        rd.read_parquet(out + f"/part={k}").count() for k in ("0", "2")
    )

    # resume: nothing to do
    assert flagship_partitioned(out, n_images=24, n_shards=3) == []

    # crash simulation: drop shard 1's manifest → only shard 1 rebuilds
    os.remove(os.path.join(checkpoint.manifest_dir(out), "1.json"))
    recs2 = flagship_partitioned(out, n_images=24, n_shards=3)
    assert [r["key"] for r in recs2] == ["1"]
    total2 = sum(rd.read_parquet(out + f"/part={k}").count() for k in ("0", "1", "2"))
    assert total2 == total
