"""The benchmark's correctness checks catch a corrupted store and wrong
answers.

    python3 -m pytest perfbench -q

Each test first shows the check passing on the program's real output, then
failing once that output is corrupted.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import zlib

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import checks  # noqa: E402
import gen  # noqa: E402
from howard_ray import manifest as hmanifest  # noqa: E402
from howard_ray import pipeline as hp  # noqa: E402
from howard_ray import sqlmini  # noqa: E402


@pytest.fixture(scope="module")
def ray_session():
    import ray
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    from workloads import write_input
    base = tmp_path_factory.mktemp("bench")
    table = gen.make_docs(5, 600, short=False)
    write_input(table, str(base / "docs.parquet"))
    path = str(base / "store")
    hp.encode_dataset(str(base / "docs.parquet"), path, mode="auto",
                      resume=False)
    return path, table


def _scan(path):
    from workloads import collect
    return collect(hp.decode_store(path))


def _raw_first_plane(entry: dict) -> bool:
    """The column payload starts with a plane of plain bytes (no zstd frame
    over it): an int column's values or a list column's lengths."""
    m = (entry.get("meta") if entry["kind"] == "int" else
         entry.get("len_meta") if entry["kind"] == "list_int" else None) or {}
    return ((m.get("codec") == "for_bytes" and "post" not in m)
            or (m.get("codec") == "for_split" and not m["plane_zstd"][0]))


def _flip_uncompressed_byte(path: str) -> str:
    """Flip one payload byte of a block file where no zstd frame covers it,
    and rewrite the checksums to match: the decode then succeeds and only
    the values are wrong, as after a fault the checksums cannot see."""
    for rec in hmanifest.load_blocks(path):
        fname = hmanifest.block_path(path, rec["block_id"])
        with open(fname, "rb") as f:
            data = bytearray(f.read())
        meta_len = int.from_bytes(data[4:8], "little")
        meta = json.loads(data[8:8 + meta_len])
        # an int column first: a flipped list length breaks the offsets,
        # and the decode then fails instead of returning wrong values
        raw = sorted((n for n, e in meta["columns"].items()
                      if _raw_first_plane(e)),
                     key=lambda n: meta["columns"][n]["kind"] != "int")
        if not raw:
            continue
        name, entry = raw[0], meta["columns"][raw[0]]
        body = bytearray(data[8 + meta_len:])
        body[entry["offset"]] ^= 0x01
        payload = bytes(body[entry["offset"]: entry["offset"] + entry["length"]])
        entry["crc32"] = zlib.crc32(payload)
        meta["body_crc32"] = zlib.crc32(bytes(body))
        meta_json = json.dumps(meta, separators=(",", ":")).encode()
        with open(fname, "wb") as f:
            f.write(data[:4] + len(meta_json).to_bytes(4, "little")
                    + meta_json + bytes(body))
        return name
    raise AssertionError("no block stores a plane as plain bytes")


def test_dropped_row_fails_the_row_check(store):
    path, table = store
    out = _scan(path)
    assert checks.rows_equal(table, out, "scan") is None
    dropped = out.slice(1)
    problem = checks.rows_equal(table, dropped, "scan")
    assert problem and "rows" in problem
    assert checks.doc_ids_equal(table, dropped.select(["doc_id"]), "ids")


def test_wrong_sql_aggregate_fails_the_oracle_check(store):
    path, table = store
    sql = ("SELECT source, COUNT(*) AS n, SUM(n_tok) AS s FROM store "
           "GROUP BY source ORDER BY source")
    got = sqlmini.run_sql(path, sql)
    want = checks.oracle(sql, {"store": table})
    assert checks.frames_equal(got, want, sql) is None
    got.loc[0, "s"] = got.loc[0, "s"] + 1
    problem = checks.frames_equal(got, want, sql)
    assert problem and "column s" in problem


def test_flipped_byte_in_a_block_file_fails_the_row_check(store, tmp_path):
    path, table = store
    path = shutil.copytree(path, str(tmp_path / "store"))
    assert checks.rows_equal(table, _scan(path), "scan") is None
    column = _flip_uncompressed_byte(path)
    problem = checks.rows_equal(table, _scan(path), "scan")
    assert problem == f"scan: column {column} differs"


def test_store_larger_than_parquet_fails_the_size_check():
    assert checks.within_parquet(100, 100) is None
    assert checks.within_parquet(101, 100)
