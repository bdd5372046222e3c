"""CLI end-to-end smoke (subprocess owns its own Ray session) + edge cases."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from howard_ray.fixtures import make_tokens_corpus


def test_cli_encode_stats_decode(tmp_path):
    src = str(tmp_path / "c.parquet")
    pq.write_table(make_tokens_corpus(800), src)
    store = str(tmp_path / "store")
    env = dict(os.environ)

    r = subprocess.run(
        [sys.executable, "-m", "howard_ray.cli", "--num-cpus", "4",
         "encode", src, store, "--mode", "stream", "--target-rows", "400"],
        capture_output=True, text=True, env=env, timeout=240)
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["n_rows"] == 800

    r = subprocess.run(
        [sys.executable, "-m", "howard_ray.cli", "--num-cpus", "4",
         "stats", store],
        capture_output=True, text=True, env=env, timeout=240)
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout)
    assert rep["n_rows"] == 800
    assert rep["compression_ratio"] > 1


def test_encode_empty_input(ray_session, tmp_path):
    import pyarrow as pa

    from howard_ray.pipeline import encode_dataset

    empty = make_tokens_corpus(10).slice(0, 0)
    src = str(tmp_path / "empty.parquet")
    pq.write_table(empty, src)
    store = str(tmp_path / "store")
    footer = encode_dataset(src, store, mode="stream", target_rows=100)
    assert footer["n_rows"] == 0
    assert footer["n_blocks"] == 0


def test_parse_where():
    from howard_ray.cli import _parse_where
    assert _parse_where(None) is None
    assert _parse_where("n_tok:>=:500") == ("n_tok", ">=", 500)
    assert _parse_where("source:==:web") == ("source", "==", "web")
    assert _parse_where("source:in:web,code") == ("source", "in", ["web", "code"])
    assert _parse_where("score:<:0.5") == ("score", "<", 0.5)


@pytest.mark.parametrize("expr", ["n_tok>=500", "n_tok:>=", "n_tok:=>:5",
                                  "n_tok:like:5"])
def test_parse_where_rejects_malformed(expr):
    """A malformed --where is a one-line usage error naming the shape and
    the allowed ops, never a traceback or an op passed through."""
    from howard_ray.cli import _parse_where
    with pytest.raises(SystemExit) as e:
        _parse_where(expr)
    msg = str(e.value)
    assert "col:op:value" in msg and "contains" in msg and expr in msg


def test_cli_decode_where(tmp_path):
    src = str(tmp_path / "c.parquet")
    t = make_tokens_corpus(600)
    pq.write_table(t, src)
    store = str(tmp_path / "store")
    out_dir = str(tmp_path / "decoded")
    env = dict(os.environ)
    r = subprocess.run(
        [sys.executable, "-m", "howard_ray.cli", "--num-cpus", "4",
         "encode", src, store, "--mode", "stream", "--target-rows", "300"],
        capture_output=True, text=True, env=env, timeout=240)
    assert r.returncode == 0, r.stderr[-2000:]
    r = subprocess.run(
        [sys.executable, "-m", "howard_ray.cli", "--num-cpus", "4",
         "decode", store, out_dir, "--where", "source:==:web"],
        capture_output=True, text=True, env=env, timeout=240)
    assert r.returncode == 0, r.stderr[-2000:]
    import pyarrow.compute as pc
    want = pc.sum(pc.cast(pc.equal(t["source"], "web"), "int64")).as_py()
    got = pq.read_table(out_dir)
    assert got.num_rows == want
    assert set(got["source"].to_pylist()) == {"web"}


def test_encode_job_rejects_unknown_profile(tmp_path, monkeypatch, capsys):
    """The job's --profile choices are the engine's profiles: an unknown one
    is an argparse usage error (exit 2) before any Ray work starts."""
    import importlib.util

    import ray

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "jobs", "encode_job.py")
    spec = importlib.util.spec_from_file_location("encode_job", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)

    def no_ray(*a, **k):
        raise AssertionError("Ray was started")

    monkeypatch.setattr(ray, "init", no_ray)
    with pytest.raises(SystemExit) as e:
        job.main(["--input", str(tmp_path / "in.parquet"),
                  "--store", str(tmp_path / "store"), "--profile", "fast"])
    assert e.value.code == 2
    assert "fast" in capsys.readouterr().err
