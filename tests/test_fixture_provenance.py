"""The checked-in coded corpora of ``projcl_ray/fixtures/`` (FIXTURES.md §8)
are pinned by SHA-256, and the writers of ``tests/codec_writers.py`` still
make them from ``synth_images_table(24, 42)`` and ``synth_pixels(3, 48,
32)``, every coded stream equal byte for byte. A writer that drifts fails
here instead of leaving the gate queries and the fuzz on stale bytes."""

import hashlib
import os

import pytest

from codec_writers import CORPORA
from projcl_ray.images import read_fixture

FIXTURE_SHA256 = {
    "fuzz_seeds": "770b3a34a730566b749cee83780bb00a776dec1d053eda8731fc240498b6622d",
    "gif_bmp_ingest": "98697927b9c8fbc64714382e802ce4c04029e766111c92f929c2fb7a8a1a6922",
    "jpeg_progressive_ingest":
        "ed61cd1e677f4525cf7b5249e540861cd53b20688ad5612aef510499fc99f6ad",
    "png_ingest": "0322a0b7054209680deabf1e73afcfc2b903a322a665014ad9b2ef2b828c5aea",
}


def test_fixture_files_are_pinned():
    d = os.path.join(os.path.dirname(__file__), "..", "projcl_ray", "fixtures")
    assert sorted(os.listdir(d)) == sorted(f"{n}.parquet" for n in CORPORA)
    assert FIXTURE_SHA256.keys() == CORPORA.keys()
    for name, want in FIXTURE_SHA256.items():
        with open(os.path.join(d, f"{name}.parquet"), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == want, name


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_fixture_regenerates_byte_for_byte(name):
    got, want = read_fixture(name), CORPORA[name]()
    assert got.schema == want.schema
    for col in want.column_names:  # the coded `bytes` compare as bytes
        assert got[col].to_pylist() == want[col].to_pylist(), col
