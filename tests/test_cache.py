"""Tests for the on-disk minimizer cache: round trips, checksums, quarantine."""

import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from staircase_lab import cache as ch
from staircase_lab.errors import CorruptRecord, VersionConflict
from staircase_lab.model import frenkel_kontorova
from staircase_lab.solvers import SolveOptions
from staircase_lab.variational import beta_at, minimize_periodic


@pytest.fixture(scope="module")
def k2():
    return frenkel_kontorova(2.0)


@pytest.fixture(scope="module")
def half_config(k2):
    return minimize_periodic(k2, 1, 2, SolveOptions(seed=0))


# ---- canonical rendering -------------------------------------------------------


def test_render_json_round_trips_17_digit_floats():
    payload = {"pi": math.pi, "tiny": 1.27e-300, "neg": -2.5e-17, "n": 12,
               "flag": True, "name": "a/b", "list": [0.1, 0.2, 0.3]}
    text = ch.render_json(payload)
    back = json.loads(text)
    assert back["pi"] == math.pi
    assert back["tiny"] == 1.27e-300
    assert back["neg"] == -2.5e-17
    assert back["n"] == 12 and back["flag"] is True and back["name"] == "a/b"
    assert back["list"] == [0.1, 0.2, 0.3]


def test_render_json_is_deterministic_and_sorted():
    a = ch.render_json({"b": 1.0, "a": [2.0, {"z": None, "y": 3}]})
    b = ch.render_json({"a": [2.0, {"y": 3, "z": None}], "b": 1.0})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_render_json_maps_non_finite_to_null():
    text = ch.render_json({"u": float("nan"), "v": float("inf")})
    back = json.loads(text)
    assert back["u"] is None and back["v"] is None


def test_payload_checksum_changes_with_payload():
    base = {"x": 1.0}
    assert ch.payload_checksum(base) != ch.payload_checksum({"x": 1.0 + 1e-15})
    assert ch.payload_checksum(base) == ch.payload_checksum({"x": 1.0})


# ---- round trips ---------------------------------------------------------------


def test_put_get_round_trip_bit_exact(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    assert path.exists()
    back = cache.get(k2, 1, 2)
    assert back is not None
    assert back.action_total == half_config.action_total
    assert np.array_equal(back.positions, half_config.positions)
    assert back.p == 1 and back.q == 2
    assert back.model_hash == k2.model_hash
    assert back.is_certified_minimal == half_config.is_certified_minimal


def test_get_missing_returns_none(tmp_path, k2):
    cache = ch.BetaCache(tmp_path)
    assert cache.get(k2, 1, 3) is None


def test_put_leaves_no_temp_files(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    names = sorted(f.name for f in path.parent.iterdir())
    assert names == [path.name]


def test_record_layout_keyed_by_model_hash(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    assert path == tmp_path / k2.model_hash / "1_2.json"
    other = frenkel_kontorova(0.5)
    assert cache.get(other, 1, 2) is None


def test_reput_identical_is_immutable(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    before = path.read_bytes()
    cache.put(k2, half_config)
    assert path.read_bytes() == before


def test_reput_within_tolerance_keeps_original(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    before = path.read_bytes()
    nudged = dataclasses.replace(half_config,
                                 positions=half_config.positions + 1e-14)
    cache.put(k2, nudged)
    assert path.read_bytes() == before


def test_reput_with_drift_raises_version_conflict(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    cache.put(k2, half_config)
    drifted = dataclasses.replace(half_config,
                                  positions=half_config.positions + 1e-9)
    with pytest.raises(VersionConflict):
        cache.put(k2, drifted)


# ---- corruption and quarantine ---------------------------------------------


def test_truncated_record_is_quarantined(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert cache.get(k2, 1, 2) is None
    assert not path.exists()
    corrupt = path.with_suffix(".json.corrupt")
    assert corrupt.exists()
    assert cache.quarantined == [str(corrupt)]


def test_checksum_mismatch_is_quarantined(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    record = json.loads(path.read_text())
    record["payload"]["action_total"] += 1.0
    path.write_text(json.dumps(record))
    assert cache.get(k2, 1, 2) is None
    assert len(cache.quarantined) == 1


def test_computation_redone_after_corruption(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    path.write_text("not json at all")
    value = beta_at(k2, 1, 2, cache=cache, options=SolveOptions(seed=0))
    assert abs(value - half_config.action_total / 2) < 1e-12
    assert cache.get(k2, 1, 2) is not None


def test_require_raises_corrupt_record(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    with pytest.raises(CorruptRecord):
        cache.require(k2, 1, 2)
    path = cache.put(k2, half_config)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 20])
    with pytest.raises(CorruptRecord):
        cache.require(k2, 1, 2)


def test_beta_at_reads_through_the_cache(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    record = json.loads(path.read_text())
    record["payload"]["action_total"] += 2.0
    record["checksum"] = ch.payload_checksum(record["payload"])
    path.write_text(ch.render_json(record))
    value = beta_at(k2, 1, 2, cache=cache)
    assert abs(value - (half_config.action_total + 2.0) / 2) < 1e-12


# ---- concurrency ---------------------------------------------------------------


def _race_put(root, seed):
    model = frenkel_kontorova(2.0)
    cfg = minimize_periodic(model, 1, 2, SolveOptions(seed=seed))
    ch.BetaCache(root).put(model, cfg)
    return cfg.action_total


def test_concurrent_writers_leave_one_valid_record(tmp_path, k2):
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_race_put, str(tmp_path), seed) for seed in (0, 1)]
        totals = [f.result() for f in futures]
    assert abs(totals[0] - totals[1]) < 1e-12
    files = list((tmp_path / k2.model_hash).iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"
    back = ch.BetaCache(tmp_path).get(k2, 1, 2)
    assert back is not None
    assert abs(back.action_total - totals[0]) < 1e-12


# ---- wrappers -------------------------------------------------------------------


def test_cache_get_put_wrappers(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    assert ch.cache_get(cache, k2, 1, 2) is None
    ch.cache_put(cache, k2, half_config)
    back = ch.cache_get(cache, k2, 1, 2)
    assert back is not None and back.action_total == half_config.action_total


def test_record_path_normalizes_and_validates():
    cache = ch.BetaCache("unused")
    assert cache.record_path("h", 2, 4) == Path("unused") / "h" / "1_2.json"
    assert cache.record_path("h", 1, -2) == Path("unused") / "h" / "-1_2.json"
    with pytest.raises(ValueError):
        cache.record_path("h", 1, 0)
