"""Tests for the on-disk minimizer cache: round trips, checksums, quarantine."""

import dataclasses
import hashlib
import json
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from staircase_lab import cache as ch
from staircase_lab import cli, parse_model, scan
from staircase_lab.errors import CorruptRecord, VersionConflict
from staircase_lab.model import frenkel_kontorova
from staircase_lab.solvers import SolveOptions
from staircase_lab.variational import beta_at, minimize_periodic

from oracles import cache_record_two_renders, rerender_check


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


# ---- the byte-level check ------------------------------------------------------


def assert_rejected(tmp_path, k2, text):
    """get quarantines the record text without raising; require raises."""
    cache = ch.BetaCache(tmp_path)
    path = cache.record_path(k2.model_hash, 1, 2)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    assert cache.get(k2, 1, 2) is None
    assert not path.exists() and cache.quarantined == [str(path.with_suffix(".json.corrupt"))]
    path.write_text(text)
    with pytest.raises(CorruptRecord):
        cache.require(k2, 1, 2)
    assert not path.exists()


def written(tmp_path, k2, half_config):
    path = ch.BetaCache(tmp_path / "written").put(k2, half_config)
    return path.read_text()


def value_span(text, key):
    """Start and end of the value of `key` in a record's text."""
    start = text.index(f'"{key}": ') + len(key) + 4
    end = text.index("]" if text[start] == "[" else ",", start)
    return start, end


@pytest.mark.parametrize("key", ["positions", "action_total"])
def test_every_single_digit_change_is_rejected(tmp_path, k2, half_config, key):
    text = written(tmp_path, k2, half_config)
    start, end = value_span(text, key)
    digits = [i for i in range(start, end) if text[i].isdigit()]
    assert len(digits) >= 17
    payload = json.loads(text)["payload"]
    for i in digits:
        changed = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        assert_rejected(tmp_path / str(i), k2, changed)
        # the re-render check accepts a change below float resolution only
        assert rerender_check(changed) in (None, payload)


def test_record_without_final_newline_validates(tmp_path, k2, half_config):
    cache = ch.BetaCache(tmp_path)
    path = cache.put(k2, half_config)
    text = path.read_text()
    assert text.endswith("}\n")
    path.write_text(text[:-1])
    back = cache.get(k2, 1, 2)
    assert back is not None and cache.quarantined == []
    assert np.array_equal(back.positions, half_config.positions)


def _reindented(text):
    return re.sub(r"\n( +)", lambda m: "\n" + 2 * m.group(1), text)


def _checksum_of(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _crafted(payload_text):
    """A record laid out as put writes it around any payload text, with the
    sha256 of that text as its checksum."""
    indented = payload_text.replace("\n", "\n  ")
    return f'{{\n  "checksum": "{_checksum_of(payload_text)}",\n  "payload": {indented}\n}}\n'


REWRITES = {
    "json.dumps": lambda text, record: json.dumps(record),
    "json.dumps indented": lambda text, record: json.dumps(record, indent=2, sort_keys=True),
    "re-indented render_json": lambda text, record: _reindented(text),
    "payload brace dedented": lambda text, record: text.replace("\n  }\n}", "\n}\n}"),
    "second payload key": lambda text, record: (
        text.rstrip("\n")[:-2] + ',\n  "payload": ' + ch.render_json(record["payload"], 2)
        + "\n}\n"),
    "numeric checksum": lambda text, record: ch.render_json({**record, "checksum": 12345}),
    "missing checksum": lambda text, record: ch.render_json({"payload": record["payload"]}),
    "list record": lambda text, record: ch.render_json([record]),
    "string record": lambda text, record: json.dumps(text),
    "trailing byte": lambda text, record: text + "x",
    "trailing newline": lambda text, record: text + "\n",
    "trailing space": lambda text, record: text.rstrip("\n") + " ",
    "trailing record": lambda text, record: text + text,
    "list payload": lambda text, record: _crafted(ch.render_json([record["payload"]])),
    "payload not json": lambda text, record: _crafted("not json"),
}


@pytest.mark.parametrize("case", list(REWRITES))
def test_rewritten_records_are_rejected(tmp_path, k2, half_config, case):
    text = written(tmp_path, k2, half_config)
    changed = REWRITES[case](text, json.loads(text))
    assert changed != text
    assert_rejected(tmp_path / "case", k2, changed)


def test_value_equal_reformats_pass_only_the_rerender_oracle(tmp_path, k2, half_config):
    # the one change of verdict: a record with the written values and
    # checksum that is not laid out as put wrote it
    text = written(tmp_path, k2, half_config)
    record = json.loads(text)
    for case in ("json.dumps", "re-indented render_json", "payload brace dedented"):
        assert rerender_check(REWRITES[case](text, record)) == record["payload"]


def oracle_config(payload):
    """The configuration BetaCache.get built from a re-render-checked payload."""
    return dict(
        positions=np.array(payload["positions"], dtype=float).tobytes(),
        action_total=float(payload["action_total"]),
        residual_sup=float(payload["residual_sup"]),
        is_certified_minimal=bool(payload["is_certified_minimal"]),
        seed_label=str(payload.get("seed_label", "")),
    )


def assert_checks_agree(root, model):
    cache = ch.BetaCache(root)
    records = sorted((root / model.model_hash).glob("*.json"))
    assert records
    for path in records:
        text = path.read_text()
        payload = rerender_check(text)
        assert payload is not None, path.name
        stored = json.loads(text)["checksum"]
        assert ch._record_payload_text(text) == (stored, ch.render_json(payload))
        assert ch.payload_checksum(ch.render_json(payload)) == stored
        got = cache.get(model, payload["p"], payload["q"])
        assert got is not None, path.name
        assert dict(positions=got.positions.tobytes(), action_total=got.action_total,
                    residual_sup=got.residual_sup,
                    is_certified_minimal=got.is_certified_minimal,
                    seed_label=got.seed_label) == oracle_config(payload), path.name
    assert cache.quarantined == []
    return len(records)


@pytest.mark.parametrize("seed", [0, 3])
def test_scan_records_pass_both_checks(tmp_path, bench, seed):
    text = bench.SCAN_CONFIG.format(seed=seed, workers=1)
    config = dataclasses.replace(scan.parse_scan_config(text), out_dir=str(tmp_path / "out"),
                                 cache_dir=str(tmp_path / "cache"))
    code, _ = scan.run_scan(config)
    assert code == 0
    assert assert_checks_agree(tmp_path / "cache", config.model) > 50


@pytest.mark.parametrize("which", ["benchmark", "fourier"])
def test_put_writes_the_two_render_records(tmp_path, monkeypatch, bench, digest_tool, which):
    text = (bench.SCAN_CONFIG.format(seed=0, workers=1) if which == "benchmark"
            else digest_tool.FOURIER_SCAN.format(seed=0))
    written = []
    real_put = ch.BetaCache.put

    def put(self, model, cfg):
        path = real_put(self, model, cfg)
        written.append((path, cache_record_two_renders(model, cfg)))
        return path

    monkeypatch.setattr(ch.BetaCache, "put", put)
    config = dataclasses.replace(scan.parse_scan_config(text), out_dir=str(tmp_path / "out"),
                                 cache_dir=str(tmp_path / "cache"))
    assert scan.run_scan(config)[0] == 0
    assert len(written) == len(list((tmp_path / "cache").rglob("*.json"))) > 10
    for path, want in written:
        got = path.read_bytes().decode("utf-8")
        assert got == want, path.name
        stored, payload_text = ch._record_payload_text(got)
        assert ch.payload_checksum(payload_text) == stored


def test_query_prefill_records_pass_both_checks(tmp_path, capsys, bench):
    model_file = tmp_path / "fk2.model"
    model_file.write_text(bench.MODEL_TEXT)
    cache = tmp_path / "cache"
    for p, q in bench.farey(bench.QUERY_ORDER):
        assert cli.main(["beta", "-p", str(p), "-q", str(q), "--model", str(model_file),
                         "--cache-dir", str(cache), "--seed", "0"]) == 0
    capsys.readouterr()
    assert assert_checks_agree(cache, parse_model(bench.MODEL_TEXT)) > 23


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
