"""Tests for scan configs, the scan driver, exports, and the CLI commands."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import staircase_lab
from staircase_lab import __version__
from staircase_lab import scan as sc
from staircase_lab import cli
from staircase_lab.cli import main
from staircase_lab.errors import ConfigError, NoConvergence, NonconvexTerm
from staircase_lab.scan import parse_scan_config, run_scan
from staircase_lab.staircase import DERIVATIVE_DEPTH, mediant_chain, shifted_rational

K0_TEXT = """
[model]
family = frenkel-kontorova
k = 0.0

[scan]
q_max = 6
c_grid = 41
seed = 0
"""

FULL_TEXT = """
# comment line
[model]
family = frenkel-kontorova
k = 0.75

[scan]
q_max = 8
h_lo = 0.0
h_hi = 1.0
nu = 0.5, 0.75
theta = 0.5
estimator_q = 12
c_grid = 101
derivative_depth = 4
workers = 2
seed = 7
cache_dir = /tmp/some-cache
out_dir = /tmp/some-out

[flatness]
p = 0
q = 1
t_grid = 1, 2, 3

[probe]
cf = 0, 1, 1, 1, 1, 1, 1, 1
delta = 0.25
rho_lo = 0.5
rho_hi = 0.7
"""


def digest_dir(d):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in Path(d).iterdir() if f.is_file()}


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def k0_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("k0scan")
    config = dataclasses.replace(parse_scan_config(K0_TEXT), out_dir=str(out))
    code, report = run_scan(config)
    assert code == 0
    return out, report, config


# ---- config parsing -----------------------------------------------------------


def test_parse_full_config():
    cfg = parse_scan_config(FULL_TEXT)
    assert cfg.model.k == 0.75
    assert cfg.q_max == 8
    assert cfg.nus == (0.5, 0.75)
    assert cfg.thetas == (0.5,)
    assert cfg.estimator_q == 12
    assert cfg.c_grid == 101
    assert cfg.workers == 2 and cfg.seed == 7
    assert cfg.cache_dir == "/tmp/some-cache"
    assert cfg.out_dir == "/tmp/some-out"
    assert cfg.flatness_targets == (sc.FlatnessTarget(0, 1, (1, 2, 3)),)
    assert cfg.probes == (sc.ProbeTarget((0, 1, 1, 1, 1, 1, 1, 1), 0.25, (0.5, 0.7)),)
    assert cfg.config_digest == hashlib.sha256(FULL_TEXT.encode()).hexdigest()


def test_parse_defaults():
    cfg = parse_scan_config("[model]\nfamily = frenkel-kontorova\nk = 1.0\n"
                            "[scan]\nq_max = 3\n")
    assert cfg.h_lo == 0.0 and cfg.h_hi == 1.0
    assert cfg.c_lo is None and cfg.c_hi is None
    assert cfg.nus == () and cfg.thetas == ()
    assert cfg.workers == 1 and cfg.seed == 0
    assert cfg.cache_dir is None and cfg.out_dir is None


@pytest.mark.parametrize("text", [
    "[scan]\nq_max = 5\n",                                        # no model
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n",             # no scan
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 0\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\nwibble = 1\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\n[mystery]\nx = 1\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\nh_lo = 1.0\nh_hi = 0.0\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\ntheta = 0.5\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\nnu = 1.5\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\nc_lo = 0.2\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\nworkers = 0\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\n"
    "[probe]\ndelta = 0.2\n",                                     # probe without cf
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\n"
    "[probe]\ncf = 0,1,1\nrho_lo = 0.3\n",                        # half a window
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\n"
    "[flatness]\np = 1\n",                                        # flatness without q
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\nseed = -1\n",
    "[model]\nfamily = frenkel-kontorova\nk = 1.0\n[scan]\nq_max = 4\nestimator_q = -3\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ConfigError):
        parse_scan_config(text)


def test_probe_kam_config_does_not_need_scan_section():
    cfg = parse_scan_config("[model]\nfamily = frenkel-kontorova\nk = 1.0\n",
                            require_scan=False)
    assert cfg.q_max == 16


def test_dyadic_ladder():
    assert sc._dyadic_ladder(16) == [4, 8, 16]
    assert sc._dyadic_ladder(10) == [4, 8, 10]
    assert sc._dyadic_ladder(4) == [4]
    assert sc._dyadic_ladder(3) == [3]


def test_scan_rationals_cover_base_and_chains():
    cfg = parse_scan_config("[model]\nfamily = frenkel-kontorova\nk = 1.0\n"
                            "[scan]\nq_max = 3\n")
    base = sc.base_rationals(cfg)
    tasks = sc.scan_rationals(cfg)
    assert set(base) <= set(tasks)
    assert (0, 1) in base and (1, 2) in base and (1, 3) in base
    for p, q in tasks:
        assert math.gcd(abs(p), q) == 1


# ---- the k=0 reference scan ------------------------------------------------------


def test_scan_writes_expected_layout(k0_scan):
    out, report, _ = k0_scan
    names = {f.name for f in out.iterdir()}
    assert {"beta.csv", "locking.csv", "staircase.csv", "estimators.csv",
            "report.json", "cache"} <= names
    assert report["results"]["failures"] == []


def test_k0_locking_widths_below_1e8(k0_scan):
    out, _, _ = k0_scan
    header, rows = read_csv(out / "locking.csv")
    assert header == ["(p,q)", "c_minus", "c_plus", "width"]
    assert rows, "locking table should not be empty"
    assert all(float(r[3]) < 1e-8 for r in rows)
    assert rows[0][0].count("/") == 1


def test_k0_staircase_is_identity(k0_scan):
    out, _, _ = k0_scan
    _, rows = read_csv(out / "staircase.csv")
    dev = max(abs(float(c) - float(d)) for c, d in rows)
    # resolution: half the largest Farey gap at q_max=6 plus the c step
    assert dev < 0.5 / 6 + 0.025


def test_k0_beta_matches_closed_form(k0_scan):
    out, _, _ = k0_scan
    _, rows = read_csv(out / "beta.csv")
    assert rows
    for p, q, rho, beta, *_ in rows:
        p, q = int(p), int(q)
        assert abs(float(beta) - p * p / (2.0 * q * q)) < 1e-10
        assert float(rho) == p / q


def test_report_json_shape(k0_scan):
    out, report, config = k0_scan
    on_disk = json.loads((out / "report.json").read_text())
    assert set(on_disk) == {"tool_version", "model", "config_digest", "results"}
    assert on_disk["tool_version"] == __version__
    assert on_disk["model"]["hash"] == config.model.model_hash
    assert on_disk["config_digest"] == config.config_digest
    results = on_disk["results"]
    assert results["failures"] == []
    assert [q for q, _ in results["L_of_Q"]] == [4, 6]
    assert all(val < 1e-8 for _, val in results["L_of_Q"])


def test_estimators_csv_has_l_rows(k0_scan):
    out, _, _ = k0_scan
    header, rows = read_csv(out / "estimators.csv")
    assert header == ["kind", "nu", "theta", "Q", "value"]
    l_rows = [r for r in rows if r[0] == "L"]
    assert [int(r[3]) for r in l_rows] == [4, 6]


def test_csv_floats_round_trip(k0_scan):
    out, report, _ = k0_scan
    _, rows = read_csv(out / "staircase.csv")
    # 17 significant digits reparse to the exact same float
    for c, d in rows[:5]:
        assert f"{float(c):.17g}" == c and f"{float(d):.17g}" == d
    for (q, val), row in zip(report["results"]["L_of_Q"],
                             [r for r in read_csv(out / "estimators.csv")[1] if r[0] == "L"]):
        assert float(row[4]) == val


def test_scan_determinism_byte_identical(k0_scan, tmp_path):
    out, _, config = k0_scan
    rerun = dataclasses.replace(config, out_dir=str(tmp_path / "rerun"))
    code, _ = run_scan(rerun)
    assert code == 0
    first = {k: v for k, v in digest_dir(out).items()}
    second = digest_dir(tmp_path / "rerun")
    assert first == second


def test_warm_cache_run_is_identical(k0_scan, tmp_path):
    out, _, config = k0_scan
    warm = dataclasses.replace(config, out_dir=str(tmp_path / "warm"),
                               cache_dir=str(out / "cache"))
    code, _ = run_scan(warm)
    assert code == 0
    assert digest_dir(out) == digest_dir(tmp_path / "warm")


def test_workers_flag_keeps_the_report_and_a_workers_line_moves_only_its_digest(tmp_path):
    # --workers leaves the config text, and so config_digest, as it is; a
    # workers line is part of the text that config_digest hashes
    texts = {workers: K0_TEXT.replace("seed = 0\n", f"seed = 0\nworkers = {workers}\n")
             for workers in (1, 2)}
    reports = {}
    for name, text, flag in (("flag 1", K0_TEXT, "1"), ("flag 2", K0_TEXT, "2"),
                             ("line 1", texts[1], None), ("line 2", texts[2], None)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        argv = ["scan", str(cfg), "--out-dir", str(out)] + (["--workers", flag] if flag else [])
        assert main(argv) == 0
        reports[name] = (out / "report.json").read_text()
    assert reports["flag 1"] == reports["flag 2"]
    digests = [json.loads(reports[name])["config_digest"] for name in ("line 1", "line 2")]
    assert digests == [hashlib.sha256(texts[w].encode()).hexdigest() for w in (1, 2)]
    assert reports["line 1"] != reports["line 2"]
    assert reports["line 1"].replace(*digests) == reports["line 2"]


FOURIER_TEXT = """
[model]
family = fourier-potential
a = 0.8
[harmonic]
order = 1
cos_amp = -0.3
sin_amp = 0.1
[harmonic]
order = 2
cos_amp = 0.05
sin_amp = -0.04

[scan]
q_max = 3
c_grid = 21
"""


def digest_tree(d):
    return {str(f.relative_to(d)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(Path(d).rglob("*")) if f.is_file()}


# every stage that reads beta: estimators, a probe and a flatness curve
POOL_TEXT = FOURIER_TEXT + """nu = 0.5
theta = 0.5
estimator_q = 4

[flatness]
p = 0
q = 1
t_grid = 1, 2

[probe]
cf = 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
rho_lo = 0.5
rho_hi = 0.7
"""


@pytest.fixture
def pool_submits(monkeypatch):
    """The rationals of every chunk the scan submits to its process pool."""
    submitted = []

    class CountingPool(sc.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.extend(args[1])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(sc, "ProcessPoolExecutor", CountingPool)
    return submitted


@pytest.fixture
def pool_chunks(monkeypatch):
    """(sizes, chunks): the max_workers of every process pool the scan
    starts, and every chunk of rationals it submits."""
    sizes, chunks = [], []

    class RecordingPool(sc.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            chunks.append(list(args[1]))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(sc, "ProcessPoolExecutor", RecordingPool)
    return sizes, chunks


def assert_dealt(chunks, todo, workers):
    """min(workers, len(todo)) non-empty chunks that hold each rational of
    todo once, their sums of q no further apart than the largest q."""
    assert len(chunks) == min(workers, len(todo)) and all(chunks)
    assert sorted(r for chunk in chunks for r in chunk) == sorted(todo)
    loads = [sum(q for _, q in chunk) for chunk in chunks]
    assert max(loads) - min(loads) <= max(q for _, q in todo)


def assert_same_solves(got, want):
    """The same keys, positions bytes and actions, error types and messages."""
    assert sorted(got) == sorted(want)
    for r, expected in want.items():
        if isinstance(expected, Exception):
            assert type(got[r]) is type(expected) and str(got[r]) == str(expected)
        else:
            assert got[r].positions.tobytes() == expected.positions.tobytes()
            assert repr(got[r].action_total) == repr(expected.action_total)


def test_work_list_is_what_the_serial_scan_solves(tmp_path, monkeypatch):
    from staircase_lab import staircase as stair_mod
    real = stair_mod.beta_at
    solved = set()

    def recording(model, p, q, **kwargs):
        solved.add((p, q))
        return real(model, p, q, **kwargs)

    monkeypatch.setattr(stair_mod, "beta_at", recording)
    config = dataclasses.replace(parse_scan_config(POOL_TEXT), out_dir=str(tmp_path))
    code, report = run_scan(config)
    assert code == 0 and report["results"]["failures"] == []
    assert report["results"]["probes"] and report["results"]["flatness"]

    listed = set(sc.work_list(config))
    assert listed - solved == set()
    assert set(sc.scan_rationals(config)) < listed
    assert set(sc.probe_rationals(config)) <= listed
    assert {(r.numerator, r.denominator) for r in
            (shifted_rational(1, 4, 0.5), shifted_rational(3, 4, 0.5))} <= listed
    # only flatness_curve's adaptive refinement, past its first step, is unlisted
    deeper = {(m.numerator, m.denominator)
              for t in config.flatness_targets for side in ("left", "right")
              for j in range(DERIVATIVE_DEPTH + 1, 41)
              for m in [mediant_chain(t.p, t.q, side, j)]}
    assert solved - listed and solved - listed <= deeper


def _identical_at_one_and_two_workers(tmp_path, pool_submits, text, monkeypatch):
    """Cold runs at workers 1 and 2, then warm re-runs at 2 and 1: the same
    bytes (CSVs, report.json, cache records) each time, and neither a pool
    nor a batch for the warm runs.  Without a flatness target, whose loops
    are solved on every run, a warm run starts no Newton iteration at all."""
    from staircase_lab import solvers
    config = parse_scan_config(text)
    digests = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code, _ = run_scan(dataclasses.replace(config, workers=workers, out_dir=str(out)))
        assert code == 0
        digests.append(digest_tree(out))
    assert any(name.startswith("cache/") for name in digests[0])
    assert digests[0] == digests[1]
    assert sorted(pool_submits) == sorted(sc.work_list(config))

    pool_submits.clear()
    started, batches = [], []
    newton_start = solvers._newton_start
    monkeypatch.setattr(solvers, "_newton_start", lambda *args: started.append(args) or
                        newton_start(*args))
    monkeypatch.setattr(sc, "minimize_periodic_many", lambda *args: batches.append(args))
    for workers in (2, 1):
        out = tmp_path / f"w{workers}"
        code, _ = run_scan(dataclasses.replace(config, workers=workers, out_dir=str(out)))
        assert code == 0
        assert digest_tree(out) == digests[0]
    assert pool_submits == [] and batches == []
    assert (started == []) == (not config.flatness_targets)


def test_scan_artifacts_identical_at_one_and_two_workers(tmp_path, pool_submits, monkeypatch):
    _identical_at_one_and_two_workers(tmp_path, pool_submits, FOURIER_TEXT, monkeypatch)


def test_all_stage_scan_artifacts_identical_at_one_and_two_workers(tmp_path, pool_submits,
                                                                    monkeypatch):
    _identical_at_one_and_two_workers(tmp_path, pool_submits, POOL_TEXT, monkeypatch)


def test_pool_failure_is_attempted_once(tmp_path, monkeypatch, pool_submits):
    from staircase_lab import solvers
    real = solvers.best_minimizer
    attempts = tmp_path / "attempts"

    def failing(model, p, q, *args, **kwargs):
        if (p, q) == (1, 3):
            with open(attempts, "a") as fh:  # appended from whichever process solves
                fh.write(f"{os.getpid()}\n")
            raise NoConvergence("injected failure at 1/3")
        return real(model, p, q, *args, **kwargs)

    # pool workers are forked after this, so they inherit the patch
    monkeypatch.setattr(solvers, "best_minimizer", failing)
    config = parse_scan_config(FOURIER_TEXT)
    failures, pids = {}, {}
    for workers in (1, 2):
        attempts.write_text("")
        code, report = run_scan(dataclasses.replace(
            config, workers=workers, out_dir=str(tmp_path / f"w{workers}")))
        assert code == 0
        failures[workers] = report["results"]["failures"]
        pids[workers] = attempts.read_text().split()
    assert (1, 3) in pool_submits
    assert len(pids[2]) == 1 and pids[2][0] != str(os.getpid())
    assert len(pids[1]) >= 1
    assert any(f.get("p") == 1 and f.get("q") == 3 for f in failures[1])
    assert failures[2] == failures[1]
    assert digest_tree(tmp_path / "w1") == digest_tree(tmp_path / "w2")


@pytest.mark.parametrize("error,p,q", [("NoConvergence", 1, 3), ("SaddleOnly", 2, 5)])
def test_batch_failure_reaches_the_serial_pass_as_a_lone_solve(tmp_path, monkeypatch,
                                                               error, p, q):
    # no seed at all, or no certified minimum, for one rational of the
    # workers = 1 batch; the same scan with the batch off solves each
    # rational alone in the serial pass
    from staircase_lab import solvers
    if error == "NoConvergence":
        seeds = solvers.build_seeds
        monkeypatch.setattr(solvers, "build_seeds", lambda model, p_, q_, opts:
                            [] if (p_, q_) == (p, q) else seeds(model, p_, q_, opts))
    else:
        certify = solvers.certify_psd_periodic_u
        monkeypatch.setattr(solvers, "certify_psd_periodic_u", lambda prob, u, shift:
                            (prob.p, prob.q) != (p, q) and certify(prob, u, shift))
    batches = []
    many = sc.minimize_periodic_many
    monkeypatch.setattr(sc, "minimize_periodic_many",
                        lambda model, todo, opts: batches.append(todo) or many(model, todo, opts))
    config = dataclasses.replace(parse_scan_config(FOURIER_TEXT), workers=1)
    runs = {}
    for name in ("batch", "alone"):
        with monkeypatch.context() as m:
            if name == "alone":
                m.setattr(sc, "pool_solves", lambda *args: {})
            code, report = run_scan(dataclasses.replace(config, out_dir=str(tmp_path / name)))
        assert code == 0
        runs[name] = report["results"]["failures"], digest_tree(tmp_path / name)
    assert len(batches) == 1 and (p, q) in batches[0]
    assert runs["batch"] == runs["alone"]
    errors = [f["error"] for f in runs["batch"][0] if (f.get("p"), f.get("q")) == (p, q)]
    assert errors and set(errors) == {error}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("source", ["benchmark", "fourier"])
def test_pool_chunks_match_one_stack(source, seed, bench, digest_tool, pool_chunks,
                                     monkeypatch):
    # no seed at 1/3 and no certified minimum at 1/4, so that errors cross
    # the pool too; workers are forked after the patches and inherit them
    from staircase_lab import solvers
    seeds, certify = solvers.build_seeds, solvers.certify_psd_periodic_u
    monkeypatch.setattr(solvers, "build_seeds", lambda model, p, q, opts:
                        [] if (p, q) == (1, 3) else seeds(model, p, q, opts))
    monkeypatch.setattr(solvers, "certify_psd_periodic_u", lambda prob, u, shift:
                        (prob.p, prob.q) != (1, 4) and certify(prob, u, shift))
    text = (bench.SCAN_CONFIG.format(seed=seed, workers=1) if source == "benchmark"
            else digest_tool.FOURIER_SCAN.format(seed=seed))
    config = parse_scan_config(text)
    todo = sc.work_list(config)
    want = sc.minimize_periodic_many(config.model, todo, config.options)
    assert {type(v).__name__ for v in want.values() if isinstance(v, Exception)} == {
        "NoConvergence", "SaddleOnly"}
    sizes, chunks = pool_chunks
    for workers in (2, 3):
        sizes.clear()
        chunks.clear()
        got = sc.pool_solves(dataclasses.replace(config, workers=workers), None, todo)
        assert sizes == [workers]
        assert_dealt(chunks, todo, workers)
        assert_same_solves(got, want)


def test_pool_of_more_workers_than_rationals(pool_chunks):
    config = dataclasses.replace(parse_scan_config(FOURIER_TEXT), workers=4)
    todo = [(1, 2), (1, 3), (2, 5)]
    got = sc.pool_solves(config, None, todo)
    sizes, chunks = pool_chunks
    assert sizes == [3]
    assert_dealt(chunks, todo, 4)
    assert_same_solves(got, sc.minimize_periodic_many(config.model, todo, config.options))


def test_scan_artifacts_identical_at_one_and_three_workers(tmp_path, pool_chunks):
    config = parse_scan_config(POOL_TEXT)
    digests = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        code, _ = run_scan(dataclasses.replace(config, workers=workers, out_dir=str(out)))
        assert code == 0
        digests.append(digest_tree(out))
    assert digests[0] == digests[1]
    sizes, chunks = pool_chunks
    assert sizes == [3]
    assert_dealt(chunks, sc.work_list(config), 3)


def test_scan_requires_out_dir():
    cfg = parse_scan_config(K0_TEXT)
    with pytest.raises(ConfigError):
        run_scan(cfg)


def test_cli_scan_without_out_dir_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(K0_TEXT)
    assert main(["scan", str(cfg)]) == 2
    assert [f.name for f in tmp_path.iterdir()] == ["scan.cfg"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "out_dir" in err[0]


# ---- failure isolation ------------------------------------------------------------


def test_failing_rational_is_recorded_and_isolated(tmp_path, monkeypatch):
    from staircase_lab import staircase as stair_mod
    real = stair_mod.beta_at

    def flaky(model, p, q, **kwargs):
        if (p, q) == (1, 3):
            raise NoConvergence("injected failure at 1/3")
        return real(model, p, q, **kwargs)

    monkeypatch.setattr(stair_mod, "beta_at", flaky)
    cfg = dataclasses.replace(
        parse_scan_config("[model]\nfamily = frenkel-kontorova\nk = 0.0\n"
                          "[scan]\nq_max = 4\nc_grid = 21\n"),
        out_dir=str(tmp_path))
    code, report = run_scan(cfg)
    assert code == 0
    failures = report["results"]["failures"]
    assert any(f.get("p") == 1 and f.get("q") == 3 for f in failures)
    _, rows = read_csv(tmp_path / "beta.csv")
    good = {(int(r[0]), int(r[1])) for r in rows}
    assert (1, 2) in good and (1, 4) in good and (1, 3) not in good


def _nc(stage, at, **pq):
    return {**pq, "stage": stage, "error": "NoConvergence",
            "message": f"injected failure at {at}"}


# The failures list of a POOL_TEXT scan with NoConvergence injected at one
# rational (or two), or NonconvexTerm raised by the Legendre transform.
# Together the cases reach every isolated stage.
STAGE_FAILURES = {
    "1/3": [
        _nc("beta", "1/3", p=1, q=3),
        _nc("derivative", "1/3", p=1, q=3),
        _nc("locking Q=3", "1/3"),
    ],
    "0/1": [
        _nc("beta", "0/1", p=0, q=1),
        _nc("derivative", "0/1", p=0, q=1),
        _nc("window", "0/1"),
        _nc("flatness 0/1", "0/1"),
    ],
    "1/2": [
        _nc("beta", "1/2", p=1, q=2),
        _nc("derivative", "1/2", p=1, q=2),
        _nc("locking Q=3", "1/2"),
        _nc("flatness 0/1", "1/2"),
        _nc("probe cf=[0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]", "1/2"),
    ],
    "1/4": [
        _nc("beta", "1/4", p=1, q=4),
        _nc("derivative", "1/4", p=0, q=1),
        _nc("window", "1/4"),
        _nc("variation nu=0.5 Q=3", "1/4"),
        _nc("hausdorff nu=0.5 theta=0.5 Q=3", "1/4"),
        _nc("flatness 0/1", "1/4"),
    ],
    "0/1,1/2": [
        _nc("beta", "0/1", p=0, q=1),
        _nc("beta", "1/2", p=1, q=2),
        _nc("derivative", "0/1", p=0, q=1),
        _nc("derivative", "1/2", p=1, q=2),
        _nc("window", "0/1"),
        _nc("flatness 0/1", "0/1"),
        _nc("probe cf=[0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]", "1/2"),
    ],
    "staircase": [
        {"stage": "staircase", "error": "NonconvexTerm",
         "message": "injected nonconvex staircase"},
    ],
}


def _inject(monkeypatch, case):
    """NoConvergence from beta_at at each rational of `case` ("0/1,1/2"), or a
    failing legendre."""
    from staircase_lab import staircase as stair_mod
    if case == "staircase":
        def nonconvex(*args, **kwargs):
            raise NonconvexTerm("injected nonconvex staircase")
        monkeypatch.setattr(sc, "legendre", nonconvex)
        return
    real = stair_mod.beta_at
    at = {tuple(int(v) for v in r.split("/")) for r in case.split(",")}

    def failing(model, p, q, **kwargs):
        if (p, q) in at:
            raise NoConvergence(f"injected failure at {p}/{q}")
        return real(model, p, q, **kwargs)

    monkeypatch.setattr(stair_mod, "beta_at", failing)


@pytest.mark.parametrize("case", list(STAGE_FAILURES))
def test_stage_failure_records(tmp_path, monkeypatch, case):
    _inject(monkeypatch, case)
    config = parse_scan_config(POOL_TEXT)
    for workers in (1, 2):
        code, report = run_scan(dataclasses.replace(
            config, workers=workers, out_dir=str(tmp_path / f"w{workers}")))
        assert code == 0 and "error" not in report
        assert report["results"]["failures"] == STAGE_FAILURES[case]


@pytest.mark.parametrize("case", ["1/2", "0/1,1/2"])
def test_probe_kam_failure_records_match_the_scan(tmp_path, monkeypatch, capsys, case):
    _inject(monkeypatch, case)
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_TEXT)
    assert main(["probe-kam", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)["failures"]
    shared = [f for f in STAGE_FAILURES[case]
              if f["stage"] in ("beta", "derivative", "window", "staircase")
              or f["stage"].startswith("probe ")]
    assert printed == shared


def test_probe_kam_records_a_failing_staircase(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_TEXT)
    assert main(["probe-kam", str(cfg)]) == 0
    clean = json.loads(capsys.readouterr().out)

    def nonconvex(*args, **kwargs):
        raise NonconvexTerm("injected nonconvex staircase")

    monkeypatch.setattr(sc, "legendre", nonconvex)
    assert main(["probe-kam", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert "ac_part" in clean and "ac_part" not in printed
    assert clean["probes"] and printed["probes"] == clean["probes"]
    assert printed["failures"] == clean["failures"] + [
        {"stage": "staircase", "error": "NonconvexTerm",
         "message": "injected nonconvex staircase"}]


# ---- export units -----------------------------------------------------------------


def test_write_csv_headers_only_when_empty(tmp_path):
    path = tmp_path / "empty.csv"
    sc.write_csv(path, ("p", "q", "rho", "beta"), [])
    assert path.read_text() == "p,q,rho,beta\n"


def test_write_csv_quotes_comma_cells(tmp_path):
    path = tmp_path / "locking.csv"
    sc.write_csv(path, ("(p,q)", "width"), [("1/2", 0.125)])
    header, rows = read_csv(path)
    assert header == ["(p,q)", "width"]
    assert rows == [["1/2", "0.125"]]


def test_report_reexport_is_byte_identical(k0_scan, tmp_path):
    out, report, _ = k0_scan
    again = tmp_path / "again.json"
    sc.write_report(again, report)
    assert again.read_bytes() == (out / "report.json").read_bytes()


# ---- command line -----------------------------------------------------------------


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fk.model"
    path.write_text("[model]\nfamily = frenkel-kontorova\nk = 2.0\n")
    return str(path)


@pytest.fixture(scope="module")
def k0_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fk0.model"
    path.write_text("[model]\nfamily = frenkel-kontorova\nk = 0.0\n")
    return str(path)


def test_cli_beta_prints_record(capsys, k0_model_file):
    rc = main(["beta", "-p", "1", "-q", "2", "--model", k0_model_file])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["beta"] - 0.125) < 1e-10
    assert record["p"] == 1 and record["q"] == 2
    # no locking at k=0: both one-sided derivatives equal rho
    assert abs(record["c_minus"] - 0.5) < 1e-8
    assert abs(record["c_plus"] - 0.5) < 1e-8


def test_cli_negative_seed_exits_2(capsys, k0_model_file, tmp_path):
    cache = tmp_path / "cache"
    rc = main(["beta", "-p", "1", "-q", "4", "--model", k0_model_file, "--seed", "-1",
               "--cache-dir", str(cache)])
    assert rc == 2
    assert not cache.exists()
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_cli_beta_requires_model(capsys):
    rc = main(["beta", "-p", "1", "-q", "2"])
    assert rc == 2
    assert "requires --model" in capsys.readouterr().err


def test_cli_scan_missing_model_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[scan]\nq_max = 4\n")
    rc = main(["scan", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()
    assert "missing [model] section" in capsys.readouterr().err


def test_cli_scan_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["scan", str(tmp_path / "absent.cfg")])
    assert rc == 2


def test_cli_scan_writes_artifacts(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("[model]\nfamily = frenkel-kontorova\nk = 0.0\n"
                   "[scan]\nq_max = 4\nc_grid = 21\n")
    out = tmp_path / "out"
    rc = main(["scan", str(cfg), "--out-dir", str(out)])
    assert rc == 0
    assert (out / "report.json").exists() and (out / "beta.csv").exists()


def test_cli_flatness_writes_csv_and_record(capsys, model_file, tmp_path):
    rc = main(["flatness", "-p", "0", "-q", "1", "--model", model_file,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["p"] == 0 and record["q"] == 1
    assert abs(record["c_plus"] - 0.48779084496098024) < 1e-9
    assert abs(record["lambda_monodromy"] - 4.3937635006770046) < 1e-9
    header, rows = read_csv(tmp_path / "flatness_0_1.csv")
    assert header == ["T", "delta", "u", "zeta_upper", "bound_value"]
    assert len(rows) == 5


def test_cli_hyperbolicity_reports_monodromy(capsys, model_file):
    rc = main(["hyperbolicity", "-p", "0", "-q", "1", "--model", model_file])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    k = 2.0
    assert abs(record["trace"] - (2 + 4 * math.pi**2 * k)) < 1e-9
    assert abs(record["phonon_gap"] - 4 * math.pi**2 * k) < 1e-9
    assert record["lyapunov"] > 0


def test_cli_pn_barrier_positive_at_k2(capsys, model_file):
    rc = main(["pn-barrier", "-p", "1", "-q", "2", "--model", model_file])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["pn_barrier"] > 1.0


def test_cli_probe_kam(capsys, tmp_path):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("[model]\nfamily = frenkel-kontorova\nk = 0.0\n"
                   "[scan]\nq_max = 6\nc_grid = 21\n"
                   "[probe]\ncf = 0,1,1,1,1,1,1,1,1,1,1,1,1,1\n")
    rc = main(["probe-kam", str(cfg)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    probe = record["probes"][0]
    # k=0 has beta = rho^2/2, so the quadratic envelope hugs 1/2
    assert 0.4 < probe["c_low"] <= probe["C_high"] < 0.55
    assert record["failures"] == []


# On k = 0 with c_grid = 201, the probe convergents would move the staircase
# if probe-kam ran legendre after the probes: ac_part bound 0.05, not 0.04.
@pytest.mark.parametrize("k, c_grid, cf", [
    (0.5, 21, "0,1,1,1,1,1,1,1,1,1,1,1,1,1"),
    (0.0, 201, "0,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1"),
], ids=["k=0.5", "k=0-c_grid=201"])
def test_probe_kam_prints_the_scan_probe_records(capsys, tmp_path, k, c_grid, cf):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(f"[model]\nfamily = frenkel-kontorova\nk = {k}\n"
                   f"[scan]\nq_max = 4\nc_grid = {c_grid}\n"
                   f"cache_dir = {tmp_path / 'cache'}\nout_dir = {tmp_path / 'scan'}\n"
                   f"[probe]\ncf = {cf}\n"
                   "rho_lo = 0.5\nrho_hi = 0.7\n")
    assert main(["scan", str(cfg)]) == 0
    report = json.loads((tmp_path / "scan" / "report.json").read_text())
    capsys.readouterr()
    assert main(["probe-kam", str(cfg)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["probes"] and record["probes"] == report["results"]["probes"]
    assert record["ac_part"] == report["results"]["ac_part"]


COMMON_ARGS = {"command", "model", "cache_dir", "out_dir", "workers", "seed"}


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    for _ in range(20):
        assert main(["beta", "-p", "1", "-q", "2"]) == 2
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 19, 1)


def test_reused_parser_keeps_no_state_between_commands(capsys, monkeypatch, tmp_path,
                                                      k0_model_file):
    seen = []
    for name, fn in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name,
                            lambda args, fn=fn: seen.append(dict(vars(args))) or fn(args))
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("[model]\nfamily = frenkel-kontorova\nk = 0.0\n"
                   "[scan]\nq_max = 3\nc_grid = 11\n[probe]\ncf = 0,1,1,1,1,1\n")
    beta = ["beta", "-p", "1", "-q", "3", "--model", k0_model_file]

    assert main(beta) == 0
    first = capsys.readouterr()
    assert main(["probe-kam", str(cfg)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as usage:
        main(["beta", "-p", "one", "-q", "3"])
    assert usage.value.code == 2 and "invalid int value" in capsys.readouterr().err
    with pytest.raises(SystemExit) as help_:
        main(["--help"])
    assert help_.value.code == 0 and "probe-kam" in capsys.readouterr().out
    assert main(beta) == 0
    assert capsys.readouterr() == first

    assert [args["command"] for args in seen] == ["beta", "probe-kam", "beta"]
    assert set(seen[0]) == COMMON_ARGS | {"p", "q"}
    assert set(seen[1]) == COMMON_ARGS | {"config"}
    assert seen[2] == seen[0]


def test_cli_env_var_sets_cache_dir(tmp_path, monkeypatch, capsys, k0_model_file):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("STAIRCASE_LAB_CACHE", str(env_cache))
    rc = main(["beta", "-p", "0", "-q", "1", "--model", k0_model_file])
    assert rc == 0
    assert env_cache.exists() and any(env_cache.iterdir())


def test_cli_flag_beats_env_var(tmp_path, monkeypatch, capsys, k0_model_file):
    env_cache = tmp_path / "env"
    flag_cache = tmp_path / "flag"
    monkeypatch.setenv("STAIRCASE_LAB_CACHE", str(env_cache))
    rc = main(["beta", "-p", "0", "-q", "1", "--model", k0_model_file,
               "--cache-dir", str(flag_cache)])
    assert rc == 0
    assert flag_cache.exists() and not env_cache.exists()


def test_console_script_entry_point(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("[model]\nfamily = frenkel-kontorova\nk = 0.0\n"
                   "[scan]\nq_max = 3\nc_grid = 11\n")
    out = tmp_path / "out"
    # run the package under test, not whichever copy is installed
    src = str(Path(staircase_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "staircase_lab.cli", "scan", str(cfg),
         "--out-dir", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()
