"""staircase-lab benchmark: four workloads, end-to-end metrics, correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from `src/`.
Each workload repeats a fixed unit of work (a "pass") until --seconds is
spent and reports medians over the passes, with times scaled to a reference
host speed by a calibration kernel timed around every pass.  --trace 0 prints
the end-to-end metrics; --trace 1 spends half the time untraced and half with
every layer wrapped in spans (see spans.py) and prints the per-layer metrics,
including the tracing overhead.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment and details of the run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# BLAS runs single-threaded so cpu_s and wall_s mean the same on every commit.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# Core speed of a shared VM drifts by up to 1.5x within seconds.  A fixed
# calibration kernel is timed before and after every pass and every set-up,
# and times are reported at the reference speed: measured * CAL_REF_S / the
# median kernel time of the two bracketing calibration points.  See README.md.
CAL_REF_S = 0.008
CAL_REPEATS = 20  # kernel runs per calibration point, about 160 ms

MODEL_TEXT = "[model]\nfamily = frenkel-kontorova\nk = 2.0\n"

# scan-cold: a scaled-down version of the q_max = 6 scan, sized so that one
# cold scan takes a few seconds; the estimator and the golden probe still
# reach denominators near 1000, so both Newton fallbacks run.
SCAN_CONFIG = MODEL_TEXT + """
[scan]
q_max = 4
nu = 0.5
theta = 0.5
estimator_q = 5
c_grid = 201
seed = {seed}
workers = {workers}

[flatness]
p = 0
q = 1

[probe]
cf = 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
rho_lo = 0.5
rho_hi = 0.7
"""

QUERY_ORDER = 8  # query-warm draws from the Farey set of this order in [0, 1]
QUERY_BATCH = 500  # queries per pass

ORBIT_REQUESTS = (
    [("flatness", p, q) for p, q in ((0, 1), (1, 2), (1, 3), (2, 5))]
    + [("hyperbolicity", p, q) for p, q in ((1, 2), (2, 5), (5, 13), (13, 34))]
    + [("pn-barrier", p, q) for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8))]
)

# Tolerances against reference.json (absolute + relative to the reference).
BETA_TOL = 1e-10
SLOPE_TOL = 1e-7
REL_TOL = 1e-6
INVARIANT_TOL = 1e-9

WORKLOADS = ("scan-cold", "scan-cold-2w", "query-warm", "orbit-analysis")

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"), ("ok_ratio", "ratio"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]


@dataclasses.dataclass
class Pass:
    wall: float
    cpu: float
    latencies: list  # seconds, one per request the user waits for
    attempted: int
    failed: int
    ops: int  # rationals solved (scans) or requests completed correctly
    scale: float = 1.0  # reference speed over the speed measured around the pass


def calibration_kernel() -> int:
    """Fixed pure-Python work, about 8 ms at the reference speed.

    Interpreter-bound code tracked the host's speed changes best: over 140
    passes of all four workloads, this loop's time correlated with pass time
    more closely than small numpy, LAPACK or json/hashlib kernels did.
    """
    total = 0
    for i in range(90000):
        total += i * i % 7
    return total


class Speedometer:
    """Times the calibration kernel; keeps every point for the run's record."""

    def __init__(self):
        self.points: list[list[float]] = []

    def sample(self) -> list[float]:
        """One calibration point: CAL_REPEATS timed kernel runs."""
        times = []
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - start)
        self.points.append(times)
        return times

    @staticmethod
    def scale(before: list[float], after: list[float]) -> float:
        """Reference speed over the speed measured around one interval."""
        return CAL_REF_S / statistics.median(before + after)


class Checker:
    """Collects correctness errors; any error makes the run incorrect."""

    def __init__(self):
        self.errors: list[str] = []

    def error(self, message: str) -> None:
        self.errors.append(message)

    def close(self, what: str, got, want, atol: float) -> bool:
        if isinstance(want, str) or want is None or isinstance(want, bool):
            ok = got == want
        elif isinstance(want, list):
            ok = (isinstance(got, list) and len(got) == len(want)
                  and all(self.close(what, g, w, atol) for g, w in zip(got, want)))
            return ok
        elif isinstance(want, dict):
            ok = (isinstance(got, dict) and got.keys() == want.keys()
                  and all(self.close(f"{what}.{k}", got[k], want[k], atol) for k in want))
            return ok
        else:
            ok = (isinstance(got, (int, float)) and math.isfinite(got)
                  and abs(got - want) <= atol + REL_TOL * abs(want))
        if not ok:
            self.error(f"{what}: got {got!r}, reference {want!r}")
        return ok


def cpu_now() -> float:
    """CPU seconds of this process plus its finished children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def call_cli(cli, argv):
    """In-process `staircase-lab ARGV`; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def import_probe() -> None:
    """Fresh-interpreter import of the package, as every CLI invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # no timeout: Popen.wait(timeout) polls in 50 ms steps and quantizes setup_s
    subprocess.run([sys.executable, "-c", "import staircase_lab.cli"], env=env, check=True)


def farey(order: int) -> list[tuple[int, int]]:
    rats = sorted({Fraction(p, q) for q in range(1, order + 1) for p in range(q + 1)})
    return [(r.numerator, r.denominator) for r in rats]


def read_csv(data: bytes) -> list[list[str]]:
    lines = data.decode().splitlines()
    return [line.split(",") for line in lines[1:]]


# ---- workloads ------------------------------------------------------------------


class ScanWorkload:
    """Cold-cache run_scan; every pass gets a fresh cache and output directory."""

    def __init__(self, seed: int, workers: int, reference: dict, checker: Checker):
        from staircase_lab import scan
        self.scan = scan
        self.text = SCAN_CONFIG.format(seed=seed, workers=workers)
        self.ref = reference["scan"]
        self.checker = checker
        self.first = None  # artifacts of the first pass
        self.first_bad = 0

    def setup(self, k: int) -> None:
        import_probe()

    def run_pass(self, i: int) -> Pass:
        d = WORK / f"scan-{i}"
        config = dataclasses.replace(self.scan.parse_scan_config(self.text),
                                     out_dir=str(d / "out"), cache_dir=str(d / "cache"))
        start, cpu0 = time.perf_counter(), cpu_now()
        code, report = self.scan.run_scan(config)
        wall, cpu = time.perf_counter() - start, cpu_now() - cpu0
        artifacts = {p.name: p.read_bytes() for p in sorted((d / "out").iterdir())}
        shutil.rmtree(d)
        expected = len(self.ref["beta"])
        if code != 0 or "error" in report:
            self.checker.error(f"scan pass {i} exited {code}: {report.get('error')}")
            return Pass(wall, cpu, [wall], expected, expected, 0)
        rows = len(read_csv(artifacts["beta.csv"]))
        if self.first is None:
            self.first = artifacts
            self.first_bad = self.check(artifacts, report)
        elif artifacts != self.first:
            names = sorted(n for n in set(artifacts) | set(self.first)
                           if artifacts.get(n) != self.first.get(n))
            self.checker.error(f"scan pass {i} artifacts differ from pass 0: {names}")
            bad = self.check(artifacts, report)
            return Pass(wall, cpu, [wall], rows, bad, rows - bad)
        return Pass(wall, cpu, [wall], rows, self.first_bad, rows - self.first_bad)

    def check(self, artifacts: dict, report: dict) -> int:
        """Reference values plus invariants; returns the number of bad rationals."""
        c = self.checker
        results = report["results"]
        bad = len(results["failures"])
        if results["failures"]:
            c.error(f"scan failures: {results['failures']}")
        rows = read_csv(artifacts["beta.csv"])
        got = {f"{r[0]}/{r[1]}": [float(x) for x in r[3:6]] for r in rows}
        if got.keys() != self.ref["beta"].keys():
            c.error(f"scan solved {sorted(got.keys() ^ self.ref['beta'].keys())} "
                    "differently from the reference set")
        for key, want in self.ref["beta"].items():
            if key not in got:
                bad += 1
                continue
            b, cm, cp = got[key]
            ok = c.close(f"beta({key})", b, want[0], BETA_TOL)
            if want[1] is not None:
                ok &= c.close(f"c_minus({key})", cm, want[1], SLOPE_TOL)
                ok &= c.close(f"c_plus({key})", cp, want[2], SLOPE_TOL)
                if not cm <= cp + INVARIANT_TOL:
                    c.error(f"c_minus > c_plus at {key}")
                    ok = False
            bad += not ok
        c.close("L_of_Q", results["L_of_Q"], self.ref["L_of_Q"], 1e-9)
        # convexity: secant slopes of beta nondecreasing in rho
        pts = sorted((Fraction(int(r[0]), int(r[1])), float(r[3])) for r in rows)
        slopes = [(b2 - b1) / float(r2 - r1) for (r1, b1), (r2, b2) in zip(pts, pts[1:])]
        for j, (s1, s2) in enumerate(zip(slopes, slopes[1:])):
            if s2 < s1 - 1e-6 * max(1.0, abs(s1)):
                c.error(f"beta not convex at {pts[j + 1][0]}: slopes {s1} > {s2}")
        intervals = sorted((float(r[-3]), float(r[-2])) for r in read_csv(artifacts["locking.csv"]))
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            if hi1 > lo2 + INVARIANT_TOL:
                c.error(f"locking intervals overlap: [{lo1}, {hi1}] and [{lo2}, {hi2}]")
        return bad


class QueryWorkload:
    """Closed loop, one client: `beta` queries against a pre-filled cache."""

    def __init__(self, seed: int, reference: dict, checker: Checker):
        from staircase_lab import cli
        self.cli = cli
        self.seed = seed
        self.rng = random.Random(seed)
        self.rationals = farey(QUERY_ORDER)
        self.ref = reference["query"]
        self.checker = checker
        self.model = WORK / "fk2.model"
        self.caches: list[Path] = []
        self.seen: dict[tuple[int, int], str] = {}
        self.verdict: dict[str, bool] = {}

    def argv(self, p: int, q: int, cache: Path) -> list[str]:
        return ["beta", "-p", str(p), "-q", str(q), "--model", str(self.model),
                "--cache-dir", str(cache), "--seed", str(self.seed)]

    def setup(self, k: int) -> None:
        import_probe()
        self.model.write_text(MODEL_TEXT)
        cache = WORK / f"query-cache-{k}"
        for p, q in self.rationals:
            code, out, err, _ = call_cli(self.cli, self.argv(p, q, cache))
            if code != 0:
                self.checker.error(f"prefill beta {p}/{q} exited {code}: {err.strip()}")
        records = {f.name: f.read_bytes() for f in sorted(cache.rglob("*.json"))}
        if self.caches:
            first = {f.name: f.read_bytes() for f in sorted(self.caches[0].rglob("*.json"))}
            if records != first:
                self.checker.error(f"prefill {k} wrote other cache records than prefill 0")
        self.caches.append(cache)

    def run_pass(self, i: int) -> Pass:
        picks = [self.rng.choice(self.rationals) for _ in range(QUERY_BATCH)]
        results = []
        start, cpu0 = time.perf_counter(), cpu_now()
        for p, q in picks:
            results.append(call_cli(self.cli, self.argv(p, q, self.caches[0])))
        wall, cpu = time.perf_counter() - start, cpu_now() - cpu0
        failed = sum(not self.check(pq, r) for pq, r in zip(picks, results))
        return Pass(wall, cpu, [r[3] for r in results], QUERY_BATCH, failed,
                    QUERY_BATCH - failed)

    def check(self, pq, result) -> bool:
        code, out, err, _ = result
        if code != 0:
            self.checker.error(f"beta {pq[0]}/{pq[1]} exited {code}: {err.strip()}")
            return False
        first = self.seen.setdefault(pq, out)
        if out != first:
            self.checker.error(f"beta {pq[0]}/{pq[1]} output changed between queries")
            return False
        if out not in self.verdict:
            got = json.loads(out)
            want = self.ref[f"{pq[0]}/{pq[1]}"]
            c = self.checker
            self.verdict[out] = (
                c.close(f"beta({pq})", got["beta"], want[0], BETA_TOL)
                & c.close(f"c_minus({pq})", got["c_minus"], want[1], SLOPE_TOL)
                & c.close(f"c_plus({pq})", got["c_plus"], want[2], SLOPE_TOL)
            )
        return self.verdict[out]


class OrbitWorkload:
    """One-shot flatness, hyperbolicity and pn-barrier commands, no cache."""

    def __init__(self, seed: int, reference: dict, checker: Checker):
        from staircase_lab import cli
        self.cli = cli
        self.seed = seed
        self.ref = reference["orbit"]
        self.checker = checker
        self.model = WORK / "fk2.model"
        self.first: dict[str, tuple] = {}

    def setup(self, k: int) -> None:
        import_probe()
        self.model.write_text(MODEL_TEXT)

    def run_pass(self, i: int) -> Pass:
        results = []
        start, cpu0 = time.perf_counter(), cpu_now()
        for cmd, p, q in ORBIT_REQUESTS:
            argv = [cmd, "-p", str(p), "-q", str(q), "--model", str(self.model),
                    "--seed", str(self.seed)]
            results.append(call_cli(self.cli, argv))
        wall, cpu = time.perf_counter() - start, cpu_now() - cpu0
        failed = 0
        for (cmd, p, q), (code, out, err, _) in zip(ORBIT_REQUESTS, results):
            key = f"{cmd} {p}/{q}"
            first = self.first.setdefault(key, (code, out))
            if (code, out) != first:
                self.checker.error(f"{key}: output changed between passes")
            want = self.ref[key]
            if code != 0:
                failed += 1
                if want is not None:
                    self.checker.error(f"{key} exited {code}: {err.strip()}")
                continue
            got = json.loads(out)
            if want is None:
                # failed when the reference was recorded; now only sanity-checked
                ok = all(math.isfinite(v) for v in got.values() if isinstance(v, float))
                if not ok:
                    self.checker.error(f"{key}: non-finite output {got}")
            else:
                ok = self.checker.close(key, {k: got.get(k) for k in want}, want, 1e-9)
            failed += not ok
        n = len(ORBIT_REQUESTS)
        return Pass(wall, cpu, [r[3] for r in results], n, failed, n - failed)


def make_workload(name: str, seed: int, reference: dict, checker: Checker):
    if name == "scan-cold":
        return ScanWorkload(seed, 1, reference, checker)
    if name == "scan-cold-2w":
        return ScanWorkload(seed, 2, reference, checker)
    if name == "query-warm":
        return QueryWorkload(seed, reference, checker)
    return OrbitWorkload(seed, reference, checker)


# ---- measurement ----------------------------------------------------------------


def timed_passes(workload, budget: float, speed: Speedometer,
                 first_index: int = 0) -> list[Pass]:
    """Passes until the next one would overrun the budget (at least one)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    before = speed.sample()
    while True:
        passes.append(workload.run_pass(first_index + len(passes)))
        after = speed.sample()
        passes[-1].scale = speed.scale(before, after)
        before = after
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > budget:
            return passes


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict[str, float]:
    """Times at the reference speed; setup_times are already scaled."""
    latencies = sorted(lat * p.scale for p in passes for lat in p.latencies)
    attempted = sum(p.attempted for p in passes)
    return {
        "wall_s": statistics.median(p.wall * p.scale for p in passes),
        "cpu_s": statistics.median(p.cpu * p.scale for p in passes),
        "ops_per_s": statistics.median(p.ops / (p.wall * p.scale) for p in passes),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "ok_ratio": 1.0 - sum(p.failed for p in passes) / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---- environment ----------------------------------------------------------------


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "staircase_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ---- entry point ----------------------------------------------------------------


def measure(args, checker: Checker, reference: dict) -> tuple[dict, dict]:
    workload = make_workload(args.workload, args.seed, reference, checker)
    repeats = 1 if args.trace else SETUP_REPEATS
    speed = Speedometer()
    setup_walls, setup_times = [], []
    before = speed.sample()
    for k in range(repeats):
        start = time.perf_counter()
        workload.setup(k)
        setup_walls.append(time.perf_counter() - start)
        after = speed.sample()
        setup_times.append(setup_walls[-1] * speed.scale(before, after))
        before = after
    if not args.trace:
        passes = timed_passes(workload, args.seconds, speed)
        metrics = end_to_end(passes, setup_times)
        units = dict(END_TO_END)
    else:
        import spans
        plain = timed_passes(workload, args.seconds / 2, speed)
        rec = spans.Recorder()
        spans.install(rec)
        try:
            traced = timed_passes(workload, args.seconds / 2, speed, len(plain))
        finally:
            rec.uninstall()
        overhead = (statistics.median(p.wall * p.scale for p in traced)
                    / statistics.median(p.wall * p.scale for p in plain))
        passes = plain + traced
        metrics = spans.layer_metrics(rec, len(traced), overhead)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "pass_walls": [p.wall for p in passes],
        "pass_scales": [p.scale for p in passes],
        "latency_samples": sum(len(p.latencies) for p in passes),
        "setup_walls": setup_walls,
        "calibration_s": [statistics.median(t) for t in speed.points],
    }
    result = {
        "correct": not checker.errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def pin_environment() -> None:
    """Pins thread counts, drops the cache override and puts src/ on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("STAIRCASE_LAB_CACHE", None)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "staircase_lab" / "__init__.py").is_file():
        print(f"error: no staircase_lab package under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    reference = json.loads(REFERENCE.read_text())
    checker = Checker()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        result, detail = measure(args, checker, reference)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    detail["errors"] = checker.errors[:20]
    detail["n_errors"] = len(checker.errors)
    detail["env"] = environment()
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
