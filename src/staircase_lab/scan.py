"""Scan orchestration: config files, the Farey-grid driver, and table export.

A scan walks the Farey grid up to Q_max, fills the beta cache, measures
locking intervals and the completeness ratio L(Q) along a dyadic ladder,
evaluates truncated variation/Hausdorff estimators, and runs any requested
flatness curves and KAM-regime probes.  Results land in a fixed set of CSV
files plus a canonical report.json.

Every solve that no earlier result decides (work_list) and that has no cache
record runs first (pool_solves), as the same stacked solve at every worker
count: one Newton stack per chunk of `workers` chunks, in-process at one
worker.  The results stay in memory and the serial pass takes them on its
cache misses instead of solving.  Only the adaptive refinement of a flatness
slope and the one configuration a flatness curve builds its loops on are
solved in the serial pass.  The one-shot flatness command solves its
target's flatness_rationals the same way, in-process.  With a fixed seed
two runs of one config text produce byte-identical artifacts and cache
records at any worker count set on top of that text (--workers), and a warm
cache changes nothing but the wall time; report.json's config_digest hashes
the text, workers line and all.

This module alone knows the stage order: grid (grid_table), window
(cohomology_window), locking, estimators, staircase (staircase_stage),
flatness, then probes and ac-part (probe_stages).  probe_kam runs the grid,
window, staircase and probe stages in that order.  Every stage after the
grid runs through _attempt, which records a StaircaseLabError as a failure
instead of aborting the run.

Importing this module loads LAPACK (solvers.lapack), which every scan needs;
the command line imports it only in the commands that use it.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .cache import BetaCache, render_json
from .errors import ConfigError, InsufficientSamples, StaircaseLabError
from .flatness import flatness_bound, flatness_curve, loop_rational, loop_t_grid
from .model import GeneratingModel, model_from_sections, parse_float, parse_sections
from .solvers import SolveOptions, lapack
from .staircase import (
    DERIVATIVE_DEPTH,
    BetaTable,
    ac_part_probe,
    completeness_measure,
    convexity_probe,
    estimator_rationals,
    farey_enumerate,
    hausdorff_estimator,
    legendre,
    locking_intervals,
    mediant_chain,
    normalize_rational,
    probe_convergents,
    shifted_rational,
    slope_mediants,
    variation_estimator,
)
from .variational import minimize_periodic_many

# A scan always solves: load LAPACK now, not in its first pass or in each forked worker.
lapack()

_SCAN_KEYS = {
    "q_max",
    "h_lo",
    "h_hi",
    "c_lo",
    "c_hi",
    "nu",
    "theta",
    "estimator_q",
    "c_grid",
    "derivative_depth",
    "workers",
    "seed",
    "cache_dir",
    "out_dir",
}
_FLATNESS_KEYS = {"p", "q", "t_grid"}
_PROBE_KEYS = {"cf", "delta", "rho_lo", "rho_hi"}


@dataclass
class FlatnessTarget:
    p: int
    q: int
    t_grid: tuple[int, ...] | None = None


@dataclass
class ProbeTarget:
    cf: tuple[int, ...]
    delta: float = 0.3
    window: tuple[float, float] | None = None


@dataclass
class ScanConfig:
    """Parsed scan request: the model plus every knob of the experiment."""

    model: GeneratingModel
    q_max: int
    h_lo: float = 0.0
    h_hi: float = 1.0
    c_lo: float | None = None
    c_hi: float | None = None
    nus: tuple[float, ...] = ()
    thetas: tuple[float, ...] = ()
    estimator_q: int | None = None
    c_grid: int = 201
    derivative_depth: int = DERIVATIVE_DEPTH
    workers: int = 1
    seed: int = 0
    cache_dir: str | None = None
    out_dir: str | None = None
    flatness_targets: tuple[FlatnessTarget, ...] = ()
    probes: tuple[ProbeTarget, ...] = ()
    raw_text: str = ""

    @property
    def config_digest(self) -> str:
        return hashlib.sha256(self.raw_text.encode("utf-8")).hexdigest()

    @property
    def options(self) -> SolveOptions:
        return SolveOptions(seed=self.seed)

    @property
    def rotation_window(self) -> tuple[Fraction, Fraction]:
        """h_lo and h_hi snapped to the nearest rationals with q <= q_max:
        the ends of the base grid, of the c-window and of the locking table."""
        return tuple(Fraction(h).limit_denominator(self.q_max) for h in (self.h_lo, self.h_hi))


def _parse_int(section: str, data: dict, key: str, default=None) -> int:
    if key not in data:
        if default is None:
            raise ConfigError(f"[{section}] missing required key {key!r}")
        return default
    try:
        return int(data[key])
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {data[key]!r} is not an integer") from exc


def _parse_list(section: str, data: dict, key: str, cast):
    if key not in data or not data[key].strip():
        return ()
    out = []
    for item in data[key].split(","):
        try:
            out.append(cast(item.strip()))
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] {key} has a bad entry {item.strip()!r}"
            ) from exc
    return tuple(out)


def parse_scan_config(text: str, require_scan: bool = True) -> ScanConfig:
    """Parses the sectioned config format into a validated ScanConfig.

    Sections: one [model] (plus optional [harmonic] blocks, both as in the
    model file format), at most one [scan], and any number of [flatness] and
    [probe] blocks.  Unknown sections or keys raise ConfigError.
    """
    sections = parse_sections(text)
    model_sections = [(n, d) for n, d in sections if n in ("model", "harmonic")]
    model = model_from_sections(model_sections)

    scan_data: dict | None = None
    flatness_targets: list[FlatnessTarget] = []
    probes: list[ProbeTarget] = []
    for name, data in sections:
        if name in ("model", "harmonic"):
            continue
        if name == "scan":
            if scan_data is not None:
                raise ConfigError("more than one [scan] section")
            unknown = set(data) - _SCAN_KEYS
            if unknown:
                raise ConfigError(f"[scan] unknown keys {sorted(unknown)}")
            scan_data = data
        elif name == "flatness":
            unknown = set(data) - _FLATNESS_KEYS
            if unknown:
                raise ConfigError(f"[flatness] unknown keys {sorted(unknown)}")
            p = _parse_int("flatness", data, "p")
            q = _parse_int("flatness", data, "q")
            if q < 1:
                raise ConfigError(f"[flatness] q must be positive, got {q}")
            grid = _parse_list("flatness", data, "t_grid", int)
            if grid and any(t < 1 for t in grid):
                raise ConfigError(f"[flatness] t_grid entries must be positive: {grid}")
            loop_t_grid(normalize_rational(p, q)[1], grid or None)  # no default T past q = 1024
            flatness_targets.append(FlatnessTarget(p, q, grid or None))
        elif name == "probe":
            unknown = set(data) - _PROBE_KEYS
            if unknown:
                raise ConfigError(f"[probe] unknown keys {sorted(unknown)}")
            cf = _parse_list("probe", data, "cf", int)
            if not cf:
                raise ConfigError("[probe] missing required key 'cf'")
            delta = parse_float("probe", data, "delta", 0.3)
            rho_lo = parse_float("probe", data, "rho_lo")
            rho_hi = parse_float("probe", data, "rho_hi")
            if (rho_lo is None) != (rho_hi is None):
                raise ConfigError("[probe] rho_lo and rho_hi must come together")
            window = None
            if rho_lo is not None:
                if not rho_lo < rho_hi:
                    raise ConfigError(
                        f"[probe] empty window [{rho_lo}, {rho_hi}]"
                    )
                window = (rho_lo, rho_hi)
            probes.append(ProbeTarget(cf, delta, window))
        else:
            raise ConfigError(f"unknown section [{name}] in scan config")

    if scan_data is None:
        if require_scan:
            raise ConfigError("missing [scan] section")
        scan_data = {}

    q_max = _parse_int("scan", scan_data, "q_max", 16)
    if q_max < 1:
        raise ConfigError(f"[scan] q_max must be >= 1, got {q_max}")
    h_lo = parse_float("scan", scan_data, "h_lo", 0.0)
    h_hi = parse_float("scan", scan_data, "h_hi", 1.0)
    if not h_lo < h_hi:
        raise ConfigError(f"[scan] degenerate homology range [{h_lo}, {h_hi}]")
    c_lo = parse_float("scan", scan_data, "c_lo")
    c_hi = parse_float("scan", scan_data, "c_hi")
    for key, value in (("h_lo", h_lo), ("h_hi", h_hi), ("c_lo", c_lo), ("c_hi", c_hi)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"[scan] {key} must be finite, got {value}")
    if (c_lo is None) != (c_hi is None):
        raise ConfigError("[scan] c_lo and c_hi must come together")
    if c_lo is not None and not c_lo < c_hi:
        raise ConfigError(f"[scan] degenerate cohomology range [{c_lo}, {c_hi}]")
    nus = _parse_list("scan", scan_data, "nu", float)
    if any(not 0.0 < nu < 1.0 for nu in nus):
        raise ConfigError(f"[scan] nu values must lie in (0,1): {nus}")
    thetas = _parse_list("scan", scan_data, "theta", float)
    if any(not 0.0 < th <= 1.0 for th in thetas):
        raise ConfigError(f"[scan] theta values must lie in (0,1]: {thetas}")
    if thetas and not nus:
        raise ConfigError("[scan] theta given without any nu")
    estimator_q = _parse_int("scan", scan_data, "estimator_q", 0)
    if estimator_q < 0:
        raise ConfigError(f"[scan] estimator_q must be >= 0, got {estimator_q}")
    if 0 < estimator_q <= q_max:
        # no rational of a ladder Q >= estimator_q would carry a term
        raise ConfigError(f"[scan] estimator_q must be 0 or > q_max = {q_max}, got {estimator_q}")
    c_grid = _parse_int("scan", scan_data, "c_grid", 201)
    if c_grid < 2:
        raise ConfigError(f"[scan] c_grid must be >= 2, got {c_grid}")
    depth = _parse_int("scan", scan_data, "derivative_depth", DERIVATIVE_DEPTH)
    if depth < 2:
        # BetaTable.one_sided extrapolates from the two deepest secants
        raise ConfigError(f"[scan] derivative_depth must be >= 2, got {depth}")
    workers = _parse_int("scan", scan_data, "workers", 1)
    if workers < 1:
        raise ConfigError(f"[scan] workers must be >= 1, got {workers}")
    seed = _parse_int("scan", scan_data, "seed", 0)
    if seed < 0:
        raise ConfigError(f"[scan] seed must be >= 0, got {seed}")

    return ScanConfig(
        model=model,
        q_max=q_max,
        h_lo=h_lo,
        h_hi=h_hi,
        c_lo=c_lo,
        c_hi=c_hi,
        nus=nus,
        thetas=thetas,
        estimator_q=estimator_q or None,
        c_grid=c_grid,
        derivative_depth=depth,
        workers=workers,
        seed=seed,
        cache_dir=scan_data.get("cache_dir"),
        out_dir=scan_data.get("out_dir"),
        flatness_targets=tuple(flatness_targets),
        probes=tuple(probes),
        raw_text=text,
    )


def load_scan_config(path) -> ScanConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scan_config(fh.read())


# ---- grid enumeration ----------------------------------------------------------


def _sorted_pairs(fracs) -> list[tuple[int, int]]:
    ordered = sorted(fracs, key=lambda f: (f.denominator, f))
    return [(r.numerator, r.denominator) for r in ordered]


def base_rationals(config: ScanConfig) -> list[tuple[int, int]]:
    """The Farey grid of order q_max on the rotation window, by (q, p); these
    are the rationals whose one-sided derivatives the scan certifies."""
    return sorted(farey_enumerate(config.q_max, *config.rotation_window),
                  key=lambda r: (r[1], r[0]))


def scan_rationals(config: ScanConfig) -> list[tuple[int, int]]:
    """Every rational the grid fill will solve: the base rationals and the
    mediant chains their one-sided derivatives consume."""
    base = base_rationals(config)
    full = {Fraction(p, q) for p, q in base}
    for p, q in base:
        for side in ("left", "right"):
            for j in range(1, config.derivative_depth + 1):
                full.add(mediant_chain(p, q, side, j))
    return _sorted_pairs(full)


def probe_rationals(config: ScanConfig) -> list[tuple[int, int]]:
    """The convergents every [probe] samples (none for a probe that has too few)."""
    rats = set()
    for target in config.probes:
        try:
            _, left, right = probe_convergents(target.cf, target.delta)
        except InsufficientSamples:
            continue
        rats.update(Fraction(p, q) for p, q in left + right)
    return _sorted_pairs(rats)


def flatness_rationals(p: int, q: int, t_grid=None) -> list[tuple[int, int]]:
    """The rationals whose beta flatness_curve at p/q reads before its
    adaptive refinement: p/q, the mediants of its first refinement step and
    its loop rationals (loop_t_grid: a ConfigError if no default T fits)."""
    p, q = normalize_rational(p, q)
    rats = {Fraction(p, q), *(loop_rational(p, q, T) for T in loop_t_grid(q, t_grid))}
    rats.update(*slope_mediants(p, q))
    return _sorted_pairs(rats)


def work_list(config: ScanConfig) -> list[tuple[int, int]]:
    """Every rational the scan solves that no earlier result decides.

    The grid and its mediant chains; for each ladder Q and estimator term p/q,
    p/q with the mediants its one-sided slope reads and its shifted rational
    for each nu; the probe convergents; and for each flatness target, p/q with
    the mediants of its first refinement step and its loop rationals
    (flatness_rationals).  The deeper refinement mediants, which depend on
    the bracket widths, are left to the serial pass.
    """
    rats = {Fraction(p, q) for p, q in scan_rationals(config) + probe_rationals(config)}
    if config.nus:
        for Q in _dyadic_ladder(config.q_max):
            for p, q in estimator_rationals(Q, config.estimator_q):
                rats.add(Fraction(p, q))
                rats.update(*slope_mediants(p, q))
                rats.update(shifted_rational(p, q, nu) for nu in config.nus)
    for target in config.flatness_targets:
        rats.update(Fraction(p, q) for p, q in
                    flatness_rationals(target.p, target.q, target.t_grid))
    return _sorted_pairs(rats)


def _chunks(todo, n: int) -> list[list[tuple[int, int]]]:
    """todo dealt into min(n, len(todo)) non-empty chunks: by descending q,
    each rational to the first chunk with the smallest sum of q so far."""
    chunks: list[list[tuple[int, int]]] = [[] for _ in range(min(n, len(todo)))]
    for r in sorted(todo, key=lambda r: -r[1]):
        min(chunks, key=lambda chunk: sum(q for _, q in chunk)).append(r)
    return chunks


def pool_solves(model: GeneratingModel, options: SolveOptions, cache: BetaCache | None,
                rationals, workers: int) -> dict:
    """Solves the rationals without a cache record ahead of the serial pass
    (of grid_table, and of the flatness command at one worker).

    Returns {(p, q): configuration or typed error} for BetaTable.bind(...,
    pooled=...).  Every worker count runs the same stacked solve: `workers`
    chunks (_chunks), each one Newton stack (minimize_periodic_many), in
    which each rational gets bit for bit what it gets alone; in-process at
    workers = 1, one pool task per chunk otherwise.  Nothing is written
    here: the serial pass takes each result on its cache miss and writes it
    as it would a solve of its own, so the cache holds the same records at
    any worker count, and a rational that failed here re-raises its error
    instead of being solved again.
    """
    todo = [(p, q) for p, q in rationals
            if cache is None or not cache.record_path(model.model_hash, p, q).exists()]
    if len(todo) < 2:
        return {}
    chunks = _chunks(todo, workers)
    if len(chunks) == 1:
        return minimize_periodic_many(model, chunks[0], options)
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(minimize_periodic_many, model, chunk, options)
                   for chunk in chunks]
        return {r: solved for fut in futures for r, solved in fut.result().items()}


# ---- csv / json rendering -------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows) -> None:
    """Writes rows of mixed scalars with canonical float rendering (17 sig figs)."""
    lines = [",".join(_cell(h) for h in header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(report) + "\n")


def write_flatness_csv(out: Path, curve) -> None:
    """Writes out/flatness_<p>_<q>.csv, one (T, delta, u, zeta_upper,
    bound_value) row per sample of the curve."""
    rows = []
    for T, delta, u, zeta in zip(curve.T_values, curve.deltas,
                                 curve.u_values, curve.zeta_upper_bounds):
        bound = (flatness_bound(curve.q, delta, curve.C_fit, curve.lambda_fit)
                 if math.isfinite(curve.C_fit) else float("nan"))
        rows.append((T, delta, u, zeta, bound))
    write_csv(out / f"flatness_{curve.p}_{curve.q}.csv",
              ("T", "delta", "u", "zeta_upper", "bound_value"), rows)


def flatness_record(curve) -> dict:
    """The report record of one flatness curve (scan report and CLI stdout)."""
    return {
        "p": curve.p, "q": curve.q, "c_plus": curve.c_plus,
        "C_fit": curve.C_fit, "lambda_fit": curve.lambda_fit,
        "lambda_monodromy": curve.lambda_monodromy, "verdict": curve.verdict,
    }


# ---- the scan driver ------------------------------------------------------------


def _attempt(failures: list, stage: str, fn, *args, **where):
    """fn(*args); on a StaircaseLabError, appends {**where, "stage", "error",
    "message"} to failures and returns None."""
    try:
        return fn(*args)
    except StaircaseLabError as exc:
        failures.append({**where, "stage": stage, "error": type(exc).__name__,
                         "message": str(exc)})
        return None


def _dyadic_ladder(q_max: int) -> list[int]:
    ladder = []
    q = 4
    while q < q_max:
        ladder.append(q)
        q *= 2
    ladder.append(q_max)
    return sorted(set(ladder))


def fill_table(table: BetaTable, config: ScanConfig, tasks, failures) -> None:
    """Enters every (p,q) task into the table, then certifies one-sided
    derivatives on the base rationals.

    This is the serial pass: a table bound to pool_solves results takes them
    on its cache misses, so failures are recorded here alone, in task order,
    and the list is identical for any worker count.
    """
    for p, q in tasks:
        _attempt(failures, "beta", table.beta, p, q, p=p, q=q)
    for p, q in base_rationals(config):
        _attempt(failures, "derivative", table.one_sided, p, q, config.derivative_depth,
                 p=p, q=q)


def grid_table(config: ScanConfig, cache: BetaCache | None, rationals):
    """(table, failures) after the twist check, pool_solves of the rationals
    and fill_table over scan_rationals."""
    config.model.check_twist()
    pooled = pool_solves(config.model, config.options, cache, rationals, config.workers)
    table = BetaTable.bind(config.model, *config.rotation_window, cache=cache,
                           options=config.options, pooled=pooled)
    failures: list[dict] = []
    fill_table(table, config, scan_rationals(config), failures)
    return table, failures


def cohomology_window(table: BetaTable, config: ScanConfig, failures):
    if config.c_lo is not None:
        return config.c_lo, config.c_hi
    lo, hi = config.rotation_window

    def ends():
        return (table.one_sided(lo.numerator, lo.denominator, config.derivative_depth)[0],
                table.one_sided(hi.numerator, hi.denominator, config.derivative_depth)[1])

    return _attempt(failures, "window", ends)


def staircase_stage(table: BetaTable, config: ScanConfig, window, failures):
    """legendre over c_grid points of the window; None without a window."""
    if window is None:
        return None
    return _attempt(failures, "staircase", legendre,
                    table, np.linspace(window[0], window[1], config.c_grid))


def probe_stages(table: BetaTable, config: ScanConfig, stair, failures) -> dict:
    """{"probes": one convexity-probe record per target}, plus "ac_part", the
    Lipschitz lower bound on the unlocked measure, when a probe has a window
    and the staircase exists.  A failing probe goes to failures."""
    records = []
    for target in config.probes:
        res = _attempt(failures, f"probe cf={list(target.cf)}",
                       convexity_probe, table, target.cf, target.delta)
        if res is not None:
            records.append({
                "cf": list(target.cf), "target": res.target, "c_low": res.c_low,
                "C_high": res.C_high, "slope": res.slope, "intercept": res.intercept,
                "n_samples": res.n_samples,
            })
    out: dict = {"probes": records}
    windows = [t.window for t in config.probes if t.window is not None]
    if windows and stair is not None:
        ac = ac_part_probe(stair, windows)
        out["ac_part"] = {
            "bound": ac.bound, "lipschitz": ac.lipschitz,
            "c_windows": [list(w) for w in ac.c_windows], "n_segments": ac.n_segments,
        }
    return out


def probe_kam(config: ScanConfig) -> dict:
    """The probe-kam report: the grid stage on the scan and probe rationals,
    the window and staircase stages when a probe has a window, then the probe
    stages.  With nu set, the scan's estimator terms also enter its staircase,
    so ac_part may differ from the scan's."""
    cache = BetaCache(config.cache_dir) if config.cache_dir else None
    table, failures = grid_table(config, cache,
                                 scan_rationals(config) + probe_rationals(config))
    stair = None
    if any(t.window is not None for t in config.probes):
        stair = staircase_stage(table, config, cohomology_window(table, config, failures),
                                failures)
    return {
        "model": {"hash": config.model.model_hash, **config.model.to_config_dict()},
        "config_digest": config.config_digest,
        **probe_stages(table, config, stair, failures),
        "failures": failures,
    }


def run_scan(config: ScanConfig):
    """Runs the whole experiment described by config.

    Returns (exit_status, report).  Exit 0 means the artifact set was written;
    isolated per-rational failures are recorded in the report, not fatal.  A
    fatal error (twist violation, nonconvex beta table, unwritable output)
    yields a nonzero status and a report.json carrying the error record.
    """
    if config.out_dir is None:
        raise ConfigError("scan requires an output directory: [scan] out_dir or --out-dir")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {
        "tool_version": __version__,
        "model": {"hash": config.model.model_hash, **config.model.to_config_dict()},
        "config_digest": config.config_digest,
        "results": {},
    }
    try:
        code = _run_scan_inner(config, out, report)
    except (StaircaseLabError, ValueError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        write_report(out / "report.json", report)
        return 1, report
    write_report(out / "report.json", report)
    return code, report


def _run_scan_inner(config: ScanConfig, out: Path, report: dict) -> int:
    cache = BetaCache(config.cache_dir or str(out / "cache"))
    table, failures = grid_table(config, cache, work_list(config))
    results = report["results"]

    window = cohomology_window(table, config, failures)
    ladder = _dyadic_ladder(config.q_max)

    locking_rows = []
    l_of_q = []
    if window is not None:
        c1, c2 = window
        results["c_window"] = [c1, c2]
        intervals = []
        for Q in ladder:
            found = _attempt(failures, f"locking Q={Q}", locking_intervals,
                             table, Q, c1, c2, config.derivative_depth)
            if found is not None:  # [] is a valid answer
                intervals = found
                l_of_q.append((Q, completeness_measure(intervals, c1, c2)))
        locking_rows = [
            (f"{iv.p}/{iv.q}", iv.c_minus, iv.c_plus, iv.width) for iv in intervals
        ]
    write_csv(out / "locking.csv", ("(p,q)", "c_minus", "c_plus", "width"), locking_rows)
    results["L_of_Q"] = [[Q, val] for Q, val in l_of_q]

    estimator_rows: list[tuple] = [("L", "", "", Q, val) for Q, val in l_of_q]
    for nu in config.nus:
        for Q in ladder:
            val = _attempt(failures, f"variation nu={nu} Q={Q}",
                           variation_estimator, table, nu, Q, config.estimator_q)
            if val is not None:
                estimator_rows.append(("variation", nu, "", Q, val))
    for nu in config.nus:
        for theta in config.thetas:
            for Q in ladder:
                val = _attempt(failures, f"hausdorff nu={nu} theta={theta} Q={Q}",
                               hausdorff_estimator, table, nu, theta, Q, config.estimator_q)
                if val is not None:
                    estimator_rows.append(("hausdorff", nu, theta, Q, val))
    write_csv(out / "estimators.csv", ("kind", "nu", "theta", "Q", "value"),
              estimator_rows)
    results["estimators"] = [
        {"kind": k, "nu": nu if nu != "" else None, "theta": th if th != "" else None,
         "Q": Q, "value": val}
        for k, nu, th, Q, val in estimator_rows
    ]

    stair = staircase_stage(table, config, window, failures)
    write_csv(out / "staircase.csv", ("c", "d_alpha"),
              list(stair.d_alpha) if stair is not None else [])

    beta_rows = [
        (e.p, e.q, e.rho, e.beta, e.c_minus, e.c_plus, e.bracket_width)
        for e in table.entries()
    ]
    write_csv(out / "beta.csv",
              ("p", "q", "rho", "beta", "c_minus", "c_plus", "bracket_width"),
              beta_rows)

    flatness_records = []
    for target in config.flatness_targets:
        curve = _attempt(failures, f"flatness {target.p}/{target.q}", flatness_curve,
                         config.model, target.p, target.q, target.t_grid, table,
                         config.options)
        if curve is None:
            continue
        write_flatness_csv(out, curve)
        flatness_records.append(flatness_record(curve))
    results["flatness"] = flatness_records

    results.update(probe_stages(table, config, stair, failures))

    results["n_rationals"] = len(scan_rationals(config))
    results["failures"] = failures
    return 0
