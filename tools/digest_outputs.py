"""Prints one sha256 per output of the benchmark's scan config and commands.

    python3 tools/digest_outputs.py SRC_ROOT [--seeds 0 3] > digests.txt

SRC_ROOT is the root of a source checkout.  The package is imported from
SRC_ROOT/src, and the configs and commands from SRC_ROOT/perfbench/run.py, so
two checkouts can be compared with `diff` on their outputs.  For each seed it
prints one "<sha256>  <label>" line for:

- every artifact and cache record of the benchmark scan config at workers 1,
  2 and 3 (its work list solved as one, two and three Newton stacks), plus
  its exit status;
- the exit code, stdout and stderr of each orbit-analysis command, of
  `hyperbolicity` at DEEP_ORBITS (55/89 and 144/233, where the monodromy
  product is rescaled), of probe-kam on the scan config at workers 1 and 2,
  and of `flatness -p 1 -q 3 --out-dir DIR`, plus the CSV that writes;
- the same for a three-harmonic fourier-potential model (FOURIER_MODEL):
  a q_max = 3 scan at workers 1, `beta` at 1/2 and 2/5, `hyperbolicity`
  and `pn-barrier` at 1/2, and `flatness -p 1 -q 2 --out-dir DIR`.  Its
  mixed, sin-only and cos-only harmonics reach model-kernel branches that
  the benchmark's Frenkel-Kontorova model never takes.  (`pn-barrier 1/2`
  exits 1 with NoConvergence on this model; its exit code and message are
  digested like any other output.)
- the exit code, stdout and stderr of probe-kam on K0_PROBE, an FK k = 0
  config whose window probe gives a positive ac_part (on the benchmark's
  k = 2 model everything is locked and ac_part is 0), with c_grid = 201 so
  that a staircase built after the probes would show in the bound;
- the raw loops of `flatness.concatenate_loop` for FK 0/1, 1/2, 1/3, 2/5
  and FOURIER_MODEL 1/2, at every T of the default grid: the positions
  bytes, `action_per_site` and `deformation_cost`.  The command outputs
  carry only the loop action per site, not the segments behind it.
- the other public callers of `solvers.newton_segment`, on the benchmark's
  model: `heteroclinic_segment` of 1/3 across gaps 1-3 at T = 4 (positions
  bytes, action, multiplicity) and `verify_minimality` on the 2/5 ground
  state (ok, witness, worst_improvement).
- the critical-point classes on the benchmark's model at the 20 loop
  rationals of the LOOP_RATIONALS targets (every default-grid T): what
  `solvers.solve_all_starts` returns (labels, actions, psd flags and
  positions bytes) and `enumerate_minimizers(...).multiplicity` with
  max(50, q) starts, whose class merge uses tol 1e-7.  A change to the class
  dedup that merges or splits a class shows here.  Then the same four
  digests of every class of every rational that
  `solvers.solve_all_starts_many` returns on the work list of the
  benchmark scan config and on that of FOURIER_SCAN, each list as one call.
  The scan artifacts carry only each rational's ground state; these carry
  the metastable classes and saddles of every stack too.
- `beta` with `--cache-dir` at each query rational of the benchmark (the
  Farey set of order QUERY_ORDER): run cold into a fresh cache directory,
  then warm twice, plus that cache tree.  Then the record of CORRUPT_AT gets
  a flipped digit (the leading digit of its first position, a change that
  any checksum check rejects), and the query that quarantines and
  recomputes it, plus the tree it leaves, are digested too.
- the exit code, stdout and stderr of `python -m staircase_lab.cli` run as a
  fresh interpreter, the console-script path the in-process calls above
  never take: a warm `beta -p 2 -q 5` on a cache filled in-process,
  `--help`, and `beta` without `--model` (exit 2).
- `flatness` with `--cache-dir` at each of FLATNESS_CACHED (0/1, whose
  adaptive refinement goes past the up-front stack, and 2/5), on the
  benchmark's model: run cold into a fresh cache directory, then warm, plus
  that cache tree.  The records the cold run writes are those of its
  stacked solve; the warm run solves nothing up front.
- every artifact and cache record of the three WINDOW_SCANS, cold at
  workers 1, plus their exit status: FK k = 2 scans whose window ends are
  not rationals of q <= q_max and snap to them (0.2 and 0.6 to 1/5 and 3/5
  at q_max = 5, 0.34 to 1/3 at q_max = 4, and 0.1 and 0.2 both to 0/1 at
  q_max = 2).  Those rationals bound the c-window and lead the locking table.
- both sides of the flatness ladder's phonon-gap gate (GATE_FLATNESS):
  `flatness --out-dir DIR` and its CSV at FK k = 0 0/1, which is degenerate
  and has all-nan bounds, and at FK k = 0.01 2/5, which is hyperbolic with
  a gap of 4.1e-4; then the DegenerateFamily message that
  `heteroclinic_segment` raises at FK k = 0 0/1.

BLAS is pinned to one thread and STAIRCASE_LAB_CACHE is ignored, as in the
benchmark.  Everything is written to a temporary directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path


FOURIER_MODEL = """[model]
family = fourier-potential
a = 0.8
[harmonic]
order = 1
cos_amp = -0.3
sin_amp = 0.1
[harmonic]
order = 2
cos_amp = 0.0
sin_amp = -0.04
[harmonic]
order = 3
cos_amp = 0.02
sin_amp = 0.0
"""

FOURIER_SCAN = FOURIER_MODEL + """
[scan]
q_max = 3
nu = 0.5
theta = 0.5
estimator_q = 4
c_grid = 101
seed = {seed}
workers = 1

[flatness]
p = 0
q = 1
"""

K0_PROBE = """[model]
family = frenkel-kontorova
k = 0.0

[scan]
q_max = 4
c_grid = 201
seed = {seed}

[probe]
cf = 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
rho_lo = 0.5
rho_hi = 0.7
"""

WINDOW_SCAN = """[model]
family = frenkel-kontorova
k = 2.0

[scan]
q_max = {q_max}
h_lo = {h_lo}
h_hi = {h_hi}
seed = {seed}
workers = 1
"""

WINDOW_SCANS = ((5, 0.2, 0.6), (4, 0.34, 0.5), (2, 0.1, 0.2))  # (q_max, h_lo, h_hi)

FOURIER_REQUESTS = (("beta", 1, 2), ("beta", 2, 5), ("hyperbolicity", 1, 2),
                    ("pn-barrier", 1, 2))

DEEP_ORBITS = ((55, 89), (144, 233))  # hyperbolicity past 2**448, on the benchmark model

LOOP_RATIONALS = ((0, 1), (1, 2), (1, 3), (2, 5))

CORRUPT_AT = (2, 5)  # the warm-cache query whose own record is corrupted

FLATNESS_CACHED = ((0, 1), (2, 5))  # flatness targets run cold, then warm, on a cache

FK_MODEL = """[model]
family = frenkel-kontorova
k = {k}
"""

GATE_FLATNESS = ((0.0, 0, 1), (0.01, 2, 5))  # (k, p, q): gap 0, then 4.1e-4


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_bench(root: Path):
    """perfbench/run.py of the checkout, with the environment it pins."""
    spec = importlib.util.spec_from_file_location("bench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses look their module up there
    spec.loader.exec_module(bench)
    bench.pin_environment()  # one BLAS thread, no cache override, root/src on the path
    return bench


def tree_digests(label: str, d: Path):
    for f in sorted(d.rglob("*")):
        if f.is_file():
            yield sha(f.read_bytes()), f"{label} {f.relative_to(d)}"


def cli_digests(bench, cli, label: str, argv):
    code, out, err, _ = bench.call_cli(cli, argv)
    yield sha(str(code)), f"{label} exit"
    yield sha(out), f"{label} stdout"
    yield sha(err), f"{label} stderr"


def scan_digests(scan, text: str, label: str, d: Path):
    config = dataclasses.replace(scan.parse_scan_config(text), out_dir=str(d / "out"),
                                 cache_dir=str(d / "cache"))
    code, _ = scan.run_scan(config)
    yield sha(str(code)), f"{label} exit"
    yield from tree_digests(label, d)


def orbit_digests(bench, cli, model: Path, requests, flatness, tag: str, seed: int,
                  work: Path):
    """Each (cmd, p, q) request, then flatness p/q with --out-dir and its CSV."""
    for cmd, p, q in requests:
        yield from cli_digests(bench, cli, f"{tag}{cmd} {p}/{q} seed={seed}",
                               [cmd, "-p", str(p), "-q", str(q), "--model", str(model),
                                "--seed", str(seed)])
    p, q = flatness
    d = work / f"{tag}flatness-{seed}"
    label = f"{tag}flatness {p}/{q} --out-dir seed={seed}"
    yield from cli_digests(bench, cli, label,
                           ["flatness", "-p", str(p), "-q", str(q), "--model", str(model),
                            "--seed", str(seed), "--out-dir", str(d)])
    yield from tree_digests(label, d)


def loop_digests(model, p: int, q: int, tag: str, seed: int):
    """Each default-grid loop of p/q, built by concatenate_loop for that T alone."""
    from staircase_lab import flatness, solvers, variational

    options = solvers.SolveOptions(seed=seed)
    config = variational.minimize_periodic(model, p, q, options)
    for T in flatness.loop_t_grid(q):
        loop = flatness.concatenate_loop(model, p, q, T, options, config=config)
        label = f"{tag}loop {p}/{q} T={T} seed={seed}"
        yield sha(loop.positions.tobytes()), f"{label} positions"
        yield sha(repr(loop.action_per_site)), f"{label} action_per_site"
        yield sha(repr(loop.deformation_cost)), f"{label} deformation_cost"


def segment_digests(model, seed: int):
    """heteroclinic_segment of 1/3 at T = 4 per gap, then verify_minimality of 2/5."""
    from staircase_lab import flatness, solvers, variational

    options = solvers.SolveOptions(seed=seed)
    for gap in (1, 2, 3):
        segment = flatness.heteroclinic_segment(model, 1, 3, gap, 4, options)
        label = f"segment 1/3 gap={gap} T=4 seed={seed}"
        yield sha(segment.positions.tobytes()), f"{label} positions"
        yield sha(repr(segment.action)), f"{label} action"
        yield sha(repr(segment.multiplicity)), f"{label} multiplicity"
    config = variational.minimize_periodic(model, 2, 5, options)
    report = variational.verify_minimality(model, config, options=options)
    label = f"verify_minimality 2/5 seed={seed}"
    yield sha(repr(report.ok)), f"{label} ok"
    yield sha(repr(report.witness)), f"{label} witness"
    yield sha(repr(report.worst_improvement)), f"{label} worst_improvement"


def point_digests(points, label: str):
    """Labels, actions, psd flags and positions bytes of a list of critical points."""
    yield sha(repr([c.seed_label for c in points])), f"{label} labels"
    yield sha(repr([c.action_total for c in points])), f"{label} actions"
    yield sha(repr([c.is_certified_minimal for c in points])), f"{label} psd"
    yield sha(b"".join(c.positions.tobytes() for c in points)), f"{label} positions"


def class_digests(bench, model, seed: int):
    """solve_all_starts and enumerate_minimizers at each default-grid loop
    rational, then solve_all_starts_many on the two scan work lists."""
    from staircase_lab import flatness, scan, solvers, variational

    options = solvers.SolveOptions(seed=seed)
    for p0, q0 in LOOP_RATIONALS:
        for T in flatness.loop_t_grid(q0):
            r = flatness.loop_rational(p0, q0, T)
            p, q = r.numerator, r.denominator
            label = f"classes {p}/{q} seed={seed}"
            yield from point_digests(solvers.solve_all_starts(model, p, q, options), label)
            found = variational.enumerate_minimizers(model, p, q, starts=max(50, q),
                                                     options=options)
            yield sha(repr(found.multiplicity)), f"{label} multiplicity"
    for tag, text in (("", bench.SCAN_CONFIG.format(seed=seed, workers=1)),
                      ("fourier ", FOURIER_SCAN.format(seed=seed))):
        config = scan.parse_scan_config(text)
        rationals = scan.work_list(config)
        stacked = solvers.solve_all_starts_many(config.model, rationals, config.options)
        for (p, q), points in zip(rationals, stacked):
            yield from point_digests(points, f"{tag}stacked classes {p}/{q} seed={seed}")


def warm_digests(bench, cli, model: Path, seed: int, work: Path):
    """Cold, then twice warm, beta queries per rational; then one corrupted record."""
    def query(p, q, cache):
        return ["beta", "-p", str(p), "-q", str(q), "--model", str(model),
                "--cache-dir", str(cache), "--seed", str(seed)]

    for p, q in bench.farey(bench.QUERY_ORDER):
        cache = work / f"warm-{seed}-{p}_{q}"
        for run in ("cold", "warm 1", "warm 2"):
            yield from cli_digests(bench, cli, f"beta {p}/{q} {run} seed={seed}",
                                   query(p, q, cache))
        yield from tree_digests(f"beta {p}/{q} cache seed={seed}", cache)

    p, q = CORRUPT_AT
    cache = work / f"warm-{seed}-{p}_{q}"
    record = next(cache.rglob(f"{p}_{q}.json"))
    text = record.read_text(encoding="utf-8")
    i = text.index('"positions": [') + len('"positions": [')
    i += next(j for j, ch in enumerate(text[i:]) if ch.isdigit())
    record.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:],
                      encoding="utf-8")
    label = f"beta {p}/{q} corrupted record seed={seed}"
    yield from cli_digests(bench, cli, label, query(p, q, cache))
    yield from tree_digests(label, cache)


def flatness_cache_digests(bench, cli, model: Path, seed: int, work: Path):
    """Cold, then warm, flatness with --cache-dir per target, then its cache tree."""
    for p, q in FLATNESS_CACHED:
        cache = work / f"flatness-cache-{seed}-{p}_{q}"
        for run in ("cold", "warm"):
            yield from cli_digests(bench, cli, f"flatness {p}/{q} {run} --cache-dir seed={seed}",
                                   ["flatness", "-p", str(p), "-q", str(q), "--model",
                                    str(model), "--cache-dir", str(cache), "--seed", str(seed)])
        yield from tree_digests(f"flatness {p}/{q} cache seed={seed}", cache)


def shell_digests(bench, cli, model: Path, seed: int, work: Path):
    """A warm beta at 2/5, --help and a beta without --model, each as
    `python -m staircase_lab.cli` in a fresh interpreter."""
    beta = ["beta", "-p", "2", "-q", "5", "--seed", str(seed)]
    warm = beta + ["--model", str(model), "--cache-dir", str(work / f"shell-{seed}")]
    bench.call_cli(cli, warm)
    env = dict(os.environ, PYTHONPATH=str(bench.SRC))
    for label, argv in (("shell beta 2/5 warm", warm), ("shell --help", ["--help"]),
                        ("shell beta 2/5 without --model", beta)):
        proc = subprocess.run([sys.executable, "-m", "staircase_lab.cli", *argv],
                              capture_output=True, env=env)
        label = f"{label} seed={seed}"
        yield sha(str(proc.returncode)), f"{label} exit"
        yield sha(proc.stdout), f"{label} stdout"
        yield sha(proc.stderr), f"{label} stderr"


def gate_digests(bench, cli, seed: int, work: Path):
    """flatness on each side of the phonon-gap gate, then the degenerate side's error."""
    from staircase_lab import flatness, parse_model, solvers
    from staircase_lab.errors import DegenerateFamily

    for k, p, q in GATE_FLATNESS:
        model = work / f"fk-{k}-model"
        model.write_text(FK_MODEL.format(k=k))
        yield from orbit_digests(bench, cli, model, (), (p, q), f"fk k={k} ", seed, work)
    label = f"fk k=0.0 heteroclinic_segment 0/1 gap=1 T=4 seed={seed}"
    try:
        flatness.heteroclinic_segment(parse_model(FK_MODEL.format(k=0.0)), 0, 1, 1, 4,
                                      solvers.SolveOptions(seed=seed))
        message = "no error"
    except DegenerateFamily as exc:
        message = str(exc)
    yield sha(message), f"{label} DegenerateFamily"


def digests(bench, seed: int, work: Path):
    from staircase_lab import cli, parse_model, scan

    for workers in (1, 2, 3):
        text = bench.SCAN_CONFIG.format(seed=seed, workers=workers)
        yield from scan_digests(scan, text, f"scan seed={seed} workers={workers}",
                                work / f"scan-{seed}-{workers}")
        if workers == 3:
            continue
        cfg = work / f"probe-{seed}-{workers}.cfg"
        cfg.write_text(text)
        yield from cli_digests(bench, cli, f"probe-kam seed={seed} workers={workers}",
                               ["probe-kam", str(cfg)])
    cfg = work / f"k0-probe-{seed}.cfg"
    cfg.write_text(K0_PROBE.format(seed=seed))
    yield from cli_digests(bench, cli, f"k0 probe-kam seed={seed}", ["probe-kam", str(cfg)])

    model = work / "model"
    model.write_text(bench.MODEL_TEXT)
    requests = list(bench.ORBIT_REQUESTS) + [("hyperbolicity", p, q) for p, q in DEEP_ORBITS]
    yield from orbit_digests(bench, cli, model, requests, (1, 3), "", seed, work)
    for p, q in LOOP_RATIONALS:
        yield from loop_digests(parse_model(bench.MODEL_TEXT), p, q, "", seed)
    yield from segment_digests(parse_model(bench.MODEL_TEXT), seed)
    yield from class_digests(bench, parse_model(bench.MODEL_TEXT), seed)
    yield from warm_digests(bench, cli, model, seed, work)
    yield from shell_digests(bench, cli, model, seed, work)

    tag = "fourier "
    yield from scan_digests(scan, FOURIER_SCAN.format(seed=seed),
                            f"{tag}scan seed={seed} workers=1", work / f"fourier-scan-{seed}")
    model = work / "fourier-model"
    model.write_text(FOURIER_MODEL)
    yield from orbit_digests(bench, cli, model, FOURIER_REQUESTS, (1, 2), tag, seed, work)
    yield from loop_digests(parse_model(FOURIER_MODEL), 1, 2, tag, seed)
    yield from flatness_cache_digests(bench, cli, work / "model", seed, work)
    for q_max, h_lo, h_hi in WINDOW_SCANS:
        text = WINDOW_SCAN.format(q_max=q_max, h_lo=h_lo, h_hi=h_hi, seed=seed)
        yield from scan_digests(scan, text, f"window [{h_lo}, {h_hi}] q_max={q_max} scan "
                                f"seed={seed} workers=1", work / f"window-{seed}-{q_max}")
    yield from gate_digests(bench, cli, seed, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_root", type=Path, help="root of a source checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    args = parser.parse_args(argv)
    root = args.src_root.resolve()
    if not (root / "src" / "staircase_lab" / "__init__.py").is_file():
        parser.error(f"no staircase_lab package under {root / 'src'}")
    bench = load_bench(root)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for digest, label in digests(bench, seed, Path(tmp)):
                print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
