"""Prints one sha256 per output of the benchmark's scan config and commands.

    python3 tools/digest_outputs.py SRC_ROOT [--seeds 0 3] > digests.txt

SRC_ROOT is the root of a source checkout.  The package is imported from
SRC_ROOT/src, and the configs and commands from SRC_ROOT/perfbench/run.py, so
two checkouts can be compared with `diff` on their outputs.  For each seed it
prints one "<sha256>  <label>" line for:

- every artifact and cache record of the benchmark scan config at workers 1
  and 2, plus its exit status;
- the exit code, stdout and stderr of each orbit-analysis command, of
  probe-kam on the scan config at workers 1 and 2, and of
  `flatness -p 1 -q 3 --out-dir DIR`, plus the CSV that writes.

BLAS is pinned to one thread and STAIRCASE_LAB_CACHE is ignored, as in the
benchmark.  Everything is written to a temporary directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path


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


def digests(bench, seed: int, work: Path):
    from staircase_lab import cli, scan

    for workers in (1, 2):
        d = work / f"scan-{seed}-{workers}"
        text = bench.SCAN_CONFIG.format(seed=seed, workers=workers)
        config = dataclasses.replace(scan.parse_scan_config(text), out_dir=str(d / "out"),
                                     cache_dir=str(d / "cache"))
        code, _ = scan.run_scan(config)
        label = f"scan seed={seed} workers={workers}"
        yield sha(str(code)), f"{label} exit"
        yield from tree_digests(label, d)

        cfg = work / f"probe-{seed}-{workers}.cfg"
        cfg.write_text(text)
        yield from cli_digests(bench, cli, f"probe-kam seed={seed} workers={workers}",
                               ["probe-kam", str(cfg)])

    model = work / "model"
    model.write_text(bench.MODEL_TEXT)
    for cmd, p, q in bench.ORBIT_REQUESTS:
        yield from cli_digests(bench, cli, f"{cmd} {p}/{q} seed={seed}",
                               [cmd, "-p", str(p), "-q", str(q), "--model", str(model),
                                "--seed", str(seed)])

    d = work / f"flatness-{seed}"
    label = f"flatness 1/3 --out-dir seed={seed}"
    yield from cli_digests(bench, cli, label,
                           ["flatness", "-p", "1", "-q", "3", "--model", str(model),
                            "--seed", str(seed), "--out-dir", str(d)])
    yield from tree_digests(label, d)


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
