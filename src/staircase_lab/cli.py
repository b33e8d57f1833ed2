"""Command line front end: the scan driver plus one-shot inspection commands.

Every subcommand accepts --model, --cache-dir, --out-dir, --workers and
--seed.  The cache directory resolves flag first, then the environment
variable STAIRCASE_LAB_CACHE, then the config file.  Config problems exit
with status 2 before any artifact is written; computational failures exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from .cache import BetaCache, render_json
from .errors import ConfigError, StaircaseLabError
from .flatness import flatness_curve
from .hyperbolicity import full_report, pn_barrier
from .model import load_model
from .scan import (
    ScanConfig,
    flatness_record,
    parse_scan_config,
    probe_kam,
    run_scan,
    write_flatness_csv,
    write_report,
)
from .solvers import SolveOptions
from .staircase import BetaTable, normalize_rational
from .variational import minimize_periodic


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call and reused by later ones:
    parse_args keeps no state in it and returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="staircase-lab",
        description="Minimal-action staircase experiments for twist-map models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", metavar="FILE", help="model definition file")
        p.add_argument("--cache-dir", metavar="DIR")
        p.add_argument("--out-dir", metavar="DIR")
        p.add_argument("--workers", type=int)
        p.add_argument("--seed", type=int)

    def rational(p: argparse.ArgumentParser) -> None:
        p.add_argument("-p", type=int, required=True, help="rotation numerator")
        p.add_argument("-q", type=int, required=True, help="rotation denominator")

    sp = sub.add_parser("scan", help="run a full experiment from a config file")
    sp.add_argument("config", metavar="CONFIG")
    common(sp)

    sp = sub.add_parser("beta", help="minimal mean action and locking bracket at p/q")
    rational(sp)
    common(sp)

    sp = sub.add_parser("flatness", help="flatness curve at p/q")
    rational(sp)
    common(sp)

    sp = sub.add_parser("hyperbolicity", help="monodromy report at p/q")
    rational(sp)
    common(sp)

    sp = sub.add_parser("pn-barrier", help="Peierls-Nabarro barrier at p/q")
    rational(sp)
    common(sp)

    sp = sub.add_parser("probe-kam", help="KAM-regime probes from a config file")
    sp.add_argument("config", metavar="CONFIG")
    common(sp)

    return parser


def _resolved_cache_dir(args, config_value=None):
    if args.cache_dir:
        return args.cache_dir
    env = os.environ.get("STAIRCASE_LAB_CACHE")
    if env:
        return env
    return config_value


def _require_model(args):
    if not args.model:
        raise ConfigError(f"{args.command} requires --model <file>")
    return load_model(args.model)


def _bind_table(model, args):
    cache_dir = _resolved_cache_dir(args)
    cache = BetaCache(cache_dir) if cache_dir else None
    options = SolveOptions(seed=args.seed or 0)
    return BetaTable.bind(model, cache=cache, options=options), options


def _load_config(args, require_scan: bool) -> ScanConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    config = parse_scan_config(text, require_scan=require_scan)
    updates = {}
    if args.model:
        updates["model"] = load_model(args.model)
    cache_dir = _resolved_cache_dir(args, config.cache_dir)
    if cache_dir != config.cache_dir:
        updates["cache_dir"] = cache_dir
    if args.out_dir:
        updates["out_dir"] = args.out_dir
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        updates["workers"] = args.workers
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(config, **updates) if updates else config


def _cmd_scan(args) -> int:
    config = _load_config(args, require_scan=True)
    code, report = run_scan(config)
    if "error" in report:
        err = report["error"]
        print(f"error: {err['type']}: {err['message']}", file=sys.stderr)
    else:
        n_fail = len(report["results"].get("failures", []))
        print(f"report written to {Path(config.out_dir) / 'report.json'}"
              f" ({n_fail} failures)")
    return code


def _cmd_beta(args) -> int:
    model = _require_model(args)
    table, _ = _bind_table(model, args)
    p, q = normalize_rational(args.p, args.q)
    beta = table.beta(p, q)
    cm, cp, width = table.one_sided(p, q)
    print(render_json({
        "p": p, "q": q, "rho": p / q, "beta": beta,
        "c_minus": cm, "c_plus": cp, "bracket_width": width,
    }))
    return 0


def _cmd_flatness(args) -> int:
    model = _require_model(args)
    table, options = _bind_table(model, args)
    curve = flatness_curve(model, args.p, args.q, table=table, options=options)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_flatness_csv(out, curve)
    print(render_json(flatness_record(curve)))
    return 0


def _cmd_hyperbolicity(args) -> int:
    model = _require_model(args)
    options = SolveOptions(seed=args.seed or 0)
    p, q = normalize_rational(args.p, args.q)
    config = minimize_periodic(model, p, q, options)
    report = full_report(model, config, with_barrier=False)
    print(render_json({
        "p": report.p, "q": report.q, "trace": report.trace, "det": report.det,
        "eigenvalues": [[ev.real, ev.imag] for ev in report.eigenvalues],
        "lyapunov": report.lyapunov, "phonon_gap": report.phonon_gap,
        "spectrum": [float(s) for s in report.spectrum],
    }))
    return 0


def _cmd_pn_barrier(args) -> int:
    model = _require_model(args)
    p, q = normalize_rational(args.p, args.q)
    value = pn_barrier(model, p, q)
    print(render_json({"p": p, "q": q, "pn_barrier": value}))
    return 0


def _cmd_probe_kam(args) -> int:
    report = probe_kam(_load_config(args, require_scan=False))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(out / "report.json", report)
    print(render_json(report))
    return 0


_COMMANDS = {
    "scan": _cmd_scan,
    "beta": _cmd_beta,
    "flatness": _cmd_flatness,
    "hyperbolicity": _cmd_hyperbolicity,
    "pn-barrier": _cmd_pn_barrier,
    "probe-kam": _cmd_probe_kam,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StaircaseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
