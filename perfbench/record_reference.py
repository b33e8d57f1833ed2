"""Records perfbench/reference.json: the outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose outputs are trusted, then commit the
file.  It solves each workload's inputs once at seed 0 and stores beta,
c_minus and c_plus of every scan rational, L(Q), the beta query answers and
the orbit-analysis records.  A command that exits nonzero is stored as null.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil

import run


def _float_or_none(text: str):
    value = float(text)
    return None if math.isnan(value) else value


def main() -> None:
    run.pin_environment()
    from staircase_lab import cli, scan

    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    try:
        out = run.WORK / "scan"
        config = dataclasses.replace(
            scan.parse_scan_config(run.SCAN_CONFIG.format(seed=0, workers=1)),
            out_dir=str(out), cache_dir=str(run.WORK / "scan-cache"))
        code, report = scan.run_scan(config)
        if code != 0 or report["results"]["failures"]:
            raise SystemExit(f"reference scan failed: {report}")
        rows = run.read_csv((out / "beta.csv").read_bytes())
        scan_ref = {
            "beta": {f"{r[0]}/{r[1]}": [float(r[3]), _float_or_none(r[4]),
                                        _float_or_none(r[5])] for r in rows},
            "L_of_Q": report["results"]["L_of_Q"],
        }

        model = run.WORK / "fk2.model"
        model.write_text(run.MODEL_TEXT)
        query_ref = {}
        for p, q in run.farey(run.QUERY_ORDER):
            code, text, err, _ = run.call_cli(cli, [
                "beta", "-p", str(p), "-q", str(q), "--model", str(model),
                "--cache-dir", str(run.WORK / "query-cache"), "--seed", "0"])
            if code != 0:
                raise SystemExit(f"reference beta {p}/{q} failed: {err}")
            rec = json.loads(text)
            query_ref[f"{p}/{q}"] = [rec["beta"], rec["c_minus"], rec["c_plus"]]

        fields = {
            "flatness": ("c_plus", "C_fit", "lambda_fit", "lambda_monodromy", "verdict"),
            "hyperbolicity": ("trace", "det", "lyapunov", "phonon_gap"),
            "pn-barrier": ("pn_barrier",),
        }
        orbit_ref = {}
        for cmd, p, q in run.ORBIT_REQUESTS:
            code, text, _, _ = run.call_cli(cli, [
                cmd, "-p", str(p), "-q", str(q), "--model", str(model), "--seed", "0"])
            rec = json.loads(text) if code == 0 else None
            orbit_ref[f"{cmd} {p}/{q}"] = (
                {k: rec[k] for k in fields[cmd]} if rec is not None else None)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)

    reference = {"scan": scan_ref, "query": query_ref, "orbit": orbit_ref}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
