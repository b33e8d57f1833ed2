"""Disk cache of certified periodic minimizers.

One JSON record per (model_hash, p, q), written atomically (temp file then
os.replace) so concurrent writers leave exactly one intact record.  Records
carry a sha256 checksum over their canonically rendered payload, checked on
the bytes read, so a record is accepted only as put laid it out; one that
fails validation is quarantined (renamed aside) and recomputed rather
than trusted.  Records are immutable: re-putting an identical key verifies
agreement within 1e-12 instead of rewriting bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import CorruptRecord, VersionConflict
from .staircase import normalize_rational
from .variational import PeriodicConfiguration

PAYLOAD_TOL = 1e-12


def canonical_number(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if isinstance(x, float) and not math.isfinite(x):
        return "null"
    return f"{x:.17g}"


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, no locale surprises."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {render_json(obj[k], indent + 2)}'
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return canonical_number(float(obj))
    if obj is None:
        return "null"
    return json.dumps(obj, ensure_ascii=False)


def payload_checksum(payload: dict | str) -> str:
    """sha256 of render_json(payload); a str is taken as that rendering."""
    text = payload if isinstance(payload, str) else render_json(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# A record is render_json({"checksum": c, "payload": P}) + "\n", which reads
# _HEAD + c + _MID + render_json(P, 2) + _TAIL + "\n".  render_json(P, 2) is
# render_json(P) with two spaces after every newline (strings are escaped, so
# every newline is layout), which lets a record be checked on its own bytes,
# and lets put render P once, for both the checksum and the record.
_HEAD = '{\n  "checksum": "'
_MID = '",\n  "payload": '
_TAIL = "\n}"
_CHECKSUM = slice(len(_HEAD), len(_HEAD) + 64)


def _record_payload_text(text: str) -> tuple[str, str] | None:
    """(stored checksum, render_json(P)) of a record laid out as put writes
    it, the final newline optional; None for any other text."""
    if text.endswith("\n"):
        text = text[:-1]
    if not (text.startswith(_HEAD) and text.startswith(_MID, _CHECKSUM.stop)
            and text.endswith(_TAIL)):
        return None
    indented = text[_CHECKSUM.stop + len(_MID):-len(_TAIL)]
    if indented.count("\n") != indented.count("\n  "):
        return None
    return text[_CHECKSUM], indented.replace("\n  ", "\n")


class BetaCache:
    """Single-directory-per-model cache consumed by variational.beta_at."""

    def __init__(self, root):
        self.root = Path(root)
        self.quarantined: list[str] = []

    def record_path(self, model_hash: str, p: int, q: int) -> Path:
        p, q = normalize_rational(p, q)
        return self.root / model_hash / f"{p}_{q}.json"

    def _quarantine(self, path: Path) -> None:
        aside = path.with_suffix(".json.corrupt")
        try:
            os.replace(path, aside)
        except OSError:
            pass
        self.quarantined.append(str(aside))

    def _load(self, path: Path) -> dict | None:
        """Validated payload dict, or None after quarantining a bad file.

        A record is accepted only byte for byte as put wrote it: its payload
        text must hash to the stored checksum, and only that text is parsed.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            return None
        parts = _record_payload_text(text)
        payload = None
        if parts is not None and payload_checksum(parts[1]) == parts[0]:
            try:
                payload = json.loads(parts[1])
            except ValueError:
                pass
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        return payload

    def get(self, model, p: int, q: int) -> PeriodicConfiguration | None:
        p, q = normalize_rational(p, q)
        payload = self._load(self.record_path(model.model_hash, p, q))
        if payload is None:
            return None
        if payload.get("model_hash") != model.model_hash:
            self._quarantine(self.record_path(model.model_hash, p, q))
            return None
        return PeriodicConfiguration(
            p=int(payload["p"]),
            q=int(payload["q"]),
            positions=np.array(payload["positions"], dtype=float),
            action_total=float(payload["action_total"]),
            residual_sup=float(payload["residual_sup"]),
            model_hash=payload["model_hash"],
            is_certified_minimal=bool(payload["is_certified_minimal"]),
            seed_label=str(payload.get("seed_label", "")),
        )

    def put(self, model, cfg: PeriodicConfiguration) -> Path:
        from . import __version__

        p, q = normalize_rational(cfg.p, cfg.q)
        path = self.record_path(model.model_hash, p, q)
        payload = {
            "model_hash": model.model_hash,
            "p": p,
            "q": q,
            "action_total": float(cfg.action_total),
            "beta": float(cfg.action_total) / q,
            "positions": [float(x) for x in cfg.positions],
            "residual_sup": float(cfg.residual_sup),
            "is_certified_minimal": bool(cfg.is_certified_minimal),
            "seed_label": cfg.seed_label,
            "tool_version": __version__,
        }
        old = self._load(path)
        if old is not None:
            drift = abs(old["action_total"] - payload["action_total"])
            old_pos = np.asarray(old["positions"], dtype=float)
            new_pos = np.asarray(payload["positions"], dtype=float)
            if len(old_pos) == len(new_pos):
                drift = max(drift, float(np.max(np.abs(old_pos - new_pos), initial=0.0)))
            else:
                drift = math.inf
            if drift > PAYLOAD_TOL:
                raise VersionConflict(
                    f"cache record {path.name} for model {model.model_hash} "
                    f"differs from recomputation by {drift:.3e} (> {PAYLOAD_TOL})"
                )
            return path
        text = render_json(payload)
        record = (_HEAD + payload_checksum(text) + _MID + text.replace("\n", "\n  ")
                  + _TAIL + "\n")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(record)
        os.replace(tmp, path)
        return path

    def require(self, model, p: int, q: int) -> PeriodicConfiguration:
        """Strict read: raises CorruptRecord instead of quarantining silently."""
        p, q = normalize_rational(p, q)
        path = self.record_path(model.model_hash, p, q)
        if not path.exists():
            raise CorruptRecord(f"no cache record at {path}")
        before = list(self.quarantined)
        cfg = self.get(model, p, q)
        if cfg is None:
            raise CorruptRecord(
                f"cache record {path} failed validation"
                + (f" (quarantined to {self.quarantined[-1]})" if len(self.quarantined) > len(before) else "")
            )
        return cfg


def cache_get(cache: BetaCache, model, p: int, q: int):
    return cache.get(model, p, q)


def cache_put(cache: BetaCache, model, cfg: PeriodicConfiguration):
    return cache.put(model, cfg)
