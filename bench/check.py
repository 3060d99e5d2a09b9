"""Output checks against reference outputs of the unoptimised code.

Floats match within 1e-12 relative (round-off); integers, strings, booleans
and discrete quantities match exactly.  CSV tables compare their discrete
columns as text and their rounded float columns to one unit in the last
printed digit.  SHA-256 digests are recorded for information only.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-12
# report keys whose float values are discrete (percentages of counts)
DISCRETE_KEYS = {"boot_pct", "nonparam_pct"}
CSV_EXACT_COLUMNS = {"degree", "boot_pct", "nonparam_pct"}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_json(got, want, path="$", discrete=False) -> list[str]:
    """Differences between two parsed JSON values, as readable strings."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in sorted(want):
            out += compare_json(got[k], want[k], f"{path}.{k}",
                                discrete or k in DISCRETE_KEYS)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        out = []
        for j, (g, w) in enumerate(zip(got, want)):
            out += compare_json(g, w, f"{path}[{j}]", discrete)
        return out
    if isinstance(want, float) and not discrete and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return [] if _close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def compare_csv(got: str, want: str) -> list[str]:
    g_rows = [line.split(",") for line in got.splitlines()]
    w_rows = [line.split(",") for line in want.splitlines()]
    if len(g_rows) != len(w_rows) or g_rows[:1] != w_rows[:1]:
        return ["csv: header or row count differs"]
    header = w_rows[0]
    out = []
    for r, (g, w) in enumerate(zip(g_rows[1:], w_rows[1:]), 1):
        if len(g) != len(w):
            out.append(f"csv row {r}: column count differs")
            continue
        for name, gv, wv in zip(header, g, w):
            if gv == wv:
                continue
            if name in CSV_EXACT_COLUMNS:
                out.append(f"csv row {r} {name}: {gv} != {wv}")
                continue
            decimals = len(wv.partition(".")[2])
            if abs(float(gv) - float(wv)) > 1.000001 * 10.0 ** -decimals:
                out.append(f"csv row {r} {name}: {gv} != {wv}")
    return out


def compare_output(name: str, got: bytes, want: bytes) -> list[str]:
    try:
        if name.endswith(".csv"):
            diffs = compare_csv(got.decode(), want.decode())
        else:
            diffs = compare_json(json.loads(got), json.loads(want))
    except ValueError as exc:  # unparsable output
        diffs = [f"unreadable: {exc}"]
    return [f"{name}: {d}" for d in diffs]


def reference_path(workload: str, output: str) -> Path:
    return REFERENCE_DIR / workload / output.replace("/", "__")


def check_against_reference(workload: str, outputs: dict[str, bytes]) -> list[str]:
    problems = []
    for name, data in outputs.items():
        ref = reference_path(workload, name)
        if not ref.exists():
            problems.append(f"{name}: no reference file {ref.name}")
            continue
        problems += compare_output(name, data, ref.read_bytes())
    return problems


def check_identical(first: dict[str, bytes], other: dict[str, bytes],
                    label: str) -> list[str]:
    return [f"{name}: {label} differs" for name in first
            if first[name] != other.get(name)]


def write_reference(workload: str, outputs: dict[str, bytes]) -> dict[str, str]:
    folder = REFERENCE_DIR / workload
    folder.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, data in outputs.items():
        reference_path(workload, name).write_bytes(data)
        digests[name] = digest(data)
    (folder / "sha256.json").write_text(json.dumps(digests, indent=1,
                                                   sort_keys=True) + "\n")
    return digests
