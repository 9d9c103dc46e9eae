#!/usr/bin/env python
"""Re-pin the golden fingerprints after a deliberate accounting change.

Runs the pinned simulations -- ``characterize("cache1", seed=2020,
num_cores=2)`` at 30 and 50 requests per core, and the 96 cells of
``tests/simulator/fixtures/offload_pinned.json`` -- on a base revision
and on the working tree, then checks that the change is what it claims
to be: every integer, string and non-total float (request latencies,
offload timestamps, fault counters, trace digests) is byte-unchanged,
and only the accumulated float totals (``cycles``, ``kernel_cycles``,
``kernel_cycles_by_origin``), the event count and the fingerprints that
hash them may move.  It prints the largest old-vs-new relative
difference of every float total, and with ``--write`` rewrites the
``events`` and ``fingerprint`` fields of the offload pin in place.

Usage::

    python scripts/repin_fingerprints.py [--base REV] [--write]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURE = REPO / "tests" / "simulator" / "fixtures" / "offload_pinned.json"

#: Record fields that accumulate floats across the run: the only ones a
#: change of accumulation order may move.
TOTALS = ("cycles", "kernel_cycles", "kernel_cycles_by_origin")
#: Fields that count or hash work rather than measure it.
MAY_MOVE = ("events_processed", "events", "fingerprint", "charged_ops")

# Runs inside the tree under test; prints one JSON document.
_PROBE = r"""
import dataclasses, enum, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests/simulator"]
from repro.characterization import characterize
import test_offload_pinned as pin

def plain(value):
    if isinstance(value, float):
        return {"float": value.hex()}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return sorted(([plain(k), plain(v)] for k, v in value.items()),
                      key=lambda pair: json.dumps(pair[0]))
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value

def record(summary):
    rec = summary.measurement_record()
    rec.pop("config")
    return {key: plain(value) for key, value in rec.items()}

out = {}
for target in (30, 50):
    run = characterize("cache1", seed=2020, num_cores=2,
                       requests_target=target)
    out[f"golden-{target}"] = {
        "record": record(run.simulation),
        "fingerprint": run.simulation.fingerprint(),
        "events": run.simulation.events_processed,
        "charged_ops": getattr(run.simulation.metrics, "charged_ops", None),
    }
original = pin.run_simulation
for cell in pin._cells():
    captured = []
    def spy(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]
    pin.run_simulation = spy
    observed = json.loads(json.dumps(pin._run_cell(*cell)))
    observed["record"] = record(captured[0].summarize())
    out[pin._cell_id(*cell)] = observed
json.dump(out, sys.stdout)
"""


def probe(tree: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tree)],
        capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"probe of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(old, new, path, moved, changed):
    """Walk two probe values; collect float-total moves and any other
    change into *moved* ({total field: max relative diff}) / *changed*."""
    if isinstance(old, dict) and set(old) == {"float"}:
        x, y = float.fromhex(old["float"]), float.fromhex(new["float"])
        field = next((part for part in path if part in TOTALS), None)
        if x != y and field is None:
            changed.append("/".join(path))
        elif field is not None:
            scale = max(abs(x), abs(y))
            rel = abs(x - y) / scale if scale else 0.0
            moved[field] = max(moved.get(field, 0.0), rel)
        return
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            changed.append("/".join(path) + " (keys)")
            return
        for key in old:
            if key not in MAY_MOVE:
                compare(old[key], new[key], path + (key,), moved, changed)
        return
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for item_old, item_new in zip(old, new):
            compare(item_old, item_new, path, moved, changed)
        return
    if old != new:
        changed.append("/".join(path))


def rewrite_fixture(current: dict) -> None:
    """Replace each cell's ``events``/``fingerprint`` line in place."""
    lines = FIXTURE.read_text(encoding="utf-8").split("\n")
    cell = None
    for index, line in enumerate(lines):
        stripped = line.strip()
        if line.startswith(' "') and stripped.endswith("{"):
            cell = json.loads(stripped.rsplit(":", 1)[0])
        elif cell is not None and stripped.startswith('"events":'):
            lines[index] = line.split(":")[0] + f": {current[cell]['events']},"
        elif cell is not None and stripped.startswith('"fingerprint":'):
            value = current[cell]["fingerprint"]
            lines[index] = line.split(":")[0] + f': "{value}",'
    text = "\n".join(lines)
    pinned = json.loads(text)
    for name, cell_pin in pinned.items():
        assert cell_pin["events"] == current[name]["events"], name
        assert cell_pin["fingerprint"] == current[name]["fingerprint"], name
    FIXTURE.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="revision holding the old pins (default HEAD)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite events/fingerprint in the offload pin")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "base.tar"
        subprocess.run(
            ["git", "-C", str(REPO), "archive", "-o", str(archive), args.base],
            check=True,
        )
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "base")
        base = probe(Path(tmp) / "base")
    current = probe(REPO)
    moved = {"golden": {}, "offload pin": {}}
    changed = []
    for name in base:
        group = moved["golden" if name.startswith("golden") else "offload pin"]
        compare(base[name], current[name], (name,), group, changed)
    if changed:
        print("changed beyond the float totals:", *changed[:20], sep="\n  ")
        return 1
    print("only float totals, event counts and fingerprints moved")
    for group, fields in moved.items():
        print(f"  {group}: max relative diff " + ", ".join(
            f"{field} {fields.get(field, 0.0):.3g}" for field in TOTALS
        ))
    for target in (30, 50):
        cell = current[f"golden-{target}"]
        print(f"golden-{target}: fingerprint {cell['fingerprint']} "
              f"events {cell['events']} charged_ops {cell['charged_ops']}")
    if args.write:
        rewrite_fixture(current)
        print(f"rewrote {FIXTURE.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
