"""Snapshot the lint corpus used by the ``lint_deep`` workload.

The ``lint_deep`` workload must analyze the same input on every commit,
so it reads a frozen tarball instead of the live tree.  The snapshot
holds what ``repro lint --deep`` reads at the project root: the analyzed
trees (``src/repro``, ``scripts``), the reference trees the deep pass
scans for consumers (``tests``, ``examples``, ``benchmarks``) and the
grandfathered-findings baseline.

Usage (from the repository root)::

    python3 perfbench/make_corpus.py

Rewrites ``perfbench/corpus.tar.gz`` byte-for-byte deterministically
(sorted members, zeroed owners and timestamps).  Only regenerate it on
purpose: a new snapshot is a new workload input, so results measured on
the old one no longer compare.
"""

from __future__ import annotations

import gzip
import io
import tarfile
from pathlib import Path

TREES = ("src/repro", "scripts", "tests", "examples", "benchmarks")
FILES = ("lint-baseline.json",)
SUFFIXES = (".py", ".c")
OUTPUT = Path(__file__).resolve().parent / "corpus.tar.gz"


def corpus_members(root: Path):
    """Relative paths of every snapshot file under *root*, sorted."""
    members = [root / name for name in FILES]
    for tree in TREES:
        members.extend(
            path for path in (root / tree).rglob("*")
            if path.suffix in SUFFIXES and "__pycache__" not in path.parts
        )
    return sorted(path.relative_to(root).as_posix() for path in members)


def build(root: Path, output: Path = OUTPUT) -> int:
    buffer = io.BytesIO()
    names = corpus_members(root)
    with tarfile.open(fileobj=buffer, mode="w", format=tarfile.PAX_FORMAT) as tar:
        for name in names:
            data = (root / name).read_bytes()
            info = tarfile.TarInfo(name)
            info.size = len(data)
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(data))
    with open(output, "wb") as handle:
        with gzip.GzipFile(fileobj=handle, mode="wb", mtime=0,
                           filename="") as archive:
            archive.write(buffer.getvalue())
    return len(names)


if __name__ == "__main__":
    print(f"wrote {OUTPUT.name}: {build(Path.cwd())} files")
