"""The analyzer's recognizers are byte-identical across refactors.

``fixtures/pinned_deep.json`` pins, for every fixture the rule tests
use, the findings and the SARIF rendering of every rule whose
recognizers are shared: the gate grammar (OBS001, OBS002, PERF001,
EFF001), the import table and dotted-name resolution (DET001, PERF001,
SPEC001, the project model and the effect scanner), the set-iteration
and entropy catalogs (DET002, DET003) and the interprocedural passes
(DET003, EFF001-EFF004, UNIT002), plus UNIT001 as UNIT002's per-file
half.

Two kinds of case are pinned:

* every deep fixture tree (``fixtures/deep/<tree>/``), keyed by the
  tree name;
* every per-file fixture at each scope path its ``test_rules.py`` test
  places it at, keyed ``<fixture>@<relpath>`` -- run as a one-file
  program, so the deep rules see the same file the per-file rules do.

The pin was captured before the recognizers were merged; any drift
here is a behavior change in a refactor, not an improvement.
"""

import json

import pytest

from repro.analysis import SourceFile, analyze_sources
from repro.analysis.sarif import render_sarif

from .conftest import FIXTURES, load_deep_sources

PINNED = json.loads(
    (FIXTURES / "pinned_deep.json").read_text(encoding="utf-8")
)

PINNED_RULES = [
    "OBS001", "OBS002", "PERF001", "SPEC001",
    "DET001", "DET002", "DET003",
    "EFF001", "EFF002", "EFF003", "EFF004",
    "UNIT001", "UNIT002",
]


def _sources(case):
    """A deep tree by name, or one per-file fixture at a virtual path."""
    name, _, relpath = case.partition("@")
    if not relpath:
        return load_deep_sources(name)
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return [SourceFile.from_text(text, relpath=relpath)]


def _analyze(case):
    return analyze_sources(_sources(case), deep=True, rules=PINNED_RULES)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_findings_match_pinned(case):
    result = _analyze(case)
    assert not result.internal
    assert [f.to_dict() for f in result.findings] == PINNED[case]["findings"]


@pytest.mark.parametrize("case", sorted(PINNED))
def test_sarif_matches_pinned(case):
    assert render_sarif(_analyze(case)) == PINNED[case]["sarif"]


def test_pinned_corpus_is_not_vacuous():
    # The capture must cover every deep tree and include at least one
    # firing case per pinned rule, or the byte-identity claim proves
    # nothing.
    trees = {path.name for path in (FIXTURES / "deep").iterdir()}
    assert trees <= set(PINNED)
    rules = {
        finding["rule"]
        for case in PINNED.values()
        for finding in case["findings"]
    }
    # (The degraded tree also pins a PARSE finding riding along.)
    assert set(PINNED_RULES) <= rules
