"""Replay the persisted regression corpus as tier-1 tests.

Every ``tests/corpus/*.json`` document is a minimized repro of a
once-observed mismatch (or a hand-seeded sentinel for a fixed bug).
Each replays through the full differential matrix; a regression in any
backend turns the corresponding case red here, under plain pytest,
with no fuzzing involved.
"""

from __future__ import annotations

import os

import pytest

from repro.testkit import Harness, load_corpus

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

_LOADED = load_corpus(CORPUS_DIR)


def test_corpus_is_not_empty():
    assert _LOADED, f"no corpus cases found under {CORPUS_DIR}"


@pytest.fixture(scope="module")
def harness():
    return Harness()


@pytest.fixture(scope="module")
def parallel_harness():
    """The ``--backends engine-parallel`` replay: oracle vs the
    morsel-driven executor only, with exchanges forced on every
    compilable segment (threshold 0 inside the backend)."""
    return Harness(backends=("oracle", "engine-parallel"),
                   metamorphic=False)


@pytest.fixture(scope="module")
def set_harness():
    """The set-semantics tri-equivalence replay: the Bool-semiring
    engine, the relational SetEvaluator, and delta of the N oracle
    (compared among themselves)."""
    return Harness(backends=("oracle", "engine-boolean", "ralg",
                             "delta-bag"), metamorphic=False)


@pytest.mark.parametrize(
    "path,case,meta", _LOADED,
    ids=[os.path.splitext(os.path.basename(path))[0]
         for path, _, _ in _LOADED])
def test_corpus_case_replays_green(path, case, meta, harness):
    report = harness.run_case(case)
    details = "; ".join(m.describe() for m in report.mismatches)
    assert report.ok, (
        f"corpus case {os.path.basename(path)} regressed "
        f"(original finding: {meta.get('kind')}/{meta.get('backend')}"
        f"): {details}")


@pytest.mark.parametrize(
    "path,case,meta", _LOADED,
    ids=["parallel-" + os.path.splitext(os.path.basename(path))[0]
         for path, _, _ in _LOADED])
def test_corpus_case_replays_green_parallel(path, case, meta,
                                            parallel_harness):
    report = parallel_harness.run_case(case)
    details = "; ".join(m.describe() for m in report.mismatches)
    assert report.ok, (
        f"corpus case {os.path.basename(path)} regressed under the "
        f"parallel engine: {details}")


@pytest.mark.parametrize(
    "path,case,meta", _LOADED,
    ids=["set-" + os.path.splitext(os.path.basename(path))[0]
         for path, _, _ in _LOADED])
def test_corpus_case_replays_green_under_set_semantics(path, case, meta,
                                                       set_harness):
    report = set_harness.run_case(case)
    details = "; ".join(m.describe() for m in report.mismatches)
    assert report.ok, (
        f"corpus case {os.path.basename(path)} regressed under set "
        f"semantics: {details}")
