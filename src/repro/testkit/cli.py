"""``repro fuzz`` — the conformance fuzz loop for local and CI runs.

Examples::

    python -m repro fuzz --cases 500 --seed 0
    python -m repro fuzz --cases 300 --seed from-run-id \
        --backends oracle,engine,optimized,sql --fragment balg2
    python -m repro fuzz --cases 50 --corpus /tmp/corpus

``--seed from-run-id`` resolves ``$GITHUB_RUN_ID`` (falling back to 0)
so the nightly conformance job explores a fresh deterministic stream
per run while any failure stays replayable from the printed seed.
Failing cases are minimized and persisted into ``--corpus`` as JSON
repros; exit status is 1 when any mismatch survived.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.guard import Limits
from repro.testkit.corpus import save_case
from repro.testkit.differential import (
    DEFAULT_BACKENDS, DEFAULT_LIMITS, EXTRA_BACKENDS, Harness, RunSummary,
)
from repro.testkit.generate import (
    FRAGMENT_NESTING, generate_case, shrink_case,
)

__all__ = ["main"]


def _resolve_seed(text: str) -> int:
    if text == "from-run-id":
        return int(os.environ.get("GITHUB_RUN_ID", "0") or "0")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="N-way differential conformance fuzzing")
    parser.add_argument("--seed", default="0",
                        help="integer seed, or 'from-run-id' to use "
                             "$GITHUB_RUN_ID (default: 0)")
    parser.add_argument("--cases", type=int, default=100,
                        help="number of generated cases (default: 100)")
    parser.add_argument("--fragment", default="mixed",
                        choices=sorted(FRAGMENT_NESTING) + ["mixed"],
                        help="fragment to generate (default: mixed)")
    parser.add_argument("--backends",
                        default=",".join(DEFAULT_BACKENDS),
                        help="comma-separated backend list (default: "
                             + ",".join(DEFAULT_BACKENDS)
                             + "; also available: "
                             + ",".join(EXTRA_BACKENDS) + ")")
    parser.add_argument("--corpus", default="tests/corpus",
                        help="directory for minimized failing cases "
                             "(default: tests/corpus)")
    parser.add_argument("--size", type=int, default=14,
                        help="expression size budget (default: 14)")
    parser.add_argument("--workspace", default=None, metavar="DIR",
                        help="fuzz against a persisted workspace: "
                             "case databases come from the relation "
                             "files round-tripped through DIR (a "
                             "seeded workspace is synthesized there "
                             "when empty) and the engines compile "
                             "against its statistics catalog")
    parser.add_argument("--max-steps", type=int,
                        default=DEFAULT_LIMITS.max_steps)
    parser.add_argument("--max-size", type=int,
                        default=DEFAULT_LIMITS.max_size)
    parser.add_argument("--powerset-budget", type=int,
                        default=DEFAULT_LIMITS.powerset_budget)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--no-metamorphic", action="store_true",
                        help="skip the metamorphic law catalogue")
    parser.add_argument("--no-shrink", action="store_true",
                        help="persist failing cases unminimized")
    parser.add_argument("--quiet", "-q", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = _build_parser().parse_args(argv)
    try:
        seed = _resolve_seed(arguments.seed)
    except ValueError:
        print(f"error: --seed expects an integer or 'from-run-id', "
              f"got {arguments.seed!r}", file=sys.stderr)
        return 2
    backends = tuple(name.strip()
                     for name in arguments.backends.split(",")
                     if name.strip())
    limits = Limits(max_steps=arguments.max_steps,
                    max_size=arguments.max_size,
                    powerset_budget=arguments.powerset_budget,
                    timeout=arguments.timeout,
                    max_depth=DEFAULT_LIMITS.max_depth)
    workspace = None
    if arguments.workspace is not None:
        from repro.testkit.wsdiff import seeded_workspace
        workspace = seeded_workspace(arguments.workspace, seed)
    try:
        harness = Harness(backends=backends, limits=limits,
                          metamorphic=not arguments.no_metamorphic,
                          catalog=workspace)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    out = sys.stdout
    summary = RunSummary()
    failures = 0
    for index in range(arguments.cases):
        if workspace is not None:
            from repro.testkit.wsdiff import workspace_case
            case = workspace_case(workspace, seed, index)
        else:
            case = generate_case(seed, index,
                                 fragment=arguments.fragment,
                                 size=arguments.size)
        report = harness.run_case(case)
        summary.absorb(report)
        if not arguments.quiet and (index + 1) % 50 == 0:
            print(f"  ... {index + 1}/{arguments.cases} cases, "
                  f"{len(summary.mismatches)} mismatches", file=out)
        if report.ok:
            continue
        failures += 1
        for mismatch in report.mismatches:
            print(f"MISMATCH {mismatch.describe()}", file=out)
        minimized = case
        if not arguments.no_shrink:
            def still_fails(candidate) -> bool:
                return bool(harness.run_case(candidate).mismatches)
            minimized = shrink_case(case, still_fails)
        first = report.mismatches[0]
        path = save_case(
            minimized, arguments.corpus,
            meta={"kind": first.kind, "backend": first.backend,
                  "reference": first.reference,
                  "detail": first.detail[:500],
                  "found_by": (f"repro fuzz --seed {seed} "
                               f"--fragment {arguments.fragment} "
                               f"--size {arguments.size}"
                               + (f" --workspace {arguments.workspace}"
                                  if workspace is not None else ""))})
        print(f"  minimized repro saved to {path}", file=out)
    print(f"fuzz: {summary.describe()}", file=out)
    if failures:
        print(f"fuzz: FAILED ({failures} failing cases persisted to "
              f"{arguments.corpus})", file=out)
        return 1
    print("fuzz: OK", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
