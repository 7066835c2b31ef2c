#!/usr/bin/env python3
"""Drive tvviz-analyzer over the fixture corpus (tests/static/analyzer/).

Each fixture declares its expectation in markers:

    // expect-reject: <check-id>   one per expected finding of that id
    // expect-clean                the analyzer must report nothing

A rejected fixture must produce *exactly* the marked finding ids (as a
multiset) and exit 1; a clean fixture must exit 0. Unexpected ids fail the
run, so the corpus guards against false positives as much as misses.

Without a built analyzer (no libclang dev installed) the script prints
"SKIPPED: ..." and exits 0; the analyzer_fixtures ctest carries
SKIP_REGULAR_EXPRESSION "^SKIPPED:" so the skip is recorded, never a
silent pass — the same contract as the clang-tidy gate.
"""

from __future__ import annotations

import argparse
import collections
import glob
import os
import re
import shutil
import subprocess
import sys

CHECK_IDS = (
    "zero-copy-escape",
    "loop-blocking-call",
    "loop-this-capture",
    "wire-switch-default",
    "loop-exception-escape",
)
FINDING_RE = re.compile(r"\[(" + "|".join(CHECK_IDS) + r")\]")
REJECT_RE = re.compile(r"//\s*expect-reject:\s*([a-z-]+)")
CLEAN_RE = re.compile(r"//\s*expect-clean")


def resource_dir() -> str | None:
    """Builtin-header dir for the libTooling binary (it does not live in an
    LLVM prefix, so it cannot find <stddef.h> & co. on its own)."""
    clang = shutil.which("clang")
    if clang:
        probe = subprocess.run([clang, "-print-resource-dir"],
                               capture_output=True, text=True, check=False)
        if probe.returncode == 0 and probe.stdout.strip():
            return probe.stdout.strip()
    candidates = sorted(glob.glob("/usr/lib/llvm-*/lib/clang/*"))
    return candidates[-1] if candidates else None


def expectations(path: str) -> tuple[collections.Counter, bool]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    rejects = collections.Counter(REJECT_RE.findall(text))
    clean = CLEAN_RE.search(text) is not None
    return rejects, clean


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", required=True, help="repository root")
    parser.add_argument("--analyzer", default="",
                        help="path to the tvviz-analyzer binary")
    args = parser.parse_args()

    if not args.analyzer or not os.access(args.analyzer, os.X_OK):
        print("SKIPPED: tvviz-analyzer not built (clang dev libraries "
              "unavailable); fixture corpus not exercised")
        return 0

    fixture_dir = os.path.join(args.repo, "tests", "static", "analyzer")
    fixtures = sorted(glob.glob(os.path.join(fixture_dir, "*.cpp")))
    if not fixtures:
        print(f"error: no fixtures under {fixture_dir}", file=sys.stderr)
        return 1

    compile_args = ["--", "-std=c++20", "-I", os.path.join(args.repo, "src")]
    res_dir = resource_dir()
    if res_dir:
        compile_args.append(f"-resource-dir={res_dir}")

    failures = 0
    for fixture in fixtures:
        name = os.path.basename(fixture)
        expected, clean = expectations(fixture)
        if not expected and not clean:
            print(f"FAIL {name}: no expect-reject/expect-clean marker")
            failures += 1
            continue
        if expected and clean:
            print(f"FAIL {name}: both expect-reject and expect-clean")
            failures += 1
            continue

        run = subprocess.run([args.analyzer, fixture] + compile_args,
                             capture_output=True, text=True, check=False)
        got = collections.Counter(FINDING_RE.findall(run.stderr))

        if run.returncode == 2:
            print(f"FAIL {name}: fixture did not parse\n{run.stderr}")
            failures += 1
            continue
        if clean:
            if run.returncode == 0 and not got:
                print(f"ok   {name}: clean as expected")
            else:
                print(f"FAIL {name}: expected clean, got {dict(got)} "
                      f"(exit {run.returncode})\n{run.stderr}")
                failures += 1
            continue
        if run.returncode == 1 and got == expected:
            print(f"ok   {name}: rejected with {dict(expected)}")
        else:
            print(f"FAIL {name}: expected findings {dict(expected)}, got "
                  f"{dict(got)} (exit {run.returncode})\n{run.stderr}")
            failures += 1

    total = len(fixtures)
    print(f"{total - failures}/{total} fixtures behaved as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
