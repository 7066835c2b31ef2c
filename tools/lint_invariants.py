#!/usr/bin/env python3
"""Project-invariant linter: checks the contracts the compiler can't.

Six checks, each a build-breaking invariant of this repository:

1. counter-registry  Every metric name passed to ``obs::counter()`` /
                     ``obs::gauge()`` in ``src/`` must appear in the
                     authoritative registry in DESIGN.md (the table between
                     the ``<!-- counter-registry:begin/end -->`` markers),
                     and every registry entry must correspond to a real call
                     site — both directions, with kinds (counter vs gauge)
                     matched.  Dynamically built names (``"codec." + name +
                     ".bytes_in"``) are matched structurally against registry
                     patterns containing ``<placeholder>`` segments.

2. raw-mutex         ``std::mutex`` / ``std::lock_guard`` /
                     ``std::condition_variable`` (and friends) are banned in
                     ``src/``, ``bench/``, and ``tools/tvviz.cpp`` outside
                     ``src/util/mutex.hpp``.  The wrapper types carry the
                     Clang Thread Safety annotations (DESIGN.md §13); a raw
                     mutex is invisible to the analysis and silently
                     re-opens the holes this layer closed — and bench
                     harnesses share fixtures with the library, so they are
                     held to the same rule.

3. fault-wall-clock  ``src/fault`` is the deterministic fault-injection
                     subsystem: decisions must depend only on the seeded RNG
                     and the observed traffic, never on wall-clock time.
                     Reading a wall clock (``system_clock``, ``time()``,
                     ``gettimeofday``, ``util::WallTimer``...) is banned
                     there.  ``steady_clock`` deadlines and ``sleep_for``
                     (which *spend* time but don't *branch* on it) are
                     allowed.

4. fnv-constants     The FNV-1a magic numbers may appear in ``src/`` only
                     inside ``util/hash.hpp``.  A hash computed by one
                     build must match the one another build computes from
                     the same bytes, so every byte hash goes through
                     ``util::fnv1a`` — a stray re-implementation forks the
                     hash the moment someone "fixes" one copy.

5. simd-intrinsics   CPU intrinsics (``<immintrin.h>`` and friends,
                     ``_mm*_...`` / ``v...q_...`` calls) may appear in
                     ``src/`` only inside ``util/simd.hpp``.  Every other
                     file calls the dispatched wrappers, which keep the
                     scalar tier bit-identical and runtime-selectable
                     (``TVVIZ_SIMD=scalar``); a stray intrinsic call site
                     silently escapes both the parity tests and the
                     dispatch override.

6. test-only-header  Every header under ``src/`` must be included by at
                     least one file under ``src/``, ``tools/``, ``bench/``,
                     ``examples/`` or ``perfbench/`` other than its own
                     ``.cpp``.  A header that only its tests include is
                     code nothing runs: the tests keep it compiling while
                     its comments drift from the truth.  Delete it with its
                     tests, or call it.

Run directly (``tools/lint_invariants.py [--repo PATH]``) or via ctest /
CI, where it is registered as the ``lint_invariants`` test.  Exit status is
the number of violation classes that fired (0 = clean).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# Shared helpers


def strip_comments(text: str) -> str:
    """Remove C++ comments, preserving line numbers.

    Needed because doc comments legitimately *mention* banned spellings
    (e.g. the usage example in obs/counters.hpp names a counter).
    """

    def blank(match: re.Match) -> str:
        return "\n" * match.group(0).count("\n")

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return text


def source_files(src: pathlib.Path):
    for path in sorted(src.rglob("*")):
        if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
            yield path


class Violations:
    def __init__(self) -> None:
        self.count = 0

    def report(self, where: str, message: str) -> None:
        print(f"lint_invariants: {where}: {message}", file=sys.stderr)
        self.count += 1


# --------------------------------------------------------------------------
# Check 1: counter registry <-> code cross-check

REGISTRY_BEGIN = "<!-- counter-registry:begin -->"
REGISTRY_END = "<!-- counter-registry:end -->"
PLACEHOLDER = re.compile(r"<[^<>]+>")
CALL = re.compile(r"\bobs::(counter|gauge)\s*\(")


def parse_registry(design: pathlib.Path, out: Violations):
    """Return {(kind, name): is_pattern} from the DESIGN.md table."""
    text = design.read_text(encoding="utf-8")
    begin = text.find(REGISTRY_BEGIN)
    end = text.find(REGISTRY_END)
    if begin < 0 or end < 0 or end < begin:
        out.report(str(design), "counter-registry markers missing or inverted")
        return {}
    entries = {}
    for line in text[begin:end].splitlines():
        row = re.match(r"\|\s*`([^`]+)`\s*\|\s*(counter|gauge)\s*\|", line)
        if not row:
            continue
        name, kind = row.group(1), row.group(2)
        key = (kind, name)
        if key in entries:
            out.report(str(design), f"duplicate registry entry `{name}`")
        entries[key] = bool(PLACEHOLDER.search(name))
    if not entries:
        out.report(str(design), "counter registry is empty")
    return entries


def extract_call_arg(text: str, start: int) -> str:
    """Return the balanced-paren argument text beginning at ``start``."""
    depth, i = 1, start
    while depth and i < len(text):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
        i += 1
    return text[start : i - 1]


def scan_metric_calls(src: pathlib.Path):
    """Yield (kind, file, line, literal_name | None, skeleton_regex | None).

    A single string-literal argument yields its exact name.  Anything else
    (concatenation with a runtime value) yields a skeleton regex built from
    the literal fragments, anchored wherever the argument starts or ends
    with a literal.
    """
    for path in source_files(src):
        text = strip_comments(path.read_text(encoding="utf-8"))
        for match in CALL.finditer(text):
            kind = match.group(1)
            line = text.count("\n", 0, match.start()) + 1
            arg = extract_call_arg(text, match.end()).strip()
            exact = re.fullmatch(r'"((?:[^"\\]|\\.)*)"', arg)
            if exact:
                yield kind, path, line, exact.group(1), None
                continue
            fragments = re.findall(r'"((?:[^"\\]|\\.)*)"', arg)
            if not fragments:
                # Name is fully runtime-computed; nothing to check
                # structurally, but it still must be a documented pattern —
                # flag it so the author adds a literal fragment.
                yield kind, path, line, None, None
                continue
            body = ".*".join(re.escape(f) for f in fragments)
            prefix = "" if arg.startswith('"') else ".*"
            suffix = "" if arg.endswith('"') else ".*"
            yield kind, path, line, None, prefix + body + suffix


def pattern_sample(name: str) -> str:
    """Instantiate registry placeholders with a concrete stand-in."""
    return PLACEHOLDER.sub("x0", name)


def check_counter_registry(repo: pathlib.Path, out: Violations) -> None:
    design = repo / "DESIGN.md"
    entries = parse_registry(design, out)
    if not entries:
        return
    exact_entries = {k for k, is_pat in entries.items() if not is_pat}
    pattern_entries = {k for k, is_pat in entries.items() if is_pat}

    seen_exact = set()
    matched_patterns = set()
    for kind, path, line, literal, skeleton in scan_metric_calls(repo / "src"):
        where = f"{path.relative_to(repo)}:{line}"
        if literal is not None:
            if (kind, literal) in exact_entries:
                seen_exact.add((kind, literal))
            else:
                other = "gauge" if kind == "counter" else "counter"
                if (other, literal) in entries:
                    out.report(
                        where,
                        f"`{literal}` is emitted as a {kind} but registered "
                        f"as a {other} in DESIGN.md",
                    )
                else:
                    out.report(
                        where,
                        f"{kind} `{literal}` is not in the DESIGN.md counter "
                        "registry — document it (or fix the name)",
                    )
        elif skeleton is not None:
            regex = re.compile(skeleton)
            hits = {
                (k, n)
                for (k, n) in pattern_entries
                if k == kind and regex.fullmatch(pattern_sample(n))
            }
            if hits:
                matched_patterns |= hits
            else:
                out.report(
                    where,
                    f"dynamically built {kind} name (fragments match "
                    f"/{skeleton}/) has no `<placeholder>` pattern in the "
                    "DESIGN.md counter registry",
                )
        else:
            out.report(
                where,
                f"{kind} name is fully runtime-computed; include at least "
                "one string-literal fragment so the registry linter can "
                "match it against a documented pattern",
            )

    for kind, name in sorted(exact_entries - seen_exact):
        out.report(
            "DESIGN.md",
            f"registry documents {kind} `{name}` but no code in src/ emits "
            "it — delete the entry or restore the metric",
        )
    for kind, name in sorted(pattern_entries - matched_patterns):
        out.report(
            "DESIGN.md",
            f"registry pattern {kind} `{name}` matches no dynamic call site "
            "in src/",
        )


# --------------------------------------------------------------------------
# Check 2: raw std::mutex family banned outside the annotated wrapper

RAW_MUTEX = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)


def check_raw_mutex(repo: pathlib.Path, out: Violations) -> None:
    wrapper = repo / "src" / "util" / "mutex.hpp"
    scanned = list(source_files(repo / "src"))
    scanned += list(source_files(repo / "bench"))
    tvviz_cli = repo / "tools" / "tvviz.cpp"
    if tvviz_cli.is_file():
        scanned.append(tvviz_cli)
    for path in scanned:
        if path == wrapper:
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(text.splitlines(), 1):
            match = RAW_MUTEX.search(line)
            if match:
                out.report(
                    f"{path.relative_to(repo)}:{lineno}",
                    f"raw `{match.group(0).strip()}` — use util::Mutex / "
                    "util::LockGuard / util::CondVar from util/mutex.hpp so "
                    "the thread-safety analysis sees the lock (DESIGN.md "
                    "§13)",
                )


# --------------------------------------------------------------------------
# Check 3: wall-clock reads banned in the deterministic fault subsystem

WALL_CLOCK = re.compile(
    r"\bstd::chrono::(system_clock|high_resolution_clock)\b"
    r"|\b(?:gettimeofday|clock_gettime|localtime|gmtime|mktime)\s*\("
    r"|\bstd::time\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|\bWallTimer\b"
)


def check_fault_wall_clock(repo: pathlib.Path, out: Violations) -> None:
    fault_dir = repo / "src" / "fault"
    for path in source_files(fault_dir):
        text = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(text.splitlines(), 1):
            match = WALL_CLOCK.search(line)
            if match:
                out.report(
                    f"{path.relative_to(repo)}:{lineno}",
                    f"wall-clock read `{match.group(0).strip()}` in the "
                    "deterministic fault subsystem — decisions must depend "
                    "only on the seed and observed traffic (steady_clock "
                    "deadlines and sleep_for are fine)",
                )


# --------------------------------------------------------------------------
# Check 4: FNV-1a constants banned outside the canonical hash header

FNV_CONSTANT = re.compile(
    r"0x0*cbf29ce484222325\b|0x0*100000001b3\b", re.IGNORECASE
)


def check_fnv_constants(repo: pathlib.Path, out: Violations) -> None:
    canonical = repo / "src" / "util" / "hash.hpp"
    for path in source_files(repo / "src"):
        if path == canonical:
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(text.splitlines(), 1):
            match = FNV_CONSTANT.search(line)
            if match:
                out.report(
                    f"{path.relative_to(repo)}:{lineno}",
                    f"raw FNV constant `{match.group(0)}` — hash through "
                    "util::fnv1a (util/hash.hpp) so hashes and replay "
                    "streams stay identical across every build",
                )


# --------------------------------------------------------------------------
# Check 5: CPU intrinsics banned outside the dispatch header

SIMD_INTRINSIC = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|x86gprintrin|emmintrin|xmmintrin|"
    r"pmmintrin|tmmintrin|smmintrin|nmmintrin|wmmintrin|ammintrin|"
    r"arm_neon|arm_sve)\.h>"
    r"|\b_mm\d*_[a-z0-9_]+\s*\("  # _mm_add_ps(, _mm256_loadu_si256(, ...
    r"|\b__m(?:64|128|256|512)[a-z]*\b"  # __m128, __m256i, __m512d, ...
    r"|\b(?:u?int|float|poly)(?:8|16|32|64)x\d+(?:x\d+)?_t\b"  # NEON vectors
)


def check_simd_intrinsics(repo: pathlib.Path, out: Violations) -> None:
    dispatch = repo / "src" / "util" / "simd.hpp"
    for path in source_files(repo / "src"):
        if path == dispatch:
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(text.splitlines(), 1):
            match = SIMD_INTRINSIC.search(line)
            if match:
                out.report(
                    f"{path.relative_to(repo)}:{lineno}",
                    f"CPU intrinsic `{match.group(0).strip()}` outside "
                    "util/simd.hpp — call the dispatched wrapper instead so "
                    "the scalar tier stays selectable and bit-identical "
                    "(DESIGN.md §16)",
                )


# --------------------------------------------------------------------------
# Check 6: every src/ header has a caller outside the tests

INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')
CALLER_DIRS = ("src", "tools", "bench", "examples", "perfbench")


def check_test_only_headers(repo: pathlib.Path, out: Violations) -> None:
    src = repo / "src"
    includers = {}  # "field/store.hpp" -> files that include it
    for top in CALLER_DIRS:
        if not (repo / top).is_dir():
            continue
        for path in source_files(repo / top):
            text = strip_comments(path.read_text(encoding="utf-8"))
            for name in INCLUDE.findall(text):
                includers.setdefault(name, set()).add(path)
    for header in source_files(src):
        if header.suffix not in (".hpp", ".h"):
            continue
        own_cpp = header.with_suffix(".cpp")
        name = header.relative_to(src).as_posix()
        if not includers.get(name, set()) - {own_cpp}:
            out.report(
                str(header.relative_to(repo)),
                "included only by tests (or by nothing but its own .cpp) — "
                "delete it with its tests, or call it from the program",
            )


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: parent of tools/)",
    )
    args = parser.parse_args()
    repo = args.repo.resolve()
    if not (repo / "src").is_dir():
        print(f"lint_invariants: {repo} has no src/ directory", file=sys.stderr)
        return 2

    out = Violations()
    before = out.count
    classes_failed = 0
    for check in (check_counter_registry, check_raw_mutex,
                  check_fault_wall_clock, check_fnv_constants,
                  check_simd_intrinsics, check_test_only_headers):
        check(repo, out)
        if out.count > before:
            classes_failed += 1
        before = out.count

    if out.count:
        print(
            f"lint_invariants: {out.count} violation(s) in "
            f"{classes_failed} check(s)",
            file=sys.stderr,
        )
        return 1
    print("lint_invariants: counter registry, mutex wrappers, fault "
          "determinism, hash canonicalization, SIMD intrinsic "
          "containment, and header callers all clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
