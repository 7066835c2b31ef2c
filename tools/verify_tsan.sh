#!/bin/sh
# Build the tree with ThreadSanitizer and run the concurrency-heavy suites:
# the vmp messaging layer, the network daemon/queues, the TCP transport,
# the multi-client hub, the relay tree, the observability registries, and
# the util suite.
#
# Usage: tools/verify_tsan.sh [--static] [build-dir]
#   --static  preflight the compile-time concurrency contracts first
#             (invariant linter + clang-tidy gate via
#             tools/run_static_analysis.sh, and a -Werror=thread-safety
#             build when clang is available) — catches lock-discipline
#             violations in seconds before the minutes-long TSan run.
set -e

cd "$(dirname "$0")/.."

if [ "$1" = "--static" ]; then
  shift
  sh tools/run_static_analysis.sh
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-threadsafety -S . \
      -DCMAKE_CXX_COMPILER=clang++ -DTVVIZ_THREAD_SAFETY=ON
    cmake --build build-threadsafety -j
  else
    echo "verify_tsan: clang++ not found; skipping the -Werror=thread-safety" \
         "build (the CI static-analysis job covers it)" >&2
  fi
fi

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DTVVIZ_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target \
  vmp_test net_test obs_test tcp_test hub_test relay_test util_test

cd "$BUILD_DIR"
ctest -L 'vmp_test|net_test|obs_test|tcp_test|hub_test|relay_test|util_test' --output-on-failure -j 4
