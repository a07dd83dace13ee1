#!/bin/sh
# Build, test, and regenerate every table/figure. See EXPERIMENTS.md for
# how to read the outputs.
#
#   ./run_all.sh                 normal build + tests + benches
#   ./run_all.sh --asan          ASan+UBSan build (separate build dir) + tests
#   ./run_all.sh --tsan          TSan build (separate build dir) + tests
#   ./run_all.sh --chaos         ASan build + the chaos suite only: audit
#                                fuzz under bit-flip + allocation-failure
#                                injection, and the oops/quarantine death
#                                tests (graceful degradation end to end)
#   ./run_all.sh --huge          the translation-reach suite only: huged
#                                collapse/split tests, the huge audit-fuzz
#                                cases, and the promotion-policy bench
#   ./run_all.sh --jobs N        worker threads per bench (default: cores)
#   ./run_all.sh --json-out DIR  write BENCH_<name>.json files into DIR
#   ./run_all.sh --smoke         reduced footprints (CI-sized runs)
set -e

JOBS=""
JSON_OUT=""
SMOKE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --asan)
      cmake -B build-asan -G Ninja -DSAT_SANITIZE=ASAN
      cmake --build build-asan
      ctest --test-dir build-asan --output-on-failure
      exit 0
      ;;
    --tsan)
      cmake -B build-tsan -G Ninja -DSAT_SANITIZE=TSAN
      cmake --build build-tsan
      ctest --test-dir build-tsan --output-on-failure
      exit 0
      ;;
    --chaos)
      cmake -B build-asan -G Ninja -DSAT_SANITIZE=ASAN
      cmake --build build-asan
      ctest --test-dir build-asan --output-on-failure \
        -R '_chaos|OopsRecovery|InvariantDeath|ScrubRepairsRottenLargeReplica|ScrubSweepVotesRottenWords'
      exit 0
      ;;
    --huge)
      cmake -B build -G Ninja
      cmake --build build
      ctest --test-dir build --output-on-failure -R 'Huge|_huge'
      ./build/bench/bench_largepage --smoke
      exit 0
      ;;
    --jobs)
      JOBS="--jobs $2"
      shift
      ;;
    --json-out)
      JSON_OUT="$2"
      shift
      ;;
    --smoke)
      SMOKE="--smoke"
      ;;
    *)
      echo "unknown option: $1" >&2
      exit 2
      ;;
  esac
  shift
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

BENCH_FLAGS="$JOBS $SMOKE"
if [ -n "$JSON_OUT" ]; then
  mkdir -p "$JSON_OUT"
  BENCH_FLAGS="$BENCH_FLAGS --json-out $JSON_OUT"
fi
# shellcheck disable=SC2086  # BENCH_FLAGS is a deliberate word list
for b in build/bench/bench_*; do "$b" $BENCH_FLAGS; done
