#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then a ThreadSanitizer pass
# over the concurrency-sensitive suites and an ASan+UBSan pass over the
# corruption/fault-injection suites (hostile bytes are where memory bugs
# hide).
#
#   scripts/tier1.sh            # build dirs ./build, ./build-tsan, ./build-asan
#   SKIP_TSAN=1 scripts/tier1.sh
#   SKIP_ASAN=1 scripts/tier1.sh
#   SKIP_SCALAR=1 scripts/tier1.sh   # skip the forced-scalar kernel leg
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: standard build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure -j "$(nproc)")

if [[ "${SKIP_SCALAR:-0}" != "1" ]]; then
  echo "== tier-1: forced-scalar kernels (CLASSMINER_DISABLE_SIMD=1) =="
  # The kernel, codec and mining suites re-run with every SIMD path pinned
  # off, proving the scalar fallbacks carry the pipeline by themselves and
  # that outputs don't depend on the dispatch level. Benches must also
  # compile at both levels (same binaries; dispatch is runtime).
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/kernels_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/codec_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/features_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/cmv_pipeline_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/audio_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/util_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/golden_test \
    --gtest_filter='*EncodeGolden*:*DecodeGolden*'
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/mutation_test \
    --gtest_filter='CmvMutation*'
  cmake --build build -j --target micro_codec >/dev/null
  CLASSMINER_DISABLE_SIMD=1 ./build/bench/micro_codec \
    --benchmark_min_time=0.01 >/dev/null
  cmake --build build -j --target micro_kernels >/dev/null
  CLASSMINER_DISABLE_SIMD=1 ./build/bench/micro_kernels \
    --benchmark_min_time=0.01 >/dev/null
fi

echo "== tier-1: server smoke (daemon + concurrent clients, plain) =="
scripts/server_smoke.sh build

echo "== tier-1: server chaos (fault injection + reconnecting clients) =="
scripts/server_chaos.sh build

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tier-1: ThreadSanitizer (concurrency + parallel pipeline + reactor) =="
  cmake -B build-tsan -S . -DCLASSMINER_TSAN=ON >/dev/null
  cmake --build build-tsan -j --target concurrency_test parallel_pipeline_test pipeline_dag_test frame_source_test failpoint_test codec_test server_test result_cache_test >/dev/null
  ./build-tsan/tests/concurrency_test
  ./build-tsan/tests/parallel_pipeline_test
  ./build-tsan/tests/pipeline_dag_test
  ./build-tsan/tests/frame_source_test
  ./build-tsan/tests/failpoint_test
  ./build-tsan/tests/codec_test
  ./build-tsan/tests/server_test
  ./build-tsan/tests/result_cache_test

  echo "== tier-1: server smoke (TSAN) =="
  # The daemon's accept/worker/deadline threads and the client fan-out all
  # run under ThreadSanitizer; the smoke fails on any reported race.
  cmake --build build-tsan -j --target classminerd classminer_client classminer_cli >/dev/null
  scripts/server_smoke.sh build-tsan

  echo "== tier-1: server chaos (TSAN) =="
  # Fault injection under ThreadSanitizer: torn sends, accept resets and
  # the background scrubber all racing live traffic.
  scripts/server_chaos.sh build-tsan
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "== tier-1: ASan+UBSan (corruption corpus + fault injection) =="
  cmake -B build-asan -S . -DCLASSMINER_ASAN=ON >/dev/null
  cmake --build build-asan -j --target robustness_test failpoint_test codec_test persist_test >/dev/null
  ./build-asan/tests/robustness_test
  ./build-asan/tests/failpoint_test
  ./build-asan/tests/codec_test
  ./build-asan/tests/persist_test

  echo "== tier-1: audio (ASan, golden digests + lag-tail bounds) =="
  cmake --build build-asan -j --target audio_test >/dev/null
  ./build-asan/tests/audio_test

  echo "== tier-1: protocol + CMV mutation + server (ASan) =="
  # Hostile request/response frames and CMV containers/payloads from the
  # seeded mutator, and the reactor's own suite.
  cmake --build build-asan -j --target mutation_test server_test >/dev/null
  ./build-asan/tests/mutation_test
  ./build-asan/tests/server_test

  echo "== tier-1: decode golden digests (ASan; each case encodes its title too) =="
  cmake --build build-asan -j --target golden_test >/dev/null
  ./build-asan/tests/golden_test --gtest_filter='*DecodeGolden*'

  echo "== tier-1: arena + kernels (ASan, poisoned-on-reset chunks) =="
  # The arena poisons recycled chunks on Reset, so any use-after-reset in
  # the decoder's double-buffered planes or the kernel scratch shows up as
  # a use-after-poison here rather than silent cross-run reads.
  cmake --build build-asan -j --target arena_test kernels_test >/dev/null
  ./build-asan/tests/arena_test
  ./build-asan/tests/kernels_test

  echo "== tier-1: crash-recovery matrix (ASan) =="
  # Crashes injected at every serial.atomic_write.* site, with and without
  # a prior generation, must leave a reopenable database; torn CMV/CMDB
  # files must resynchronise; repair must bring verify back to clean. The
  # sharded tier's matrix adds the index.shard.append.* / index.shard.
  # compact.* / index.shard.open sites: any injected crash must reopen to a
  # consistent pre- or post-operation library, never a torn one.
  cmake --build build-asan -j --target recovery_test shard_test >/dev/null
  ./build-asan/tests/recovery_test
  ./build-asan/tests/shard_test
fi

echo "tier-1 OK"
