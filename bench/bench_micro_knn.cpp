// Micro-benchmarks of the KNN state-density estimator (Sec. 5.2) — the
// per-step cost that dominates IMAP's intrinsic-bonus computation.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/knn.h"

using imap::Rng;
using imap::core::KnnBuffer;

namespace {

KnnBuffer filled_buffer(std::size_t dim, std::size_t n, std::size_t k) {
  Rng rng(42);
  KnnBuffer buf(dim, n, k, rng.split(1));
  for (std::size_t i = 0; i < n; ++i) buf.add(rng.normal_vec(dim));
  return buf;
}

void BM_KnnAdd(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  KnnBuffer buf(dim, 4096, 3, rng.split(1));
  const auto s = rng.normal_vec(dim);
  for (auto _ : state) {
    buf.add(s);
    benchmark::DoNotOptimize(buf.size());
  }
}
BENCHMARK(BM_KnnAdd)->Arg(8)->Arg(16)->Arg(32);

void BM_KnnQuery(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto buf = filled_buffer(dim, n, 3);
  Rng rng(7);
  const auto q = rng.normal_vec(dim);
  for (auto _ : state) benchmark::DoNotOptimize(buf.knn_distance(q));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_KnnQuery)
    ->Args({8, 1024})
    ->Args({8, 4096})
    ->Args({16, 4096})
    ->Args({16, 16384})
    ->Args({32, 4096});

// One PC bonus pass at rollout scale, as core/regularizer.cpp runs it: the
// 2048 rollout states are queried against their own D_k (2048 rows) and the
// union buffer B (4096 rows) at Hopper's observation width, 11. The batch
// entry (lanes across rows, threads across query tiles) and the single-query
// probe scan the same rows, so the two timings differ only in the entry.
struct PcPass {
  static constexpr std::size_t kDim = 11, kRollout = 2048, kCap = 4096;
  KnnBuffer dk = filled_buffer(kDim, kRollout, 3);
  KnnBuffer union_buf = filled_buffer(kDim, kCap, 3);
  std::vector<double> queries;
  PcPass() {
    Rng rng(42);
    for (std::size_t i = 0; i < kRollout; ++i) {
      const auto s = rng.normal_vec(kDim);
      queries.insert(queries.end(), s.begin(), s.end());
    }
  }
};

void BM_PcBonusBatch(benchmark::State& state) {
  const PcPass pass;
  std::vector<double> sq(2 * PcPass::kRollout);
  for (auto _ : state) {
    pass.dk.knn_distance_sq_batch(pass.queries.data(), PcPass::kRollout,
                                  sq.data());
    pass.union_buf.knn_distance_sq_batch(pass.queries.data(),
                                         PcPass::kRollout,
                                         sq.data() + PcPass::kRollout);
    benchmark::DoNotOptimize(sq.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PcBonusBatch)->Unit(benchmark::kMillisecond);

void BM_PcBonusPerQuery(benchmark::State& state) {
  const PcPass pass;
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < PcPass::kRollout; ++i) {
      const double* q = pass.queries.data() + i * PcPass::kDim;
      acc += pass.dk.knn_distance_sq(q) + pass.union_buf.knn_distance_sq(q);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PcBonusPerQuery)->Unit(benchmark::kMillisecond);

}  // namespace
