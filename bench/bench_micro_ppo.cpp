// Micro-benchmarks of the RL substrate: environment stepping, the batched
// nn kernels and PPO training throughput — the cost model behind the bench
// budgets.
//
// The custom main() first runs two probes (skipped when
// IMAP_BENCH_NO_PROBE is set, e.g. by the CI bench-smoke stage):
//  * a parallel-speedup probe — the same PPO configuration (4 rollout
//    workers, auto gradient shards) timed once pinned serial (ScopedSerial)
//    and once on a dedicated 4-thread pool (ScopedPool), verifying the
//    traces match bit-for-bit and recording the timings in
//    BENCH_parallel.json;
//  * a kernel probe — the batched PPO update timed on one fixed rollout
//    (hidden {64,64}, minibatch 64), recording seconds per update in
//    BENCH_kernels.json (committed, see README).
// The google-benchmark suites then run as usual.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "attack/threat_model.h"
#include "common/thread_pool.h"
#include "env/registry.h"
#include "grid_runner.h"
#include "nn/batch.h"
#include "rl/ppo.h"

using namespace imap;

namespace {

void BM_EnvStep(benchmark::State& state, const std::string& name) {
  auto env = env::make_env(name);
  Rng rng(7);
  auto obs = env->reset(rng);
  const auto action = env->action_space().sample(rng);
  for (auto _ : state) {
    auto sr = env->step(action);
    if (sr.done || sr.truncated) env->reset(rng);
    benchmark::DoNotOptimize(sr.reward);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EnvStep, hopper, std::string("Hopper"));
BENCHMARK_CAPTURE(BM_EnvStep, ant, std::string("Ant"));
BENCHMARK_CAPTURE(BM_EnvStep, maze, std::string("AntUMaze"));
BENCHMARK_CAPTURE(BM_EnvStep, fetch, std::string("FetchReach"));

void BM_PolicyForward(benchmark::State& state) {
  Rng rng(7);
  nn::GaussianPolicy policy(17, 6, {32, 32}, rng);
  const auto obs = rng.normal_vec(17);
  for (auto _ : state) benchmark::DoNotOptimize(policy.mean_action(obs));
}
BENCHMARK(BM_PolicyForward);

// Batched MLP forward through the blocked kernels: items/s is rows/s, so
// the Arg(1) row is the per-sample baseline the larger batches amortise.
void BM_MlpForwardBatch(benchmark::State& state) {
  Rng rng(7);
  nn::Mlp net({17, 64, 64, 6}, rng);
  const auto b = static_cast<std::size_t>(state.range(0));
  nn::Batch x(b, 17);
  for (std::size_t r = 0; r < b; ++r)
    for (std::size_t c = 0; c < 17; ++c) x(r, c) = rng.normal();
  nn::Mlp::Workspace ws;
  for (auto _ : state) {
    const auto& y = net.forward_batch(x, ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(b));
}
BENCHMARK(BM_MlpForwardBatch)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// The optimisation stage alone (sampling excluded) on one fixed rollout.
void BM_PpoUpdate(benchmark::State& state) {
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.hidden = {64, 64};
  opts.minibatch = 64;
  opts.epochs = 1;
  opts.target_kl = 0.0;
  opts.steps_per_iter = 2048;
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  rl::RolloutBuffer buf;
  trainer.collect(buf);
  rl::IterStats stats;
  for (auto _ : state) {
    trainer.update(buf, 0.0, stats);
    benchmark::DoNotOptimize(stats.value_loss);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          opts.steps_per_iter);
}
BENCHMARK(BM_PpoUpdate)->Unit(benchmark::kMillisecond);

/// The attack-rollout MDP the collection benchmark runs on: Hopper wrapped
/// in StatePerturbationEnv over a network-backed frozen victim, so every
/// step pays a one-row victim query.
std::unique_ptr<attack::StatePerturbationEnv> make_collect_proto() {
  const auto inner = env::make_env("Hopper");
  Rng victim_rng(11);
  nn::GaussianPolicy victim(inner->obs_dim(), inner->act_dim(), {64, 64},
                            victim_rng);
  return std::make_unique<attack::StatePerturbationEnv>(
      *inner, rl::PolicyHandle::snapshot(victim), 0.075,
      attack::RewardMode::Adversary);
}

// Rollout collection throughput: one slot on the trainer's stream, one-row
// policy, value and victim forwards per step.
void BM_RolloutCollect(benchmark::State& state) {
  const auto proto = make_collect_proto();
  rl::PpoOptions opts;
  opts.hidden = {64, 64};
  opts.steps_per_iter = 2048;
  rl::PpoTrainer trainer(*proto, opts, Rng(7));
  rl::RolloutBuffer buf;
  for (auto _ : state) {
    trainer.collect(buf);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          opts.steps_per_iter);
}
BENCHMARK(BM_RolloutCollect)->Unit(benchmark::kMillisecond);

void BM_PpoIteration(benchmark::State& state) {
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.steps_per_iter = static_cast<int>(state.range(0));
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  for (auto _ : state) {
    auto stats = trainer.iterate();
    benchmark::DoNotOptimize(stats.mean_return);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PpoIteration)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

// Parallel PPO iteration: 4 rollout workers + auto gradient shards on the
// process pool (serial unless IMAP_THREADS / the core count allows more).
void BM_PpoIterationParallel(benchmark::State& state) {
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.steps_per_iter = static_cast<int>(state.range(0));
  opts.num_workers = 4;
  opts.grad_shards = 0;  // auto from minibatch
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  for (auto _ : state) {
    auto stats = trainer.iterate();
    benchmark::DoNotOptimize(stats.mean_return);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PpoIterationParallel)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// Run `iters` PPO iterations with the parallel options; returns (seconds,
/// final mean_return) so the serial/pool traces can be compared.
std::pair<double, double> probe_run(int iters) {
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.steps_per_iter = 2048;
  opts.num_workers = 4;
  opts.grad_shards = 0;
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  const auto t0 = std::chrono::steady_clock::now();
  double last = 0.0;
  for (int i = 0; i < iters; ++i) last = trainer.iterate().mean_return;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {secs, last};
}

void speedup_probe() {
  constexpr int kIters = 3;
  double serial_s = 0.0, pool_s = 0.0;
  double serial_ret = 0.0, pool_ret = 0.0;
  {
    ScopedSerial serial;
    std::tie(serial_s, serial_ret) = probe_run(kIters);
  }
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    std::tie(pool_s, pool_ret) = probe_run(kIters);
  }
  const double speedup = pool_s > 0.0 ? serial_s / pool_s : 1.0;
  // The pool must reproduce the serial return bit for bit: exact on purpose.
  const bool identical = serial_ret == pool_ret;  // imap-check: allow(float-eq)

  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"iters\": " << kIters << ", \"steps_per_iter\": 2048"
     << ", \"workers\": 4, \"serial_s\": " << serial_s
     << ", \"pool4_s\": " << pool_s << ", \"speedup\": " << speedup
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"traces_identical\": " << (identical ? "true" : "false") << "}";
  bench::write_parallel_report_entry("bench_micro_ppo", os.str());
  std::cerr << "bench_micro_ppo speedup probe: serial " << serial_s
            << "s vs 4-thread pool " << pool_s << "s (" << speedup
            << "x) on "
            << std::thread::hardware_concurrency()
            << " hardware threads; traces "
            << (identical ? "identical" : "DIVERGED")
            << " -> BENCH_parallel.json\n";
}

/// Time the batched PPO update stage on a fixed rollout; returns the
/// minimum seconds per update.
double kernel_probe_run() {
  ScopedSerial serial;  // isolate the kernel cost from thread scaling
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.hidden = {64, 64};
  opts.minibatch = 64;
  opts.epochs = 1;
  opts.target_kl = 0.0;
  opts.steps_per_iter = 2048;
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  rl::RolloutBuffer buf;
  trainer.collect(buf);
  rl::IterStats stats;
  trainer.update(buf, 0.0, stats);  // warm-up: grow the workspace arenas
  // Min over repetitions, not mean: background load only ever inflates a
  // rep, so the minimum is the robust estimate of the kernel cost.
  constexpr int kUpdates = 7;
  double secs = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kUpdates; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    trainer.update(buf, 0.0, stats);
    secs = std::min(
        secs, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
  }
  return secs;
}

void kernel_probe() {
  const double update_s = kernel_probe_run();
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(5);
  os << "{\"env\": \"Hopper\", \"hidden\": [64, 64], \"minibatch\": 64"
     << ", \"epochs\": 1, \"steps_per_iter\": 2048"
     << ", \"update_s\": " << update_s
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << "}";
  bench::write_report_entry("BENCH_kernels.json", "BM_PpoUpdate", os.str());
  std::cerr << "bench_micro_ppo kernel probe: batched update " << update_s
            << "s -> BENCH_kernels.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (std::getenv("IMAP_BENCH_NO_PROBE") == nullptr) {
    speedup_probe();
    kernel_probe();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
