// Tests for the batched kernel layer (nn/batch.h, Mlp::forward_batch /
// backward_batch and the batched policy/critic APIs):
//  * bitwise parity — every B-row batched result must equal B one-row
//    batches run in ascending row order (and the per-row forward) exactly,
//    not approximately (the determinism contract in DESIGN.md);
//  * finite-difference correctness of the batched backward;
//  * the zero-allocation guarantee of the Workspace arena in steady state;
//  * end-to-end: the batched PPO update reproduces the recorded trace of the
//    per-sample reference update bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "digest.h"
#include "env/registry.h"
#include "nn/batch.h"
#include "nn/gaussian.h"
#include "nn/mlp.h"
#include "rl/ppo.h"

// ---------------------------------------------------------------------------
// Counting allocator: a global operator new override that tallies
// allocations while a test section is armed. Disabled under sanitizers,
// whose own allocator interposition this would fight with.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define IMAP_TEST_NO_ALLOC_COUNTING 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IMAP_TEST_NO_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long long> g_alloc_count{0};
}  // namespace

#ifndef IMAP_TEST_NO_ALLOC_COUNTING
// GCC pairs new-expressions elsewhere in this TU with these replacements and
// cannot see that the replacement new allocates via malloc, so free() here is
// the correct partner — silence the heuristic.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace imap::nn {
namespace {

/// Fill a batch with iid normal rows.
Batch random_batch(std::size_t rows, std::size_t dim, Rng& rng) {
  Batch b(rows, dim);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < dim; ++c) b(r, c) = rng.normal();
  return b;
}

std::vector<double> row_vec(const Batch& b, std::size_t r) {
  return std::vector<double>(b.row(r), b.row(r) + b.dim());
}

/// Row r of `b` as a one-row batch — the reference the B-row batched
/// passes are held bit-identical to.
Batch one_row(const Batch& b, std::size_t r) {
  Batch out(1, b.dim());
  out.set_row(0, row_vec(b, r));
  return out;
}

class MlpBatchParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpBatchParity, ForwardMatchesPerSampleBitwise) {
  const std::size_t bs = GetParam();
  Rng rng(11);
  Mlp net({5, 16, 8, 3}, rng);
  const Batch x = random_batch(bs, 5, rng);

  Mlp::Workspace ws;
  const Batch& y = net.forward_batch(x, ws);
  ASSERT_EQ(y.rows(), bs);
  ASSERT_EQ(y.dim(), 3u);
  for (std::size_t r = 0; r < bs; ++r) {
    const auto yr = net.forward(row_vec(x, r));
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(y(r, c), yr[c]) << "row " << r << " col " << c;
  }
}

TEST_P(MlpBatchParity, BackwardMatchesPerSampleBitwise) {
  const std::size_t bs = GetParam();
  Rng rng(13);
  Mlp batched({5, 16, 8, 3}, rng);
  Rng rng2(13);
  Mlp serial({5, 16, 8, 3}, rng2);
  ASSERT_EQ(batched.params(), serial.params());

  const Batch x = random_batch(bs, 5, rng);
  const Batch gout = random_batch(bs, 3, rng);

  Mlp::Workspace ws;
  batched.zero_grad();
  batched.forward_batch(x, ws);
  const Batch& gin_b = batched.backward_batch(ws, gout);

  serial.zero_grad();
  Mlp::Workspace ws1;
  std::vector<std::vector<double>> gin_s;
  for (std::size_t r = 0; r < bs; ++r) {
    serial.forward_batch(one_row(x, r), ws1);
    gin_s.push_back(row_vec(serial.backward_batch(ws1, one_row(gout, r)), 0));
  }

  // Parameter gradients accumulate in the same per-entry order → bitwise.
  ASSERT_EQ(batched.grads().size(), serial.grads().size());
  for (std::size_t i = 0; i < batched.grads().size(); ++i)
    EXPECT_EQ(batched.grads()[i], serial.grads()[i]) << "grad " << i;
  // And so do the input gradients, row by row.
  for (std::size_t r = 0; r < bs; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      EXPECT_EQ(gin_b(r, c), gin_s[r][c]) << "row " << r << " col " << c;
}

TEST_P(MlpBatchParity, InputGradientMatchesPerSampleBitwise) {
  const std::size_t bs = GetParam();
  Rng rng(17);
  Mlp net({4, 12, 2}, rng);
  const Batch x = random_batch(bs, 4, rng);
  const Batch gout = random_batch(bs, 2, rng);

  Mlp::Workspace ws;
  net.forward_batch(x, ws);
  const auto grads_before = net.grads();
  const Batch& gin_b = net.input_gradient_batch(ws, gout);
  EXPECT_EQ(net.grads(), grads_before);  // params untouched

  Mlp::Workspace ws1;
  for (std::size_t r = 0; r < bs; ++r) {
    net.forward_batch(one_row(x, r), ws1);
    const Batch& gin = net.input_gradient_batch(ws1, one_row(gout, r));
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(gin_b(r, c), gin(0, c));
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MlpBatchParity,
                         ::testing::Values(std::size_t{1}, std::size_t{7},
                                           std::size_t{64}));

// Finite-difference check of backward_batch on the summed loss
// L = Σ_n w_n · out_n — the batched analogue of Mlp.GradientsMatchFiniteDifferences.
TEST(MlpBatch, BackwardMatchesFiniteDifferences) {
  Rng rng(29);
  Mlp net({4, 8, 3}, rng);
  const std::size_t bs = 6;
  const Batch x = random_batch(bs, 4, rng);
  const Batch w = random_batch(bs, 3, rng);

  Mlp::Workspace ws;
  net.zero_grad();
  net.forward_batch(x, ws);
  net.backward_batch(ws, w);
  const auto analytic = net.grads();

  const auto loss = [&] {
    double l = 0.0;
    const Batch& out = net.forward_batch(x, ws);
    for (std::size_t r = 0; r < bs; ++r)
      for (std::size_t c = 0; c < 3; ++c) l += w(r, c) * out(r, c);
    return l;
  };
  const double eps = 1e-6;
  // Mutations go through net.params() each time (never a held reference):
  // the accessor bumps the weight version that keys the workspace transpose
  // cache, so every loss() re-forward sees the perturbed weights.
  const std::size_t n_params = net.params().size();
  for (std::size_t i = 0; i < n_params; i += 7) {
    const double save = net.params()[i];
    net.params()[i] = save + eps;
    const double lp = loss();
    net.params()[i] = save - eps;
    const double lm = loss();
    net.params()[i] = save;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], fd, 1e-4 * std::max(1.0, std::fabs(fd)))
        << "param " << i;
  }
}

TEST(GaussianPolicyBatch, BackwardLogpBatchMatchesPerSampleBitwise) {
  Rng rng(37);
  GaussianPolicy batched(6, 3, {16, 16}, rng);
  Rng rng2(37);
  GaussianPolicy serial(6, 3, {16, 16}, rng2);
  ASSERT_EQ(batched.flat_params(), serial.flat_params());

  const std::size_t bs = 8;
  const Batch obs = random_batch(bs, 6, rng);
  const Batch act = random_batch(bs, 3, rng);
  std::vector<double> coeff(bs);
  for (auto& c : coeff) c = rng.normal();
  coeff[3] = 0.0;  // a clipped-out sample must be an exact no-op

  batched.zero_grad();
  batched.mean_batch(obs);
  batched.backward_logp_batch(act, coeff);

  serial.zero_grad();
  for (std::size_t r = 0; r < bs; ++r) {
    serial.mean_batch(one_row(obs, r));
    serial.backward_logp_batch(one_row(act, r), {coeff[r]});
  }

  EXPECT_EQ(batched.flat_grads(), serial.flat_grads());
}

TEST(ValueNetBatch, ValueAndBackwardMatchPerSampleBitwise) {
  Rng rng(41);
  ValueNet batched(5, {16, 16}, rng);
  Rng rng2(41);
  ValueNet serial(5, {16, 16}, rng2);
  ASSERT_EQ(batched.params(), serial.params());

  const std::size_t bs = 12;
  const Batch obs = random_batch(bs, 5, rng);
  std::vector<double> coeff(bs);
  for (auto& c : coeff) c = rng.normal();

  std::vector<double> v;
  batched.zero_grad();
  batched.value_batch(obs, v);
  batched.backward_batch(coeff);

  serial.zero_grad();
  std::vector<double> v1;
  for (std::size_t r = 0; r < bs; ++r) {
    EXPECT_EQ(v[r], serial.value(row_vec(obs, r)));
    serial.value_batch(one_row(obs, r), v1);
    EXPECT_EQ(v[r], v1[0]);
    serial.backward_batch({coeff[r]});
  }
  EXPECT_EQ(batched.grads(), serial.grads());
}

// A workspace's cached weight transposes must never be served to another
// network, not even to one built at the same address after the first died.
TEST(MlpBatch, WorkspaceNeverServesADeadNetworksTransposes) {
  Rng rng_a(47), rng_b(53);
  const Batch x = random_batch(3, 5, rng_a);
  Mlp::Workspace ws;
  std::optional<Mlp> net;
  net.emplace(std::vector<std::size_t>{5, 16, 3}, rng_a);
  net->forward_batch(x, ws);
  net.reset();
  net.emplace(std::vector<std::size_t>{5, 16, 3}, rng_b);
  const Batch& y = net->forward_batch(x, ws);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto yr = net->forward(row_vec(x, r));
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(y(r, c), yr[c]) << "row " << r << " col " << c;
  }
}

// The Workspace arena must stop allocating once warm: after one forward/
// backward at the high-water batch size, further batched steps (same or
// smaller batch) perform zero heap allocations.
TEST(MlpBatch, SteadyStateForwardBackwardAllocatesNothing) {
#ifdef IMAP_TEST_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  Rng rng(43);
  Mlp net({17, 64, 64, 6}, rng);
  const Batch x64 = random_batch(64, 17, rng);
  const Batch x7 = random_batch(7, 17, rng);
  const Batch g64 = random_batch(64, 6, rng);
  const Batch g7 = random_batch(7, 6, rng);

  Mlp::Workspace ws;
  // Warm-up: grows every buffer to the high-water mark.
  net.forward_batch(x64, ws);
  net.backward_batch(ws, g64);
  net.forward_batch(x7, ws);
  net.backward_batch(ws, g7);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int rep = 0; rep < 3; ++rep) {
    net.forward_batch(x64, ws);
    net.backward_batch(ws, g64);
    net.input_gradient_batch(ws, g64);
    net.forward_batch(x7, ws);
    net.backward_batch(ws, g7);
  }
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0)
      << "batched hot path allocated in steady state";
#endif
}

}  // namespace
}  // namespace imap::nn

namespace imap::rl {
namespace {

// Equal digests mean bit-identical parameters.
using imap::testing::digest;

// End-to-end contract: the batched PPO update reproduces, bit for bit, the
// trace of the per-sample reference update (one autodiff tape per sample)
// that it replaced. The expected values were recorded from the per-sample
// path while both paths still existed and were proven identical; since the
// kernel backends are bit-identical (test_kernel_matrix), one recording
// covers every backend.
TEST(PpoBatchedUpdate, BitIdenticalToPerSample) {
  auto env = env::make_env("Hopper");
  PpoOptions opts;
  opts.steps_per_iter = 256;
  opts.epochs = 2;
  opts.minibatch = 64;
  PpoTrainer batched(*env, opts, Rng(7));

  struct Expected {
    double policy_loss, value_loss, approx_kl, mean_return;
  };
  const Expected expected[] = {
      {-0x1.9e8bf30163c58p-9, 0x1.789143ccccfb8p+6, 0x1.1a444afdfce56p-9,
       0x1.f059ac8773d15p+5},
      {-0x1.59d86de5a0d8p-9, 0x1.4138b0d9d3dc3p+7, 0x1.31489037bad38p-11,
       0x1.3a493ea533f49p+6}};
  for (int it = 0; it < 2; ++it) {
    const IterStats b = batched.iterate();
    EXPECT_EQ(b.policy_loss, expected[it].policy_loss) << "iter " << it;
    EXPECT_EQ(b.value_loss, expected[it].value_loss) << "iter " << it;
    EXPECT_EQ(b.approx_kl, expected[it].approx_kl) << "iter " << it;
    EXPECT_EQ(b.mean_return, expected[it].mean_return) << "iter " << it;
  }
  const auto pol = batched.policy().flat_params();
  const auto val = batched.value_e().params();
  ASSERT_EQ(pol.size(), 1542u);
  ASSERT_EQ(val.size(), 1473u);
  EXPECT_EQ(digest(pol), 0x6fe79dc0400495e9ULL);
  EXPECT_EQ(digest(val), 0x59b96cfbd2167b1bULL);
}

// Same contract with gradient sharding on top: the batched kernels compose
// with the sharded accumulation without changing the trace.
TEST(PpoBatchedUpdate, BitIdenticalToPerSampleWithShards) {
  auto env = env::make_env("Hopper");
  PpoOptions opts;
  opts.steps_per_iter = 256;
  opts.epochs = 1;
  opts.minibatch = 64;
  opts.grad_shards = 4;
  PpoTrainer batched(*env, opts, Rng(9));

  const IterStats b = batched.iterate();
  EXPECT_EQ(b.policy_loss, 0x1.69a9052fe4cp-14);
  EXPECT_EQ(b.value_loss, 0x1.24261b7f4cf1cp+7);
  EXPECT_EQ(b.approx_kl, -0x1.bdd0c58aba278p-11);
  const auto pol = batched.policy().flat_params();
  const auto val = batched.value_e().params();
  ASSERT_EQ(pol.size(), 1542u);
  ASSERT_EQ(val.size(), 1473u);
  EXPECT_EQ(digest(pol), 0x69655f23c4a424d7ULL);
  EXPECT_EQ(digest(val), 0x881586f31db24222ULL);
}

// The intrinsic channel (Eq. 14) on top, with a step size and epoch count
// that drive ratios past both clip bounds: pins the intrinsic critic's
// batched refresh and regression as well.
TEST(PpoBatchedUpdate, BitIdenticalToPerSampleWithIntrinsic) {
  auto env = env::make_env("Hopper");
  PpoOptions opts;
  opts.steps_per_iter = 256;
  opts.epochs = 4;
  opts.minibatch = 32;
  opts.lr = 3e-3;
  opts.target_kl = 0.0;
  PpoTrainer batched(*env, opts, Rng(11));
  batched.set_intrinsic_hook([](RolloutBuffer& buf) {
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf.rew_i[i] = 0.1 * buf.obs[i][0];
    return 0.5;
  });

  const IterStats first = batched.iterate();
  EXPECT_EQ(first.policy_loss, -0x1.cd6013a509346p-6);
  EXPECT_EQ(first.value_loss, 0x1.7501154b9e412p+6);
  EXPECT_EQ(first.approx_kl, 0x1.11a3b8baefa85p-5);
  const IterStats second = batched.iterate();
  EXPECT_EQ(second.policy_loss, -0x1.d7acfd38b7eb8p-6);
  EXPECT_EQ(second.value_loss, 0x1.8deb96f304071p+6);
  EXPECT_EQ(second.approx_kl, 0x1.f95069fba29a8p-5);
  EXPECT_EQ(digest(batched.policy().flat_params()),
            0x67c51210b14bb937ULL);
  EXPECT_EQ(digest(batched.value_e().params()), 0x656228ca44b94afdULL);
  EXPECT_EQ(digest(batched.value_i().params()), 0x2f7e0c77da6a544bULL);
}

}  // namespace
}  // namespace imap::rl
