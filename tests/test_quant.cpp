// QuantizedMlp + victim-quant serving path (nn/quant.h): accuracy is
// tolerance-pinned against the fp64 network, the quantized forward is
// bit-identical across batch sizes and kernel backends, staleness tracking
// follows the Mlp weight version, and PolicyHandle answers query() as row 0
// of query_batch in both fp64 and int8 modes, from any number of threads.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/batch.h"
#include "nn/gaussian.h"
#include "nn/kernel_backend.h"
#include "nn/mlp.h"
#include "nn/quant.h"
#include "rl/policy_handle.h"

namespace {

using imap::parallel_for;
using imap::Rng;
using imap::ScopedPool;
using imap::ThreadPool;
using imap::nn::Batch;
using imap::nn::GaussianPolicy;
using imap::nn::Mlp;
using imap::nn::QuantizedMlp;
using imap::nn::ScopedVictimQuant;
using imap::rl::PolicyHandle;

Batch random_batch(std::size_t rows, std::size_t dim, Rng& rng) {
  Batch b(rows, dim);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < dim; ++c) b(r, c) = rng.normal(0.0, 1.0);
  return b;
}

// Policy-scale networks (the victims this path serves): locomotion obs
// widths, two tanh hidden layers, small action heads.
Mlp victim_net(Rng& rng) { return Mlp({11, 64, 64, 3}, rng); }

TEST(QuantizedMlp, ActionErrorWithinPinnedTolerance) {
  Rng rng(101);
  Mlp net = victim_net(rng);
  const QuantizedMlp qnet(net);
  Mlp::Workspace ws, qws;
  const Batch obs = random_batch(64, 11, rng);
  const Batch& exact = net.forward_batch(obs, ws);
  const Batch& quant = qnet.forward_batch(obs, qws);
  ASSERT_EQ(quant.rows(), exact.rows());
  ASSERT_EQ(quant.dim(), exact.dim());
  double max_err = 0.0;
  for (std::size_t r = 0; r < exact.rows(); ++r)
    for (std::size_t c = 0; c < exact.dim(); ++c)
      max_err = std::max(max_err, std::abs(quant(r, c) - exact(r, c)));
  EXPECT_LE(max_err, imap::nn::kQuantActionTolerance);
  EXPECT_GT(max_err, 0.0);  // it IS an approximation — exact 0 means the
                            // quant path silently served fp64
}

TEST(QuantizedMlp, BatchedRowsMatchSingleSampleBitwise) {
  Rng rng(103);
  Mlp net = victim_net(rng);
  const QuantizedMlp qnet(net);
  Mlp::Workspace ws;
  const Batch obs = random_batch(17, 11, rng);
  const Batch& batched = qnet.forward_batch(obs, ws);
  Mlp::Workspace one_ws;
  Batch one(1, obs.dim());
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    one.set_row(0, std::vector<double>(obs.row(r), obs.row(r) + obs.dim()));
    const Batch& single = qnet.forward_batch(one, one_ws);
    for (std::size_t c = 0; c < qnet.out_dim(); ++c)
      ASSERT_EQ(single(0, c), batched(r, c)) << "row " << r << " dim " << c;
  }
}

TEST(QuantizedMlp, BitIdenticalAcrossKernelBackends) {
  Rng rng(107);
  Mlp net = victim_net(rng);
  const QuantizedMlp qnet(net);
  const Batch obs = random_batch(32, 11, rng);

  Mlp::Workspace ref_ws;
  std::vector<double> ref;
  {
    imap::nn::kernel::ScopedBackend forced("scalar");
    ASSERT_TRUE(forced.activated());
    const Batch& out = qnet.forward_batch(obs, ref_ws);
    ref.assign(out.data(), out.data() + out.rows() * out.dim());
  }
  for (const auto* be : imap::nn::kernel::all_backends()) {
    if (!be->supported()) continue;
    imap::nn::kernel::ScopedBackend forced(be->name);
    ASSERT_TRUE(forced.activated());
    Mlp::Workspace ws;
    const Batch& out = qnet.forward_batch(obs, ws);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(ref[i], out.data()[i]) << be->name << ", element " << i;
  }
}

TEST(QuantizedMlp, StaleForTracksWeightVersion) {
  Rng rng(109);
  Mlp net = victim_net(rng);
  const QuantizedMlp qnet(net);
  EXPECT_FALSE(qnet.stale_for(net));
  net.params()[0] += 0.5;  // non-const access bumps the version
  EXPECT_TRUE(qnet.stale_for(net));

  Rng rng2(109);
  Mlp other = victim_net(rng2);
  EXPECT_TRUE(qnet.stale_for(other));  // different object, same weights
}

TEST(VictimQuant, ScopedToggleOverridesEnvironment) {
  {
    ScopedVictimQuant on(true);
    EXPECT_TRUE(imap::nn::victim_quant_enabled());
    {
      ScopedVictimQuant off(false);
      EXPECT_FALSE(imap::nn::victim_quant_enabled());
    }
    EXPECT_TRUE(imap::nn::victim_quant_enabled());
  }
}

TEST(VictimQuant, HandleModeFixedAtConstruction) {
  Rng rng(113);
  auto policy = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{32, 32}, rng);

  PolicyHandle plain(policy);
  EXPECT_FALSE(plain.quantized());

  ScopedVictimQuant on(true);
  PolicyHandle quant(policy);
  EXPECT_TRUE(quant.quantized());
  // The toggle is consulted at construction only — the earlier handle keeps
  // serving fp64 even while the scope is active.
  EXPECT_FALSE(plain.quantized());
}

TEST(VictimQuant, QueryMatchesQueryBatchBitwiseInQuantMode) {
  Rng rng(127);
  auto policy = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{32, 32}, rng);
  ScopedVictimQuant on(true);
  PolicyHandle handle(policy);
  ASSERT_TRUE(handle.quantized());

  const Batch obs = random_batch(9, 11, rng);
  imap::nn::Mlp::Workspace ws;
  const Batch& batched = handle.query_batch(obs, ws);
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    std::vector<double> row(obs.row(r), obs.row(r) + obs.dim());
    const auto single = handle.query(row);
    ASSERT_EQ(single.size(), batched.dim());
    for (std::size_t c = 0; c < single.size(); ++c)
      ASSERT_EQ(single[c], batched(r, c)) << "row " << r << " dim " << c;
  }
}

TEST(VictimQuant, QuantizedQueriesStayWithinToleranceOfFp64) {
  Rng rng(131);
  auto policy = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{32, 32}, rng);
  PolicyHandle exact(policy);
  ScopedVictimQuant on(true);
  PolicyHandle quant(policy);

  double max_err = 0.0;
  for (int i = 0; i < 32; ++i) {
    std::vector<double> obs(11);
    for (auto& v : obs) v = rng.normal(0.0, 1.0);
    const auto a = exact.query(obs);
    const auto b = quant.query(obs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c)
      max_err = std::max(max_err, std::abs(a[c] - b[c]));
  }
  EXPECT_LE(max_err, imap::nn::kQuantActionTolerance);
}

TEST(VictimQuant, SnapshotRespectsToggle) {
  Rng rng(137);
  GaussianPolicy policy(11, 3, {32, 32}, rng);
  ScopedVictimQuant on(true);
  PolicyHandle handle = PolicyHandle::snapshot(policy);
  EXPECT_TRUE(handle.quantized());
  EXPECT_TRUE(handle.batched());
}

/// query(row r) of `handle` must equal row r of query_batch, bit for bit.
void expect_query_is_batch_row(const PolicyHandle& handle, const Batch& obs) {
  Mlp::Workspace ws;
  const Batch& batched = handle.query_batch(obs, ws);
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    const auto single = handle.query(
        std::vector<double>(obs.row(r), obs.row(r) + obs.dim()));
    ASSERT_EQ(single.size(), batched.dim());
    for (std::size_t c = 0; c < single.size(); ++c)
      ASSERT_EQ(single[c], batched(r, c)) << "row " << r << " dim " << c;
  }
}

TEST(PolicyHandle, QueryIsRowZeroOfQueryBatchInFp64) {
  Rng rng(139);
  auto policy = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{64, 64}, rng);
  const PolicyHandle handle(policy);
  ASSERT_FALSE(handle.quantized());
  const Batch obs = random_batch(13, 11, rng);
  expect_query_is_batch_row(handle, obs);
  // ...and so equal to the per-row Mlp::forward an ActionFn would call.
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    const std::vector<double> row(obs.row(r), obs.row(r) + obs.dim());
    EXPECT_EQ(handle.query(row), policy->mean_action(row)) << "row " << r;
  }
}

TEST(PolicyHandle, QueryIsRowZeroOfQueryBatchInInt8) {
  Rng rng(149);
  auto policy = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{64, 64}, rng);
  const PolicyHandle handle = PolicyHandle::serving(policy, /*quantized=*/true);
  ASSERT_TRUE(handle.quantized());
  expect_query_is_batch_row(handle, random_batch(13, 11, rng));
}

TEST(PolicyHandle, SharedHandlesAnswerFourThreadsBitwise) {
  // Four pool threads query the same fp64 and int8 handles, interleaving
  // two different networks so each thread's one-row workspace keeps
  // switching owners; every answer must equal the serial query_batch row.
  Rng rng(151);
  auto net_a = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{64, 64}, rng);
  auto net_b = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{32, 32}, rng);
  const std::vector<PolicyHandle> handles{
      PolicyHandle(net_a), PolicyHandle(net_b),
      PolicyHandle::serving(net_a, /*quantized=*/true)};
  const Batch obs = random_batch(32, 11, rng);
  std::vector<Batch> want;
  for (const auto& h : handles) {
    Mlp::Workspace ws;
    want.push_back(h.query_batch(obs, ws));
  }

  // 16 tasks on a 4-thread pool: every pool thread serves several tasks.
  constexpr std::size_t kTasks = 16;
  std::vector<int> mismatches(kTasks, 0);
  ThreadPool pool(4);
  ScopedPool scope(pool);
  parallel_for(
      kTasks,
      [&](std::size_t t) {
        for (std::size_t r = 0; r < obs.rows(); ++r)
          for (std::size_t h = 0; h < handles.size(); ++h) {
            const std::size_t row = (r + t) % obs.rows();
            const auto got = handles[h].query(std::vector<double>(
                obs.row(row), obs.row(row) + obs.dim()));
            for (std::size_t c = 0; c < got.size(); ++c)
              if (got[c] != want[h](row, c)) ++mismatches[t];
          }
      },
      /*grain=*/1);
  for (std::size_t t = 0; t < kTasks; ++t)
    EXPECT_EQ(mismatches[t], 0) << "task " << t;
}

}  // namespace
