#include <gtest/gtest.h>

#include <cmath>

#include "core/imap_trainer.h"
#include "digest.h"
#include "env/hopper.h"
#include "env/you_shall_not_pass.h"

namespace imap::core {
namespace {

rl::ActionFn feedback_victim() {
  return [](const std::vector<double>& obs) {
    const auto p = env::hopper_params();
    std::vector<double> u(p.n_joints);
    for (std::size_t j = 0; j < p.n_joints; ++j)
      u[j] = 0.3 * p.c[j] - 3.0 * (obs[0] + 0.4 * obs[1]) * p.d[j];
    return u;
  };
}

ImapOptions small_opts(RegularizerType type, bool br = false) {
  ImapOptions o;
  o.reg.type = type;
  o.bias_reduction = br;
  o.ppo.steps_per_iter = 512;
  o.surrogate_scale = 500.0;
  return o;
}

TEST(ImapTrainer, SingleAgentIteratesWithEveryRegularizer) {
  const auto env = env::make_hopper();
  for (const auto type : {RegularizerType::SC, RegularizerType::PC,
                          RegularizerType::R, RegularizerType::D}) {
    ImapTrainer t(*env, feedback_victim(), 0.075, small_opts(type), Rng(3));
    const auto s = t.iterate();
    EXPECT_EQ(s.total_steps, 512);
    EXPECT_DOUBLE_EQ(s.tau, 1.0) << "fixed τ₀ without BR";
    if (type != RegularizerType::R)
      EXPECT_GT(s.mean_intrinsic, 0.0) << to_string(type);
    else
      EXPECT_LT(s.mean_intrinsic, 0.0) << "R bonus is a negative distance";
  }
}

TEST(ImapTrainer, RiskTargetDefaultsToInitialState) {
  const auto env = env::make_hopper();
  ImapTrainer t(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::R), Rng(3));
  // s₀ ≈ 0 for the locomotors, so states near reset earn near-zero penalty.
  auto s = t.iterate();
  EXPECT_GT(s.mean_intrinsic, -2.0);  // bounded, not wildly off
}

TEST(ImapTrainer, BiasReductionSchedulesTau) {
  const auto env = env::make_hopper();
  ImapTrainer t(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::PC, /*br=*/true), Rng(3));
  const auto s0 = t.iterate();
  EXPECT_DOUBLE_EQ(s0.tau, 1.0);  // τ₀ = 1 (λ₀ = 0)
  for (int i = 0; i < 5; ++i) t.iterate();
  EXPECT_GT(t.tau(), 0.0);
  EXPECT_LE(t.tau(), 1.0);
  EXPECT_GE(t.bias_reduction().lambda(), 0.0);
}

TEST(ImapTrainer, MultiAgentUsesGameMarginals) {
  const auto game = env::make_you_shall_not_pass();
  rl::ActionFn victim = [](const std::vector<double>&) {
    return std::vector<double>{-1.0, 0.0};
  };
  ImapOptions o = small_opts(RegularizerType::PC);
  o.reg.xi = 0.5;
  ImapTrainer t(*game, victim, o, Rng(5));
  const auto s = t.iterate();
  EXPECT_GT(s.mean_intrinsic, 0.0);
  EXPECT_EQ(t.regularizer().type(), RegularizerType::PC);
}

// Multi-agent IMAP-R: the game's default marginals feed the R-target
// estimation. The snapshot digest (FNV-1a over the archive bytes after two
// iterations) was recorded from the multi-agent constructor's own copy of
// that setup, before it was folded onto the shared attack-env path.
TEST(ImapTrainer, MultiAgentRiskTargetSnapshotMatchesPinnedDigest) {
  const auto game = env::make_you_shall_not_pass();
  rl::ActionFn victim = [](const std::vector<double>&) {
    return std::vector<double>{-1.0, 0.0};
  };
  ImapTrainer t(*game, victim, small_opts(RegularizerType::R), Rng(5));
  t.train(1024);
  ArchiveWriter a;
  t.save_state(a);
  const auto bytes = a.bytes();
  EXPECT_EQ(imap::testing::fnv1a(bytes.data(), bytes.size()),
            0x2a069ff55a5cd420ULL);
}

TEST(ImapTrainer, AdversaryMatchesThreatModelShape) {
  const auto env = env::make_hopper();
  ImapTrainer t(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::SC), Rng(3));
  t.iterate();
  const auto adv = t.adversary();
  Rng rng(3);
  const auto obs = env->reset(rng);
  EXPECT_EQ(adv(obs).size(), env->obs_dim());
}

TEST(ImapTrainer, DeterministicGivenSeed) {
  const auto env = env::make_hopper();
  ImapTrainer a(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::PC), Rng(11));
  ImapTrainer b(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::PC), Rng(11));
  const auto sa = a.iterate();
  const auto sb = b.iterate();
  EXPECT_DOUBLE_EQ(sa.mean_intrinsic, sb.mean_intrinsic);
  EXPECT_DOUBLE_EQ(sa.mean_return, sb.mean_return);
}

TEST(EstimateInitialState, AveragesResets) {
  const auto env = env::make_hopper();
  RegularizerOptions opts;
  Rng rng(3);
  const auto s0 = estimate_initial_state(*env, opts, 16, rng);
  ASSERT_EQ(s0.size(), env->obs_dim());
  for (const double x : s0) EXPECT_LT(std::abs(x), 0.1);
}

}  // namespace
}  // namespace imap::core
