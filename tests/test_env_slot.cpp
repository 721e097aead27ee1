// The determinism contract of the rollout slots: a trainer's K slots each
// step their own env clone on their own stream, and the merged rollout is a
// pure function of K — for any thread count, for randomized scenarios and
// the opponent game, through snapshot bytes and across the victim's query
// shape (opaque ActionFn vs network handle).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/threat_model.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "digest.h"
#include "env/multiagent.h"
#include "env/registry.h"
#include "nn/gaussian.h"
#include "rl/env_slot.h"
#include "rl/ppo.h"
#include "scenario/scenario_env.h"
#include "scenario/spec.h"

namespace imap {
namespace {

void expect_buffers_identical(const rl::RolloutBuffer& a,
                              const rl::RolloutBuffer& b) {
  ASSERT_EQ(a.size(), b.size());
  // obs/act may hold spare rows past size(); only the valid prefix counts.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.obs[i], b.obs[i]) << "obs row " << i;
    EXPECT_EQ(a.act[i], b.act[i]) << "act row " << i;
  }
  EXPECT_EQ(a.logp, b.logp);
  EXPECT_EQ(a.rew_e, b.rew_e);
  EXPECT_EQ(a.val_e, b.val_e);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.boundary, b.boundary);
  EXPECT_EQ(a.last_val_e, b.last_val_e);
  EXPECT_EQ(a.last_val_i, b.last_val_i);
  EXPECT_EQ(a.episode_returns, b.episode_returns);
  EXPECT_EQ(a.episode_surrogate, b.episode_surrogate);
  EXPECT_EQ(a.episode_lengths, b.episode_lengths);
}

/// Slot g of a K-slot trainer: stream g of the trainer seed, steps/K steps
/// with the remainder going to the first slots.
Rng trainer_slot_stream(Rng trainer_rng, std::size_t g) {
  return trainer_rng.split(0x6b1dc0deULL + static_cast<std::uint64_t>(g));
}
int trainer_slot_budget(int steps, int k, std::size_t g) {
  return steps / k + (static_cast<int>(g) < steps % k ? 1 : 0);
}

/// A K-slot trainer collecting on `net_proto` (network-handle victim) must
/// fill exactly the merge, in slot order, of K standalone slots stepping
/// `fn_proto` (the same victim as an opaque ActionFn, per-row forwards) on
/// the trainer's slot streams — over two collects, so the carried
/// mid-episode state is covered too.
void expect_trainer_matches_standalone_slots(const rl::Env& net_proto,
                                             const rl::Env& fn_proto, int k,
                                             int steps) {
  rl::PpoOptions opts;
  opts.hidden = {16, 16};
  opts.steps_per_iter = steps;
  opts.num_workers = k;
  rl::PpoTrainer trainer(net_proto, opts, Rng(23));

  std::vector<rl::EnvSlot> ref;
  for (std::size_t g = 0; g < static_cast<std::size_t>(k); ++g)
    ref.emplace_back(fn_proto, trainer_slot_stream(trainer.rng(), g));

  rl::RolloutBuffer got;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    trainer.collect(got);
    rl::RolloutBuffer want;
    for (std::size_t g = 0; g < ref.size(); ++g) {
      ref[g].collect(trainer.policy(), trainer.value_e(), trainer.value_i(),
                     trainer_slot_budget(steps, k, g));
      want.append(ref[g].buf);
    }
    expect_buffers_identical(got, want);
  }
}

TEST(VecEnv, BatchedVictimPathMatchesSerialOnStatePerturbation) {
  const auto inner = env::make_env("Hopper");
  Rng victim_rng(41);
  auto victim = std::make_shared<const nn::GaussianPolicy>(
      inner->obs_dim(), inner->act_dim(), std::vector<std::size_t>{16, 16},
      victim_rng);
  attack::StatePerturbationEnv net_proto(*inner, rl::PolicyHandle(victim),
                                         0.075, attack::RewardMode::Adversary);
  attack::StatePerturbationEnv fn_proto(
      *inner,
      rl::ActionFn([victim](const std::vector<double>& o) {
        return victim->mean_action(o);
      }),
      0.075, attack::RewardMode::Adversary);
  expect_trainer_matches_standalone_slots(net_proto, fn_proto, 8, 643);
}

TEST(VecEnv, BatchedVictimPathMatchesSerialOnOpponentGame) {
  const auto game = env::make_multiagent_env("YouShallNotPass");
  Rng victim_rng(59);
  auto victim = std::make_shared<const nn::GaussianPolicy>(
      game->victim_obs_dim(), game->victim_act_dim(),
      std::vector<std::size_t>{16, 16}, victim_rng);
  attack::OpponentEnv net_proto(*game, rl::PolicyHandle(victim));
  attack::OpponentEnv fn_proto(
      *game, rl::ActionFn([victim](const std::vector<double>& o) {
        return victim->mean_action(o);
      }));
  expect_trainer_matches_standalone_slots(net_proto, fn_proto, 8, 643);
}

TEST(VecEnv, OpaqueVictimCollectsSameTraceAsNetworkHandle) {
  // One slot per stream over each victim shape: per-sample PolicyHandle
  // queries are bit-identical either way, so the traces are too.
  const auto inner = env::make_env("Hopper");
  Rng victim_rng(43);
  auto victim = std::make_shared<nn::GaussianPolicy>(
      inner->obs_dim(), inner->act_dim(), std::vector<std::size_t>{16, 16},
      victim_rng);
  attack::StatePerturbationEnv net_proto(*inner, rl::PolicyHandle(victim),
                                         0.075, attack::RewardMode::Adversary);
  attack::StatePerturbationEnv fn_proto(
      *inner,
      rl::ActionFn([victim](const std::vector<double>& o) {
        return victim->mean_action(o);
      }),
      0.075, attack::RewardMode::Adversary);

  Rng net_rng(47);
  nn::GaussianPolicy policy(net_proto.obs_dim(), net_proto.act_dim(), {16, 16},
                            net_rng);
  nn::ValueNet value_e(net_proto.obs_dim(), {16, 16}, net_rng);
  nn::ValueNet value_i(net_proto.obs_dim(), {16, 16}, net_rng);

  Rng base(53);
  for (std::uint64_t i = 0; i < 6; ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    rl::EnvSlot net_slot(net_proto, base.split(0x100 + i));
    rl::EnvSlot fn_slot(fn_proto, base.split(0x100 + i));
    net_slot.collect(policy, value_e, value_i, 64);
    fn_slot.collect(policy, value_e, value_i, 64);
    expect_buffers_identical(net_slot.buf, fn_slot.buf);
  }
}

TEST(EnvSlot, ZeroBudgetCollectLeavesTheSlotUntouched) {
  const auto env = env::make_env("Hopper");
  Rng net_rng(29);
  nn::GaussianPolicy policy(env->obs_dim(), env->act_dim(), {16, 16}, net_rng);
  nn::ValueNet value_e(env->obs_dim(), {16, 16}, net_rng);
  nn::ValueNet value_i(env->obs_dim(), {16, 16}, net_rng);

  // A fresh slot with no budget draws nothing and starts no episode.
  rl::EnvSlot idle(*env, Rng(31));
  idle.collect(policy, value_e, value_i, 0);
  EXPECT_EQ(idle.buf.size(), 0u);
  EXPECT_TRUE(idle.need_reset);
  Rng probe = idle.rng, fresh(31);
  EXPECT_EQ(probe.next_u64(), fresh.next_u64());

  // Mid-episode, a zero-budget collect empties the buffer and nothing else:
  // the next collect continues exactly as if it had never happened.
  rl::EnvSlot a(*env, Rng(37)), b(*env, Rng(37));
  a.collect(policy, value_e, value_i, 70);
  b.collect(policy, value_e, value_i, 70);
  a.collect(policy, value_e, value_i, 0);
  EXPECT_EQ(a.buf.size(), 0u);
  EXPECT_EQ(a.ep_len, b.ep_len);
  a.collect(policy, value_e, value_i, 33);
  b.collect(policy, value_e, value_i, 33);
  expect_buffers_identical(a.buf, b.buf);

  // A trainer with fewer steps than slots leaves the last slots idle.
  rl::PpoOptions opts;
  opts.hidden = {16, 16};
  opts.steps_per_iter = 3;
  opts.num_workers = 4;
  rl::PpoTrainer trainer(*env, opts, Rng(41));
  rl::RolloutBuffer buf;
  trainer.collect(buf);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.last_val_e.size(), 3u);  // one closed segment per busy slot
}

std::vector<rl::IterStats> run_trainer(const rl::Env& proto,
                                       const rl::PpoOptions& opts, int iters,
                                       std::vector<double>& final_params) {
  rl::PpoTrainer trainer(proto, opts, Rng(7));
  std::vector<rl::IterStats> out;
  for (int i = 0; i < iters; ++i) out.push_back(trainer.iterate());
  final_params = trainer.policy().flat_params();
  return out;
}

std::vector<rl::IterStats> run_trainer(const rl::PpoOptions& opts, int iters,
                                       std::vector<double>& final_params) {
  return run_trainer(*env::make_env("Hopper"), opts, iters, final_params);
}

void expect_identical(const std::vector<rl::IterStats>& a,
                      const std::vector<rl::IterStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean_return, b[i].mean_return) << "iter " << i;
    EXPECT_EQ(a[i].mean_surrogate, b[i].mean_surrogate) << "iter " << i;
    EXPECT_EQ(a[i].episodes, b[i].episodes) << "iter " << i;
    EXPECT_EQ(a[i].policy_loss, b[i].policy_loss) << "iter " << i;
    EXPECT_EQ(a[i].value_loss, b[i].value_loss) << "iter " << i;
    EXPECT_EQ(a[i].approx_kl, b[i].approx_kl) << "iter " << i;
    EXPECT_EQ(a[i].entropy, b[i].entropy) << "iter " << i;
  }
}

TEST(VecEnv, OneSlotTrainerStreamPositionIsPinned) {
  // K = 1 collects on the trainer's own stream. Three collects (episode
  // boundaries mid-rollout and a carried episode) must leave the stream,
  // and fill the rollout, exactly as the recorded reference did.
  rl::PpoOptions opts;
  opts.steps_per_iter = 300;
  rl::PpoTrainer trainer(*env::make_env("Hopper"), opts, Rng(7));
  rl::RolloutBuffer buf;
  std::vector<double> trace;
  for (int i = 0; i < 3; ++i) {
    trainer.collect(buf);
    for (std::size_t t = 0; t < buf.size(); ++t) {
      trace.insert(trace.end(), buf.obs[t].begin(), buf.obs[t].end());
      trace.insert(trace.end(), buf.act[t].begin(), buf.act[t].end());
    }
    trace.insert(trace.end(), buf.logp.begin(), buf.logp.end());
    trace.insert(trace.end(), buf.val_e.begin(), buf.val_e.end());
    trace.insert(trace.end(), buf.last_val_i.begin(), buf.last_val_i.end());
    trace.insert(trace.end(), buf.episode_returns.begin(),
                 buf.episode_returns.end());
  }
  Rng probe = trainer.rng();
  EXPECT_EQ(probe.next_u64(), 0xfb68039ab1f9422cULL);
  EXPECT_EQ(imap::testing::digest(trace), 0x1b8e9ef02e035974ULL);
}

TEST(VecEnv, TrainerTraceIdenticalFor1And4Threads) {
  rl::PpoOptions opts;
  opts.steps_per_iter = 512;
  opts.num_workers = 8;

  std::vector<double> serial_params, pooled_params;
  std::vector<rl::IterStats> serial_stats, pooled_stats;
  {
    ScopedSerial serial;
    serial_stats = run_trainer(opts, 3, serial_params);
  }
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    pooled_stats = run_trainer(opts, 3, pooled_params);
  }
  expect_identical(serial_stats, pooled_stats);
  EXPECT_EQ(serial_params, pooled_params);
}

/// Digest of a training trace: every IterStats field expect_identical
/// compares, in iteration order, then the final policy parameters.
std::uint64_t trace_digest(const std::vector<rl::IterStats>& stats,
                           const std::vector<double>& params) {
  std::vector<double> v;
  for (const auto& s : stats) {
    v.insert(v.end(), {s.mean_return, s.mean_surrogate,
                       static_cast<double>(s.episodes), s.policy_loss,
                       s.value_loss, s.approx_kl, s.entropy});
  }
  v.insert(v.end(), params.begin(), params.end());
  return imap::testing::digest(v);
}

TEST(VecEnv, TrainerTraceInvariantAcrossWorkerSlotFactorizations) {
  // The trace depends only on the total slot count. Each digest was
  // recorded when workers × slots-per-worker factorizations still existed
  // (4 slots as 4×1, 2×2 and 1×4; 8 as 4×2 and 2×4, all bit-identical); K
  // slots must land on it. 130 steps exercise the uneven-budget remainder
  // (33+33+32+32).
  rl::PpoOptions opts;
  opts.steps_per_iter = 130;
  opts.num_workers = 4;
  std::vector<double> params;
  const auto stats = run_trainer(opts, 2, params);
  EXPECT_EQ(trace_digest(stats, params), 0x4ee33451f4dac14eULL);

  // 8 slots on the two MDPs whose steps draw the most from the slot Rng: a
  // procedurally randomized scenario (seeded DR, stochastic channels,
  // budget) and the two-player opponent game.
  const auto spec = scenario::parse(
      "hopper+obs_perturb:0.075+obs_delay:2+obs_dropout:0.2+obs_noise:0.05"
      "+budget:0.5+dr[gain:0.9..1.1,mass:0.8..1.2]@7");
  const auto inner = env::make_env(spec.env);
  Rng scenario_rng(11);
  nn::GaussianPolicy scenario_victim(inner->obs_dim(), inner->act_dim(),
                                     {16, 16}, scenario_rng);
  const auto scenario_env = scenario::make_scenario_env(
      spec, rl::PolicyHandle::snapshot(scenario_victim),
      attack::RewardMode::Adversary);

  const auto game = env::make_multiagent_env("YouShallNotPass");
  Rng game_rng(11);
  nn::GaussianPolicy game_victim(game->victim_obs_dim(),
                                 game->victim_act_dim(), {16, 16}, game_rng);
  const attack::OpponentEnv opponent_env(
      *game, rl::PolicyHandle::snapshot(game_victim));

  opts.hidden = {16, 16};
  opts.steps_per_iter = 256;
  opts.minibatch = 64;
  opts.epochs = 2;
  opts.num_workers = 8;
  const auto s_scenario = run_trainer(*scenario_env, opts, 2, params);
  EXPECT_EQ(trace_digest(s_scenario, params), 0x979feea6364e7a55ULL)
      << "randomized scenario";
  const auto s_opponent = run_trainer(opponent_env, opts, 2, params);
  EXPECT_EQ(trace_digest(s_opponent, params), 0x79578a5962d6df06ULL)
      << "opponent game";
}

TEST(EnvSlot, TwoSlotSnapshotBytesArePinned) {
  // The ppo/meta and ppo/workers byte layout at K = 2, mid-episode,
  // recorded before the per-worker slot count became the constant 1.
  rl::PpoOptions opts;
  opts.hidden = {8, 8};
  opts.steps_per_iter = 128;
  opts.epochs = 2;
  opts.minibatch = 64;
  opts.num_workers = 2;
  rl::PpoTrainer trainer(*env::make_env("Hopper"), opts, Rng(17));
  trainer.iterate();
  trainer.iterate();
  ArchiveWriter a;
  trainer.save_state(a);
  const auto bytes = a.bytes();
  EXPECT_EQ(imap::testing::fnv1a(bytes.data(), bytes.size()),
            0x0c234bcaa4134627ULL);
}

}  // namespace
}  // namespace imap
