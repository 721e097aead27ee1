#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "attack/threat_model.h"
#include "common/check.h"
#include "digest.h"
#include "env/hopper.h"
#include "env/registry.h"
#include "nn/gaussian.h"
#include "rl/policy_handle.h"
#include "scenario/channels.h"
#include "scenario/scenario_env.h"
#include "scenario/spec.h"

namespace imap::scenario {
namespace {

// Frozen posture-feedback "victim" (same controller the threat-model tests
// use): survives long enough to exercise every channel.
rl::ActionFn feedback_victim() {
  return [](const std::vector<double>& obs) {
    const auto p = env::hopper_params();
    std::vector<double> u(p.n_joints);
    for (std::size_t j = 0; j < p.n_joints; ++j)
      u[j] = 0.3 * p.c[j] - 3.0 * (obs[0] + 0.4 * obs[1]) * p.d[j];
    return u;
  };
}

TEST(ScenarioSpec, TrivialCanonicalizesToRegistryName) {
  EXPECT_EQ(canonical("hopper"), "Hopper");
  EXPECT_EQ(canonical("  SPARSEhalfcheetah "), "SparseHalfCheetah");
  EXPECT_TRUE(parse("walker2d").trivial());
  // Multi-agent names are valid trivial scenarios.
  EXPECT_EQ(canonical("youshallnotpass"), "YouShallNotPass");
}

TEST(ScenarioSpec, CanonicalSortsChannelsAndDrAndRoundTrips) {
  const std::string messy =
      "hopper+dr[mass:0.8..1.2,gain:0.9..1.1]+obs_delay:2+obs_perturb:0.1@7";
  const std::string canon = canonical(messy);
  EXPECT_EQ(canon,
            "Hopper+obs_perturb:0.1+obs_delay:2+dr[gain:0.9..1.1,"
            "mass:0.8..1.2]@7");
  // parse -> canonical -> parse is the identity (idempotent canonical form).
  EXPECT_EQ(canonical(canon), canon);
  const auto spec = parse(canon);
  EXPECT_EQ(spec.env, "Hopper");
  ASSERT_EQ(spec.channels.size(), 2u);
  EXPECT_EQ(spec.channels[0].kind, ChannelKind::ObsPerturb);
  EXPECT_EQ(spec.channels[1].kind, ChannelKind::ObsDelay);
  ASSERT_EQ(spec.dr.size(), 2u);
  EXPECT_EQ(spec.dr[0].key, "gain");
  EXPECT_EQ(spec.dr[1].key, "mass");
  EXPECT_TRUE(spec.has_seed);
  EXPECT_EQ(spec.seed, 7u);
}

TEST(ScenarioSpec, ChannelDefaultsResolveFromRegistry) {
  const auto spec = parse("hopper+obs_perturb+obs_delay");
  EXPECT_DOUBLE_EQ(spec.channel(ChannelKind::ObsPerturb)->param, 0.075);
  EXPECT_DOUBLE_EQ(spec.channel(ChannelKind::ObsDelay)->param, 1.0);
  EXPECT_EQ(spec.canonical(), "Hopper+obs_perturb:0.075+obs_delay:1");
  EXPECT_DOUBLE_EQ(parse("walker2d+obs_noise").channel(
                       ChannelKind::ObsNoise)->param, 0.05);
}

TEST(ScenarioSpec, EpsilonAndBudgetAccessors) {
  EXPECT_DOUBLE_EQ(parse("hopper").epsilon(), 0.075);  // registry fallback
  EXPECT_DOUBLE_EQ(parse("hopper+obs_perturb:0.2").epsilon(), 0.2);
  EXPECT_DOUBLE_EQ(parse("hopper").budget(), 0.0);
  EXPECT_DOUBLE_EQ(
      parse("hopper+obs_perturb:0.1+budget:0.5").budget(), 0.5);
}

TEST(ScenarioSpec, WithDefaultThreatMakesImplicitChannelExplicit) {
  const auto spec = with_default_threat(parse("hopper+obs_delay:2"));
  EXPECT_TRUE(spec.attackable());
  EXPECT_EQ(spec.canonical(), "Hopper+obs_perturb:0.075+obs_delay:2");
  // Already-attackable specs pass through unchanged.
  const auto same = with_default_threat(parse("hopper+act_perturb:0.1"));
  EXPECT_EQ(same.canonical(), "Hopper+act_perturb:0.1");
}

TEST(ScenarioSpec, MalformedSpecsThrowPointedErrors) {
  EXPECT_THROW(parse(""), CheckError);
  EXPECT_THROW(parse("nosuchenv"), CheckError);
  EXPECT_THROW(parse("hopper+nosuchchannel:1"), CheckError);
  EXPECT_THROW(parse("hopper+obs_perturb+obs_perturb:0.1"), CheckError);
  EXPECT_THROW(parse("hopper+obs_dropout"), CheckError);   // no default
  EXPECT_THROW(parse("hopper+budget"), CheckError);        // no default
  EXPECT_THROW(parse("hopper+obs_dropout:1.5"), CheckError);
  EXPECT_THROW(parse("hopper+obs_delay:0"), CheckError);
  EXPECT_THROW(parse("hopper+obs_delay:2.5"), CheckError);
  EXPECT_THROW(parse("hopper+dr[mass:1.2..0.8]"), CheckError);
  EXPECT_THROW(parse("hopper+dr[mass:-1..1]"), CheckError);
  EXPECT_THROW(parse("hopper+dr[spring:0.5..1]"), CheckError);
  EXPECT_THROW(parse("hopper+dr[mass:0.8..1.2,mass:0.9..1.1]"), CheckError);
  // dr[budget] scales perturbation budgets; meaningless without one.
  EXPECT_THROW(parse("hopper+dr[budget:0.5..1]"), CheckError);
  // Channels on a competitive game are not a thing.
  EXPECT_THROW(parse("youshallnotpass+obs_delay:1"), CheckError);
  // Seed ranges belong to expand() patterns, not concrete specs.
  EXPECT_THROW(parse("hopper@1..5"), CheckError);
  EXPECT_THROW(parse("hopper@notanumber"), CheckError);
}

TEST(ScenarioSpec, ExpandAlternationAndSeedRanges) {
  const auto cells = expand("hopper,walker2d+obs_delay:2@1..3");
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].canonical(), "Hopper+obs_delay:2@1");
  EXPECT_EQ(cells[2].canonical(), "Hopper+obs_delay:2@3");
  EXPECT_EQ(cells[5].canonical(), "Walker2d+obs_delay:2@3");

  const auto all = expand("*");
  EXPECT_EQ(all.size(), env::single_agent_specs().size());
  EXPECT_EQ(all[0].canonical(), "Hopper");

  const auto one = expand("hopper+obs_perturb:0.1@5");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].canonical(), "Hopper+obs_perturb:0.1@5");
}

TEST(ChannelPrimitives, ObsPerturbIsTheLegacyLoop) {
  Rng rng(11);
  std::vector<double> obs(8), ctrl(8);
  for (auto& x : obs) x = rng.uniform(-2.0, 2.0);
  for (auto& x : ctrl) x = rng.uniform(-1.0, 1.0);
  auto a = obs, b = obs;
  apply_obs_perturb(a, ctrl.data(), 0.075);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] += 0.075 * ctrl[i];
  EXPECT_EQ(a, b);  // bitwise: identical arithmetic, identical order
}

TEST(ChannelPrimitives, ObsNoiseIsTheLegacyLoop) {
  std::vector<double> obs(8);
  Rng fill(13);
  for (auto& x : obs) x = fill.uniform(-2.0, 2.0);
  auto a = obs, b = obs;
  Rng r1(99), r2(99);
  apply_obs_noise(a, 0.1, r1);
  for (auto& x : b) x += 0.1 * r2.uniform(-1.0, 1.0);
  EXPECT_EQ(a, b);
}

// Two episodes (at most 80 steps each) under a seeded, partly out-of-box
// adversary action stream: every observation, reward, surrogate and end
// flag, in order.
std::vector<double> trajectory(rl::Env& env) {
  std::vector<double> trace;
  Rng rng(21), act_rng(5);
  for (int ep = 0; ep < 2; ++ep) {
    const auto obs = env.reset(rng);
    trace.insert(trace.end(), obs.begin(), obs.end());
    for (int t = 0; t < 80; ++t) {
      std::vector<double> a(env.act_dim());
      for (auto& x : a) x = act_rng.uniform(-1.5, 1.5);
      const auto sr = env.step(a);
      trace.insert(trace.end(), sr.obs.begin(), sr.obs.end());
      trace.push_back(sr.reward);
      trace.push_back(sr.surrogate);
      trace.push_back(sr.done ? 1.0 : 0.0);
      trace.push_back(sr.truncated ? 1.0 : 0.0);
      if (sr.done || sr.truncated) break;
    }
  }
  return trace;
}

// The obs_perturb-only scenario reproduces, bit for bit, the trajectory of
// the separate StatePerturbationEnv wrapper it replaced — same Rng draws,
// same arithmetic, same rewards — so classic cells keep their history. The
// digest was recorded from that wrapper; StatePerturbationEnv is now a
// ScenarioEnv and must land on it too.
TEST(ScenarioEnv, ObsPerturbOnlyMatchesPinnedLegacyTrajectory) {
  constexpr std::uint64_t kLegacyDigest = 0x4019dcc29747a6efULL;
  ScenarioEnv scen(parse("hopper+obs_perturb:0.075"), feedback_victim(),
                   attack::RewardMode::Adversary);
  const auto inner = env::make_hopper();
  attack::StatePerturbationEnv wrapper(*inner, feedback_victim(), 0.075,
                                       attack::RewardMode::Adversary);
  EXPECT_EQ(scen.act_dim(), wrapper.act_dim());
  const auto t1 = trajectory(scen);
  const auto t2 = trajectory(wrapper);
  EXPECT_EQ(t1.size(), 2422u);
  EXPECT_EQ(imap::testing::digest(t1), kLegacyDigest);
  EXPECT_EQ(imap::testing::digest(t2), kLegacyDigest);
}

// The full channel stack gives the same trace whether the victim is an
// opaque ActionFn over a network's mean action (per-row Mlp::forward) or a
// handle on that network (one-row batched query): bitwise, every step.
TEST(ScenarioEnv, OpaqueVictimMatchesNetworkHandleOnAllChannels) {
  const auto spec = parse(
      "hopper+obs_perturb:0.1+act_perturb:0.05+obs_delay:2+obs_dropout:0.3"
      "+obs_noise:0.05+budget:0.5+dr[gain:0.9..1.1,mass:0.8..1.2]@3");
  const auto inner = env::make_hopper();
  Rng victim_rng(33);
  auto victim = std::make_shared<const nn::GaussianPolicy>(
      inner->obs_dim(), inner->act_dim(), std::vector<std::size_t>{16, 16},
      victim_rng);
  ScenarioEnv net(spec, rl::PolicyHandle(victim),
                  attack::RewardMode::Adversary);
  ScenarioEnv opaque(spec,
                     rl::ActionFn([victim](const std::vector<double>& o) {
                       return victim->mean_action(o);
                     }),
                     attack::RewardMode::Adversary);
  EXPECT_EQ(net.act_dim(), net.obs_dim() + inner->act_dim());
  const auto t_net = trajectory(net);
  EXPECT_GT(t_net.size(), 100u);
  EXPECT_EQ(t_net, trajectory(opaque));
}

TEST(ScenarioEnv, SeededDrFamiliesAreDeterministicAndDistinct) {
  const auto run = [](const std::string& text, std::uint64_t slot_seed) {
    ScenarioEnv env(parse(text), feedback_victim(),
                    attack::RewardMode::VictimTrue);
    Rng rng(slot_seed), act_rng(9);
    std::vector<double> trace = env.reset(rng);
    for (int t = 0; t < 40; ++t) {
      std::vector<double> a(env.act_dim());
      for (auto& x : a) x = act_rng.uniform(-1.0, 1.0);
      const auto sr = env.step(a);
      trace.insert(trace.end(), sr.obs.begin(), sr.obs.end());
      trace.push_back(sr.reward);
      if (sr.done || sr.truncated) break;
    }
    return trace;
  };
  const std::string fam1 =
      "hopper+obs_perturb:0.075+dr[gain:0.9..1.1,mass:0.8..1.2]@1";
  const std::string fam2 =
      "hopper+obs_perturb:0.075+dr[gain:0.9..1.1,mass:0.8..1.2]@2";
  // Same spec@seed, same slot stream: bit-identical episodes.
  EXPECT_EQ(run(fam1, 100), run(fam1, 100));
  // Different family seed: different dynamics, different episodes.
  EXPECT_NE(run(fam1, 100), run(fam2, 100));
  // Different slot stream: different episodes within one family.
  EXPECT_NE(run(fam1, 100), run(fam1, 101));
}

TEST(ScenarioEnv, BudgetDepletesThenSilencesThePerturbation) {
  // ε = 0.075 per step against a 0.1 per-episode pool: the first step costs
  // the full ε, the second gets the 0.025 remainder, the third is free-of-
  // charge zero perturbation (the victim sees the true state).
  auto seen = std::make_shared<std::vector<std::vector<double>>>();
  const auto inner_victim = feedback_victim();
  ScenarioEnv env(parse("hopper+obs_perturb:0.075+budget:0.1"),
                  rl::ActionFn([seen, inner_victim](
                                   const std::vector<double>& obs) {
                    seen->push_back(obs);
                    return inner_victim(obs);
                  }),
                  attack::RewardMode::Adversary);
  Rng rng(3);
  const auto obs0 = env.reset(rng);
  EXPECT_DOUBLE_EQ(env.budget_remaining(), 0.1);
  const std::vector<double> ones(env.act_dim(), 1.0);

  env.step(ones);
  EXPECT_DOUBLE_EQ(env.budget_remaining(), 0.025);
  ASSERT_EQ(seen->size(), 1u);
  EXPECT_NE(seen->back(), obs0);  // the victim saw a perturbed view

  env.step(ones);
  EXPECT_DOUBLE_EQ(env.budget_remaining(), 0.0);

  // Pool empty: the victim's view IS the true observation.
  const auto sr_pre = env.step(ones);
  EXPECT_DOUBLE_EQ(env.budget_remaining(), 0.0);
  env.step(ones);
  ASSERT_EQ(seen->size(), 4u);
  ASSERT_EQ(seen->back().size(), sr_pre.obs.size());
  EXPECT_EQ(seen->back(), sr_pre.obs);

  // Reset refills the pool.
  env.reset(rng);
  EXPECT_DOUBLE_EQ(env.budget_remaining(), 0.1);
}

TEST(ScenarioEnv, UncontrolledScenarioExposesDummyActionDim) {
  ScenarioEnv env(parse("hopper+obs_noise:0.05+obs_delay:2"),
                  feedback_victim(), attack::RewardMode::VictimTrue);
  EXPECT_EQ(env.act_dim(), 1u);  // ignored dummy keeps PPO/eval machinery alive
  EXPECT_EQ(env.budget_remaining(),
            std::numeric_limits<double>::infinity());
  Rng rng(5);
  env.reset(rng);
  const auto sr = env.step({0.0});
  EXPECT_EQ(sr.obs.size(), env.obs_dim());
}

TEST(ScenarioEnv, ObsDelayDeliversStaleObservations) {
  // With an enormous ε-free delay-only scenario, the victim's view at step t
  // is the TRUE observation from step t-k; compare against an undelayed twin.
  // An open-loop victim (the feedback controller's constant term) acts the
  // same on stale and fresh views, so the two trajectories stay identical.
  const auto p = env::hopper_params();
  std::vector<double> act(p.n_joints);
  for (std::size_t j = 0; j < p.n_joints; ++j) act[j] = 0.3 * p.c[j];
  ScenarioEnv delayed(parse("hopper+obs_delay:2"),
                      rl::ActionFn([act](const std::vector<double>&) {
                        return act;
                      }),
                      attack::RewardMode::VictimTrue);
  const auto plain = env::make_hopper();
  Rng r1(17), r2(17);
  std::vector<std::vector<double>> true_obs;
  true_obs.push_back(plain->reset(r2));
  const auto d0 = delayed.reset(r1);
  EXPECT_EQ(d0, true_obs[0]);  // reset observation is always fresh
  for (int t = 0; t < 6; ++t) {
    const auto sp = plain->step(plain->action_space().clamp(act));
    true_obs.push_back(sp.obs);
    const auto sd = delayed.step({0.0});
    const std::size_t expect_idx =
        t + 1 >= 2 ? static_cast<std::size_t>(t - 1) : 0;
    EXPECT_EQ(sd.obs, true_obs[expect_idx]);
  }
}

TEST(ScenarioEnv, DynamicsRandomizationNeedsEnvSupport) {
  // FetchReach has no mass/gain hooks: naming dr[mass] on it must fault at
  // construction, not silently no-op at reset.
  EXPECT_THROW(ScenarioEnv(parse("fetchreach+obs_perturb:0.1"
                                 "+dr[mass:0.8..1.2]"),
                           feedback_victim(), attack::RewardMode::Adversary),
               CheckError);
  // dr[budget] alone needs no dynamics hook.
  ScenarioEnv ok(parse("hopper+obs_perturb:0.075+dr[budget:0.5..1]"
                       "+budget:0.2"),
                 feedback_victim(), attack::RewardMode::Adversary);
  Rng rng(3);
  ok.reset(rng);
  EXPECT_GE(ok.budget_remaining(), 0.1);
  EXPECT_LE(ok.budget_remaining(), 0.2);
}

TEST(ScenarioEnv, NameIsTheCanonicalScenarioString) {
  ScenarioEnv env(parse("hopper+obs_delay:2+obs_perturb"), feedback_victim(),
                  attack::RewardMode::VictimTrue);
  EXPECT_EQ(env.name(), "Hopper+obs_perturb:0.075+obs_delay:2");
}

}  // namespace
}  // namespace imap::scenario
