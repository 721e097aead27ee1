#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "nn/adam.h"
#include "nn/checkpoint.h"
#include "nn/gaussian.h"
#include "nn/mlp.h"
#include "rl/env.h"
#include "rl/env_slot.h"

namespace imap::nn {
namespace {

/// One-row batch holding `x`.
Batch row_batch(const std::vector<double>& x) {
  Batch b(1, x.size());
  b.set_row(0, x);
  return b;
}

// Finite-difference check of the MLP backward pass — the foundation every
// trainer in the library rests on.
TEST(Mlp, GradientsMatchFiniteDifferences) {
  Rng rng(3);
  Mlp net({4, 8, 3}, rng);
  const auto x = rng.normal_vec(4);
  const std::vector<double> w{0.7, -1.3, 0.4};  // loss = w · out

  Mlp::Workspace ws;
  net.forward_batch(row_batch(x), ws);
  net.zero_grad();
  const Batch& gin_rows = net.backward_batch(ws, row_batch(w));
  const std::vector<double> gin(gin_rows.row(0), gin_rows.row(0) + x.size());
  const auto analytic = net.grads();

  auto loss = [&](const std::vector<double>& input) {
    const auto out = net.forward(input);
    double l = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) l += w[i] * out[i];
    return l;
  };

  const double h = 1e-6;
  // Parameter gradients (spot-check a spread of indices).
  for (std::size_t i = 0; i < net.params().size(); i += 7) {
    const double orig = net.params()[i];
    net.params()[i] = orig + h;
    const double lp = loss(x);
    net.params()[i] = orig - h;
    const double lm = loss(x);
    net.params()[i] = orig;
    EXPECT_NEAR(analytic[i], (lp - lm) / (2 * h), 1e-4)
        << "param index " << i;
  }
  // Input gradients.
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    EXPECT_NEAR(gin[i], (loss(xp) - loss(xm)) / (2 * h), 1e-4);
  }
}

TEST(Mlp, InputGradientMatchesBackward) {
  Rng rng(5);
  Mlp net({3, 6, 2}, rng);
  const auto x = rng.normal_vec(3);
  const Batch gout = row_batch({1.0, -2.0});
  Mlp::Workspace ws;
  net.forward_batch(row_batch(x), ws);
  net.zero_grad();
  const Batch g1 = net.backward_batch(ws, gout);
  const Batch& g2 = net.input_gradient_batch(ws, gout);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(g1(0, i), g2(0, i));
}

TEST(Mlp, RejectsWrongInputDim) {
  Rng rng(1);
  Mlp net({3, 4, 2}, rng);
  EXPECT_THROW(net.forward({1.0, 2.0}), CheckError);
}

TEST(Adam, MinimizesQuadratic) {
  std::vector<double> p{5.0, -3.0};
  Adam opt(2, {.lr = 0.05, .max_grad_norm = 0.0});
  for (int i = 0; i < 2000; ++i) {
    const std::vector<double> g{2.0 * (p[0] - 1.0), 2.0 * (p[1] + 2.0)};
    opt.step(p, g);
  }
  EXPECT_NEAR(p[0], 1.0, 1e-2);
  EXPECT_NEAR(p[1], -2.0, 1e-2);
}

TEST(Adam, ClipsGlobalNorm) {
  std::vector<double> p{0.0};
  Adam opt(1, {.lr = 1.0, .max_grad_norm = 0.5});
  opt.step(p, {1e9});
  // With clipping the first Adam step is ≈ −lr regardless of magnitude, and
  // never catastrophically large.
  EXPECT_LT(std::abs(p[0]), 2.0);
}

/// log N(a | mean, exp(ls)²) over whole vectors, through the pointer core.
double log_prob(const std::vector<double>& a, const std::vector<double>& mean,
                const std::vector<double>& ls) {
  return diag_gaussian::log_prob(a.data(), mean.data(), ls.data(), a.size());
}

TEST(DiagGaussian, LogProbMatchesClosedForm) {
  // 1-D standard normal at 0: log(1/sqrt(2π)).
  EXPECT_NEAR(log_prob({0.0}, {0.0}, {0.0}), -0.5 * std::log(2 * M_PI),
              1e-12);
  // Scaling: N(0, e²) at x=e has logp = -0.5 - 1 - 0.5 ln 2π.
  EXPECT_NEAR(log_prob({std::exp(1.0)}, {0.0}, {1.0}),
              -0.5 - 1.0 - 0.5 * std::log(2 * M_PI), 1e-12);
}

TEST(DiagGaussian, EntropyAndKl) {
  EXPECT_NEAR(diag_gaussian::entropy({0.0}),
              0.5 * std::log(2 * M_PI * std::exp(1.0)), 1e-12);
  // KL(p‖p) = 0.
  EXPECT_NEAR(diag_gaussian::kl({1.0, 2.0}, {0.1, -0.2}, {1.0, 2.0},
                                {0.1, -0.2}),
              0.0, 1e-12);
  // KL between unit Gaussians with mean shift δ is δ²/2.
  EXPECT_NEAR(diag_gaussian::kl({1.0}, {0.0}, {0.0}, {0.0}), 0.5, 1e-12);
  EXPECT_GT(diag_gaussian::kl({0.0}, {1.0}, {0.0}, {0.0}), 0.0);
}

TEST(DiagGaussian, LogProbGradientsMatchFiniteDifferences) {
  // backward_logp_batch's d log π / d mean lands on the output-layer bias
  // (mean = W·h + b) and d log π / d log_std on the log-std gradients.
  Rng rng(7);
  GaussianPolicy pi(3, 2, {4}, rng);
  const auto obs = rng.normal_vec(3);
  const std::vector<double> a{0.3, -1.1};
  const auto mean = pi.mean_action(obs);
  const auto& ls = pi.log_std();
  pi.zero_grad();
  pi.mean_batch(row_batch(obs));
  pi.backward_logp_batch(row_batch(a), {1.0});
  const auto g = pi.flat_grads();
  const std::size_t n_net = pi.net().params().size();
  const double h = 1e-6;
  for (std::size_t i = 0; i < 2; ++i) {
    auto mp = mean, mm = mean;
    mp[i] += h;
    mm[i] -= h;
    EXPECT_NEAR(g[n_net - 2 + i],
                (log_prob(a, mp, ls) - log_prob(a, mm, ls)) / (2 * h),
                1e-6);
    auto lp = ls, lm = ls;
    lp[i] += h;
    lm[i] -= h;
    EXPECT_NEAR(g[n_net + i],
                (log_prob(a, mean, lp) - log_prob(a, mean, lm)) / (2 * h),
                1e-6);
  }
}

/// A one-dimensional MDP that always observes the same state and never
/// ends, so every collected action is a draw around one policy mean.
class ConstObsEnv : public rl::EnvBase<ConstObsEnv> {
 public:
  explicit ConstObsEnv(std::vector<double> obs) : obs_(std::move(obs)) {}
  std::size_t obs_dim() const override { return obs_.size(); }
  std::size_t act_dim() const override { return 2; }
  int max_steps() const override { return 1 << 30; }
  std::string name() const override { return "ConstObs"; }
  const rl::BoxSpace& action_space() const override { return space_; }
  std::vector<double> reset(Rng&) override { return obs_; }
  rl::StepResult step(const std::vector<double>&) override {
    rl::StepResult sr;
    sr.obs = obs_;
    return sr;
  }

 private:
  std::vector<double> obs_;
  rl::BoxSpace space_{2, 10.0};
};

TEST(GaussianPolicy, SampleStatisticsMatchParameters) {
  // The rollout engine's sampler draws a ~ N(μ(s), exp(log_std)²).
  Rng rng(9);
  GaussianPolicy pi(3, 2, {16}, rng, /*init_log_std=*/-0.5);
  ValueNet value(3, {16}, rng);
  const auto obs = rng.normal_vec(3);
  const auto mu = pi.mean_action(obs);
  const int n = 20000;
  rl::EnvSlot slot(ConstObsEnv(obs), rng.split(1));
  slot.collect(pi, value, value, n);
  const auto& buf = slot.buf;
  ASSERT_EQ(buf.size(), static_cast<std::size_t>(n));
  std::vector<double> acc(2, 0.0), acc2(2, 0.0);
  for (int i = 0; i < n; ++i) {
    const auto& a = buf.act[static_cast<std::size_t>(i)];
    for (int d = 0; d < 2; ++d) {
      acc[d] += a[d];
      acc2[d] += (a[d] - mu[d]) * (a[d] - mu[d]);
    }
  }
  for (int d = 0; d < 2; ++d) {
    EXPECT_NEAR(acc[d] / n, mu[d], 0.02);
    EXPECT_NEAR(std::sqrt(acc2[d] / n), std::exp(-0.5), 0.02);
  }
}

TEST(GaussianPolicy, BackwardLogpMatchesFiniteDifferences) {
  Rng rng(13);
  GaussianPolicy pi(3, 2, {8}, rng);
  const auto obs = rng.normal_vec(3);
  const auto act = rng.normal_vec(2);

  pi.zero_grad();
  pi.mean_batch(row_batch(obs));
  pi.backward_logp_batch(row_batch(act), {1.0});
  const auto analytic = pi.flat_grads();

  const auto logp = [&] {
    return log_prob(act, pi.mean_action(obs), pi.log_std());
  };
  auto params = pi.flat_params();
  const double h = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 5) {
    auto p = params;
    p[i] += h;
    pi.set_flat_params(p);
    const double lp = logp();
    p[i] = params[i] - h;
    pi.set_flat_params(p);
    const double lm = logp();
    pi.set_flat_params(params);
    EXPECT_NEAR(analytic[i], (lp - lm) / (2 * h), 1e-4) << "param " << i;
  }
}

TEST(GaussianPolicy, ClampLogStd) {
  Rng rng(1);
  GaussianPolicy pi(2, 2, {4}, rng, /*init_log_std=*/5.0);
  pi.clamp_log_std(-3.0, 1.0);
  for (const double ls : pi.log_std()) EXPECT_LE(ls, 1.0);
}

TEST(ValueNet, BackwardMatchesFiniteDifferences) {
  Rng rng(17);
  ValueNet v(4, {8}, rng);
  const auto obs = rng.normal_vec(4);
  std::vector<double> vals;
  v.zero_grad();
  v.value_batch(row_batch(obs), vals);
  v.backward_batch({1.0});
  const auto analytic = v.grads();
  const double h = 1e-6;
  for (std::size_t i = 0; i < v.params().size(); i += 3) {
    const double orig = v.params()[i];
    v.params()[i] = orig + h;
    const double vp = v.value(obs);
    v.params()[i] = orig - h;
    const double vm = v.value(obs);
    v.params()[i] = orig;
    EXPECT_NEAR(analytic[i], (vp - vm) / (2 * h), 1e-4);
  }
}

TEST(Checkpoint, PolicyRoundTrip) {
  Rng rng(21);
  GaussianPolicy pi(5, 3, {16, 16}, rng);
  const std::string path = "/tmp/imap_test_policy.pol";
  ASSERT_TRUE(save_policy(path, pi));
  const auto loaded = load_policy(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->obs_dim(), 5u);
  EXPECT_EQ(loaded->act_dim(), 3u);
  const auto obs = rng.normal_vec(5);
  EXPECT_EQ(loaded->mean_action(obs), pi.mean_action(obs));
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingPolicyIsNullopt) {
  EXPECT_FALSE(load_policy("/tmp/not_a_policy_anywhere.pol").has_value());
}

TEST(Checkpoint, ValueNetRoundTrip) {
  Rng rng(23);
  ValueNet v(4, {8}, rng);
  BinaryWriter w;
  write_value_net(w, v);
  BinaryReader r(std::vector<std::uint8_t>(w.buffer()));
  const auto v2 = read_value_net(r);
  const auto obs = rng.normal_vec(4);
  EXPECT_DOUBLE_EQ(v2.value(obs), v.value(obs));
}

}  // namespace
}  // namespace imap::nn
