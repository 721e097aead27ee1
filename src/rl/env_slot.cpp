#include "rl/env_slot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace imap::rl {

EnvSlot::EnvSlot(const Env& proto, Rng stream)
    : env(proto.clone()), rng(stream) {}

void EnvSlot::set_env(const Env& proto) {
  IMAP_CHECK(proto.obs_dim() == env->obs_dim());
  IMAP_CHECK(proto.act_dim() == env->act_dim());
  env = proto.clone();
  need_reset = true;
  replay.invalidate();
}

void EnvSlot::record_step(const double* act, std::size_t na, double lp,
                          double ve, StepResult&& sr,
                          const nn::ValueNet& value_e,
                          const nn::ValueNet& value_i) {
  replay.on_step(act, na);
  buf.add(cur_obs.data(), cur_obs.size(), act, na, lp, sr.reward, ve);
  ep_return += sr.reward;
  ep_surrogate += sr.surrogate;
  ++ep_len;

  if (sr.done || sr.truncated) {
    buf.done.back() = sr.done ? 1 : 0;
    buf.boundary.back() = 1;
    // Bootstrap with the value of the post-step state (ignored if done).
    buf.last_val_e.push_back(sr.done ? 0.0 : value_e.value(sr.obs));
    buf.last_val_i.push_back(sr.done ? 0.0 : value_i.value(sr.obs));
    buf.episode_returns.push_back(ep_return);
    buf.episode_surrogate.push_back(ep_surrogate);
    buf.episode_lengths.push_back(ep_len);
    if (sr.task_completed) ++ep_successes;
    // In-place auto-reset: the next step starts the next episode, drawn
    // from the slot's own stream.
    replay.on_reset(rng);
    cur_obs = env->reset(rng);
    ep_return = ep_surrogate = 0.0;
    ep_len = 0;
  } else {
    // Swap instead of copy: sr is dead after this call.
    std::swap(cur_obs, sr.obs);
  }
}

void EnvSlot::collect(const nn::GaussianPolicy& policy,
                      const nn::ValueNet& value_e, const nn::ValueNet& value_i,
                      int budget) {
  buf.clear();
  buf.reserve(static_cast<std::size_t>(std::max(budget, 0)));
  buf.reserve_step(env->obs_dim(), env->act_dim());
  ep_successes = 0;
  if (budget <= 0) return;
  if (need_reset) {
    replay.on_reset(rng);
    cur_obs = env->reset(rng);
    ep_return = ep_surrogate = 0.0;
    ep_len = 0;
    need_reset = false;
  }

  const std::size_t odim = env->obs_dim();
  const std::size_t adim = env->act_dim();
  const std::vector<double>& log_std = policy.log_std();
  obs_b_.resize(1, odim);
  action_.resize(adim);
  for (int t = 0; t < budget; ++t) {
    // One-row batched mean and value: bit-identical to per-row forwards.
    obs_b_.set_row(0, cur_obs);
    const nn::Batch& mu = policy.mean_batch(obs_b_, ws_policy_);
    value_e.value_batch(obs_b_, ws_value_, vals_);

    // Sample around the mean on the slot's own stream, then score the
    // sample with the same mean — one policy forward per step.
    const double* m = mu.row(0);
    for (std::size_t d = 0; d < adim; ++d)
      action_[d] = m[d] + std::exp(log_std[d]) * rng.normal();
    const double lp =
        nn::diag_gaussian::log_prob(action_.data(), m, log_std.data(), adim);
    record_step(action_.data(), adim, lp, vals_[0],
                env->step(env->action_space().clamp(action_)), value_e,
                value_i);
  }

  // Close the rollout: the last segment bootstraps from the current state.
  if (!buf.boundary.back()) {
    buf.boundary.back() = 1;
    buf.last_val_e.push_back(value_e.value(cur_obs));
    buf.last_val_i.push_back(value_i.value(cur_obs));
  }
}

namespace {
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}
}  // namespace

void EnvSlot::save_episode(BinaryWriter& w) const {
  w.write_bool(need_reset);
  w.write_vec(cur_obs);
  w.write_f64(ep_return);
  w.write_f64(ep_surrogate);
  w.write_i64(ep_len);
  replay.save_state(w);
}

void EnvSlot::load_episode(BinaryReader& r) {
  need_reset = r.read_bool();
  cur_obs = r.read_vec();
  ep_return = r.read_f64();
  ep_surrogate = r.read_f64();
  ep_len = static_cast<int>(r.read_i64());
  replay.load_state(r);
  if (!need_reset && replay.valid()) {
    // Reconstruct the env mid-episode by replaying its history into the
    // fresh clone; the replayed observation must match the saved one
    // exactly or the prototype does not match the checkpoint.
    IMAP_CHECK_MSG(same_bits(replay.rebuild(*env), cur_obs),
                   "episode replay diverged from checkpoint — environment "
                   "prototype does not match");
  }
}

}  // namespace imap::rl
