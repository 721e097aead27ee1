#pragma once

#include <memory>
#include <vector>

#include "common/serialize.h"
#include "nn/batch.h"
#include "nn/gaussian.h"
#include "rl/env.h"
#include "rl/replay.h"
#include "rl/rollout.h"

namespace imap::rl {

/// One rollout slot, the only rollout collector: its own env clone, Rng
/// stream, episode state, rollout buffer and one-row policy/value
/// workspaces. Each step is one batched policy-mean forward and one batched
/// critic forward on a one-row batch (bit-identical to per-row forwards,
/// but on the SIMD backends' cached transposes), then one env->step().
///
/// Determinism contract: a slot draws only from its own stream and
/// auto-resets in place, so its trace is a pure function of its env
/// prototype, its stream and the (frozen) policy parameters — never of how
/// many slots a trainer runs or on which thread. The policy and critics
/// stay read-only during collect(); every mutable buffer is the slot's own.
struct EnvSlot {
  EnvSlot() = default;
  /// A clone of `proto` stepping on `stream`.
  EnvSlot(const Env& proto, Rng stream);

  std::unique_ptr<Env> env;
  Rng rng{0};
  std::vector<double> cur_obs;
  double ep_return = 0.0;
  double ep_surrogate = 0.0;
  int ep_len = 0;
  bool need_reset = true;
  int ep_successes = 0;
  RolloutBuffer buf;
  EpisodeReplay replay;  ///< in-flight episode history for snapshot/resume

  /// Run `budget` steps into `buf` (cleared first; left empty for a budget
  /// of 0), closing the last segment with a bootstrap value. Episode state
  /// persists across calls.
  void collect(const nn::GaussianPolicy& policy, const nn::ValueNet& value_e,
               const nn::ValueNet& value_i, int budget);

  /// Swap the environment for a clone of `proto` (same spaces); the episode
  /// restarts on the next collect.
  void set_env(const Env& proto);

  /// Episode codec: need_reset, cur_obs, the episode scalars and the
  /// in-flight history (not the stream). load_episode rebuilds a
  /// mid-episode env by replaying its history into the current clone and
  /// checks the replayed observation against the saved one bit for bit.
  void save_episode(BinaryWriter& w) const;
  void load_episode(BinaryReader& r);

 private:
  void record_step(const double* act, std::size_t na, double lp, double ve,
                   StepResult&& sr, const nn::ValueNet& value_e,
                   const nn::ValueNet& value_i);

  // One-row scratch (grows once, then reused).
  nn::Mlp::Workspace ws_policy_, ws_value_;
  nn::Batch obs_b_;
  std::vector<double> vals_, action_;
};

}  // namespace imap::rl
