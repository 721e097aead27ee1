#pragma once

#include <memory>

#include "attack/threat_model.h"
#include "rl/ppo.h"

namespace imap::attack {

/// Plain PPO on a prebuilt attack-view env — the body both PPO baselines
/// share. The env must already report the adversary's reward (e.g. a
/// scenario::ScenarioEnv in RewardMode::Adversary, or an OpponentEnv); the
/// Rng goes straight to the PPO trainer. Exploration is PPO's Gaussian
/// dithering and nothing else.
class PpoAdversary {
 public:
  PpoAdversary(const rl::Env& attack_env, rl::PpoOptions ppo, Rng rng);

  rl::IterStats iterate() { return trainer_->iterate(); }
  std::vector<rl::IterStats> train(long long steps) {
    return trainer_->train(steps);
  }

  /// Frozen deterministic adversary (mean policy) for evaluation.
  rl::ActionFn adversary() const {
    return rl::frozen_mean(trainer_->policy());
  }

  rl::PpoTrainer& trainer() { return *trainer_; }

  /// Attack state is exactly the PPO trainer's (the attack-view env is
  /// rebuilt from ctor arguments; its inner env is replayed by the trainer).
  void save_state(ArchiveWriter& a) const { trainer_->save_state(a); }
  void load_state(const ArchiveReader& a) { trainer_->load_state(a); }
  bool snapshot(const std::string& path) const {
    return trainer_->snapshot(path);
  }
  bool restore(const std::string& path) { return trainer_->restore(path); }

 private:
  std::unique_ptr<rl::PpoTrainer> trainer_;
};

/// SA-RL (Zhang et al.): the optimal black-box state adversary learned by
/// plain PPO in the SA-MDP. This is the paper's single-agent baseline.
///
/// The original SA-RL trains on the victim's training-time reward r_E^ν —
/// a relaxation of the black-box model. As in the paper's experiments
/// (Sec. 6.2), our implementation uses the same surrogate −r̂_E^ν as IMAP so
/// the comparison is apples-to-apples. The relaxed original is an attack
/// env in RewardMode::AdversaryRelaxed (the ablation bench builds one).
class SaRl : public PpoAdversary {
 public:
  using PpoAdversary::PpoAdversary;

  /// Train against StatePerturbationEnv(deploy_env, victim, eps, Adversary).
  /// rl::PolicyHandle converts implicitly from ActionFn; a network-backed
  /// handle answers the victim queries bit-identically, and faster.
  SaRl(const rl::Env& deploy_env, rl::PolicyHandle victim, double eps,
       rl::PpoOptions ppo, Rng rng);
};

}  // namespace imap::attack
