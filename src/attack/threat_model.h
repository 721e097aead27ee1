#pragma once

#include <memory>

#include "env/multiagent.h"
#include "rl/env.h"
#include "rl/evaluate.h"
#include "rl/policy_handle.h"
#include "scenario/scenario_env.h"

namespace imap::attack {

using scenario::RewardMode;

/// Single-agent threat model (Sec. 4.3): the attacker observes the true
/// environment state s and injects a perturbation a^α with ‖a^α‖∞ ≤ ε into
/// the victim's observation; the frozen victim then acts on s + a^α. As an
/// rl::Env the *agent* is the adversary: actions are normalised perturbation
/// directions in [−1,1]^obs_dim scaled by ε.
///
/// This is exactly the scenario `<inner.name()>+obs_perturb:eps` over a
/// clone of `inner`, so it IS a scenario::ScenarioEnv and adds nothing but
/// the constructor; clones are plain ScenarioEnvs.
class StatePerturbationEnv : public scenario::ScenarioEnv {
 public:
  StatePerturbationEnv(const rl::Env& inner, rl::PolicyHandle victim,
                       double eps, RewardMode mode);
};

/// Multi-agent threat model (Sec. 4.3): the Markov game against a frozen
/// victim reduces to a single-player MDP M^α for the adversary. The
/// adversary observes the joint state; its terminal reward is −1 when the
/// victim wins and 0 otherwise (so J_AP = ASR − 1, matching the paper's
/// "ASR = J_AP + 1").
class OpponentEnv : public rl::EnvBase<OpponentEnv> {
 public:
  OpponentEnv(const env::MultiAgentEnv& game, rl::PolicyHandle victim);
  OpponentEnv(const OpponentEnv& other);
  OpponentEnv& operator=(const OpponentEnv&) = delete;

  std::size_t obs_dim() const override { return game_->adversary_obs_dim(); }
  std::size_t act_dim() const override { return game_->adversary_act_dim(); }
  int max_steps() const override { return game_->max_steps(); }
  std::string name() const override { return game_->name() + "+Opponent"; }
  const rl::BoxSpace& action_space() const override {
    return game_->adversary_action_space();
  }

  std::vector<double> reset(Rng& rng) override;
  rl::StepResult step(const std::vector<double>& action) override;

  /// Projections Π_{S^ν}, Π_{S^α} over the adversary observation, for the
  /// multi-agent regularizers.
  std::pair<std::size_t, std::size_t> victim_obs_range() const {
    return game_->victim_obs_range();
  }
  std::pair<std::size_t, std::size_t> adversary_obs_range() const {
    return game_->adversary_obs_range();
  }

 private:
  std::unique_ptr<env::MultiAgentEnv> game_;
  rl::PolicyHandle victim_;
  std::vector<double> cur_obs_v_;
};

/// Evaluate a single-agent attack: roll the deployment env under the frozen
/// victim while `adversary` perturbs its observations; reports the victim's
/// TRUE episode rewards and success rate.
rl::EvalStats evaluate_attack(const rl::Env& deploy_env,
                              rl::PolicyHandle victim,
                              const rl::ActionFn& adversary, double eps,
                              int episodes, Rng& rng);

/// Evaluate a multi-agent attack; `stats.success_rate` is the VICTIM's win
/// rate, so ASR = 1 − success_rate.
rl::EvalStats evaluate_opponent_attack(const env::MultiAgentEnv& game,
                                       rl::PolicyHandle victim,
                                       const rl::ActionFn& adversary,
                                       int episodes, Rng& rng);

}  // namespace imap::attack
