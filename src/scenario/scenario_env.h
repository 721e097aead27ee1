#pragma once

#include <memory>

#include "rl/env.h"
#include "rl/policy_handle.h"
#include "scenario/channels.h"
#include "scenario/spec.h"

namespace imap::scenario {

/// Whose reward the env reports. Attack TRAINING uses Adversary
/// (J_AP = −r̂, the black-box surrogate objective, Eq. 3); attack EVALUATION
/// uses VictimTrue so the harness can report the victim's real episode
/// rewards J_E^ν under attack (the paper's Table 1/2 metric).
/// AdversaryRelaxed is the ORIGINAL SA-RL threat model (paper Sec. 4.2:
/// "SA-RL relaxed the second assumption"): the adversary trains on the
/// negated TRUE victim reward −r_E^ν — information a black-box attacker
/// would not have. Kept for the ablation bench.
enum class RewardMode { Adversary, VictimTrue, AdversaryRelaxed };

/// One scenario instance: the base environment wrapped in the full
/// perturbation-channel pipeline plus per-reset domain randomization. Each
/// step() perturbs the observation, asks the frozen victim for its action
/// (one PolicyHandle::query), perturbs that action and steps the inner env.
/// With `obs_perturb` alone this is the paper's single-agent threat model
/// (Sec. 4.3): the frozen victim acts on s + ε·a^α, ‖a^α‖∞ ≤ 1
/// (attack::StatePerturbationEnv names that case).
///
/// As an rl::Env the *agent* is the adversary; its action is the
/// concatenation of the controlled channels' slices (see ChannelPipeline).
/// A scenario with no controlled channel exposes one ignored dummy action
/// dim so PPO machinery and null attacks keep working.
///
/// Determinism: each reset draws, from the SLOT Rng it is given and in fixed
/// order, (1) one u64 for the dr factors when dr ranges are present — mixed
/// with the family seed, so `spec@7` names one reproducible family — then
/// (2) the inner env's own reset draws, then (3) one reseed u64 per
/// stochastic channel present. Everything downstream is a pure function of
/// those draws and the action sequence, so randomized rollouts are
/// bit-identical across any slots×procs factorization and episodes
/// replay exactly from their pre-reset Rng state (snapshot restore).
class ScenarioEnv : public rl::EnvBase<ScenarioEnv> {
 public:
  /// Build the registry env `spec.env` and wrap it.
  ScenarioEnv(const ScenarioSpec& spec, rl::PolicyHandle victim,
              RewardMode mode);
  /// Wrap a clone of a prebuilt `inner` env; `spec.env` only names it.
  ScenarioEnv(const ScenarioSpec& spec, const rl::Env& inner,
              rl::PolicyHandle victim, RewardMode mode);
  ScenarioEnv(const ScenarioEnv& other);
  ScenarioEnv& operator=(const ScenarioEnv&) = delete;

  std::size_t obs_dim() const override { return inner_->obs_dim(); }
  std::size_t act_dim() const override { return act_space_.dim(); }
  int max_steps() const override { return inner_->max_steps(); }
  /// The canonical scenario string — the identity used in cache keys.
  std::string name() const override { return spec_.canonical(); }
  const rl::BoxSpace& action_space() const override { return act_space_; }

  std::vector<double> reset(Rng& rng) override;
  rl::StepResult step(const std::vector<double>& action) override;

  const ScenarioSpec& spec() const { return spec_; }
  double epsilon() const { return spec_.epsilon(); }
  const rl::Env& inner() const { return *inner_; }
  /// Remaining ε budget in the current episode (infinity when unbudgeted).
  double budget_remaining() const { return pipeline_.budget_remaining(); }
  /// Dynamics scales drawn at the last reset (1/1 without mass/gain dr).
  const rl::DynamicsScales& dynamics() const { return dynamics_; }

 private:
  void apply_dr(Rng& rng);

  ScenarioSpec spec_;
  std::unique_ptr<rl::Env> inner_;
  rl::PolicyHandle victim_;
  RewardMode mode_;
  ChannelPipeline pipeline_;
  rl::BoxSpace act_space_;
  rl::DynamicsScales dynamics_;
  double budget_scale_ = 1.0;
  std::vector<double> cur_obs_;
  std::vector<double> perturbed_;  ///< step() scratch (reused)
};

/// Build the attack/evaluation env for a scenario: RewardMode::Adversary for
/// attack training, RewardMode::VictimTrue for evaluation.
std::unique_ptr<ScenarioEnv> make_scenario_env(const ScenarioSpec& spec,
                                               rl::PolicyHandle victim,
                                               RewardMode mode);

}  // namespace imap::scenario
