#include "attack/threat_model.h"

#include "common/check.h"

namespace imap::attack {

namespace {

scenario::ScenarioSpec obs_perturb_spec(const rl::Env& inner, double eps) {
  IMAP_CHECK(eps >= 0.0);
  scenario::ScenarioSpec spec;
  spec.env = inner.name();
  spec.channels.push_back({scenario::ChannelKind::ObsPerturb, eps});
  return spec;
}

}  // namespace

StatePerturbationEnv::StatePerturbationEnv(const rl::Env& inner,
                                           rl::PolicyHandle victim, double eps,
                                           RewardMode mode)
    : ScenarioEnv(obs_perturb_spec(inner, eps), inner, std::move(victim),
                  mode) {}

OpponentEnv::OpponentEnv(const env::MultiAgentEnv& game,
                         rl::PolicyHandle victim)
    : game_(game.clone()), victim_(std::move(victim)) {
  IMAP_CHECK(static_cast<bool>(victim_));
}

OpponentEnv::OpponentEnv(const OpponentEnv& other)
    : game_(other.game_->clone()),
      victim_(other.victim_),
      cur_obs_v_(other.cur_obs_v_) {}

std::vector<double> OpponentEnv::reset(Rng& rng) {
  auto [obs_v, obs_a] = game_->reset(rng);
  cur_obs_v_ = std::move(obs_v);
  return obs_a;
}

rl::StepResult OpponentEnv::step(const std::vector<double>& action) {
  const auto act_a = game_->adversary_action_space().clamp(action);
  const auto act_v =
      game_->victim_action_space().clamp(victim_.query(cur_obs_v_));
  env::MaStepResult ma = game_->step(act_v, act_a);
  cur_obs_v_ = std::move(ma.obs_v);

  rl::StepResult sr;
  sr.obs = std::move(ma.obs_a);
  sr.done = ma.done;
  sr.truncated = ma.truncated;
  const bool over = ma.done || ma.truncated;
  sr.task_completed = over && ma.victim_won;
  sr.surrogate = sr.task_completed ? 1.0 : 0.0;
  sr.reward = over ? (ma.victim_won ? -1.0 : 0.0) : 0.0;
  sr.fell = false;
  return sr;
}

rl::EvalStats evaluate_attack(const rl::Env& deploy_env,
                              rl::PolicyHandle victim,
                              const rl::ActionFn& adversary, double eps,
                              int episodes, Rng& rng) {
  StatePerturbationEnv env(deploy_env, std::move(victim), eps,
                           RewardMode::VictimTrue);
  return rl::evaluate(env, adversary, episodes, rng);
}

rl::EvalStats evaluate_opponent_attack(const env::MultiAgentEnv& game,
                                       rl::PolicyHandle victim,
                                       const rl::ActionFn& adversary,
                                       int episodes, Rng& rng) {
  OpponentEnv env(game, std::move(victim));
  return rl::evaluate(env, adversary, episodes, rng);
}

}  // namespace imap::attack
