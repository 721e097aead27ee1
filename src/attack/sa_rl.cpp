#include "attack/sa_rl.h"

namespace imap::attack {

PpoAdversary::PpoAdversary(const rl::Env& attack_env, rl::PpoOptions ppo,
                           Rng rng)
    : trainer_(std::make_unique<rl::PpoTrainer>(attack_env, ppo, rng)) {}

SaRl::SaRl(const rl::Env& deploy_env, rl::PolicyHandle victim, double eps,
           rl::PpoOptions ppo, Rng rng)
    : PpoAdversary(StatePerturbationEnv(deploy_env, std::move(victim), eps,
                                        RewardMode::Adversary),
                   ppo, rng) {}

}  // namespace imap::attack
