#pragma once

#include "attack/sa_rl.h"

namespace imap::attack {

/// AP-MARL (Gleave et al.): the multi-agent adversarial-policy baseline —
/// plain PPO on the adversary-side MDP OpponentEnv(game, victim), with the
/// sparse win/lose reward and Gaussian dithering exploration. IMAP differs
/// from this only by the adversarial intrinsic regularizer and BR
/// (Sec. 6.3.3).
class ApMarl : public PpoAdversary {
 public:
  ApMarl(const env::MultiAgentEnv& game, rl::PolicyHandle victim,
         rl::PpoOptions ppo, Rng rng)
      : PpoAdversary(OpponentEnv(game, std::move(victim)), ppo, rng) {}
};

}  // namespace imap::attack
