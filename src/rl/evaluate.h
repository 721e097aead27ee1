#pragma once

#include <functional>
#include <vector>

#include "common/stats.h"
#include "rl/env.h"

namespace imap::rl {

/// Deterministic state→action mapping — how a *deployed* policy is queried
/// (the paper's threat model holds the victim network fixed; we evaluate its
/// mean action).
using ActionFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

struct EvalStats {
  ReturnSummary returns;        ///< true episode rewards J_E^ν (mean ± std)
  double success_rate = 0.0;    ///< fraction of episodes completing the task
  double mean_length = 0.0;
  std::vector<double> episode_returns;
};

/// Roll `episodes` episodes of `proto` under `act` and summarise.
EvalStats evaluate(const Env& proto, const ActionFn& act, int episodes,
                   Rng& rng);

/// Dump one trajectory (state rows) for qualitative inspection (Fig. 1/2
/// style renderings become CSVs here).
std::vector<std::vector<double>> rollout_trajectory(const Env& proto,
                                                    const ActionFn& act,
                                                    Rng& rng);

}  // namespace imap::rl
