#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/multiagent.h"
#include "rl/env.h"

namespace imap::env {

enum class TaskType { DenseLocomotion, SparseLocomotion, Navigation,
                      Manipulation, MultiAgent };

/// Registry entry for one of the paper's 15 tasks.
struct EnvSpec {
  std::string name;
  TaskType type;
  /// Attack budget ε (ℓ∞ ball on the victim's observation) — the dense tasks
  /// use the paper's per-environment budgets (Table 1 left column).
  double epsilon = 0.1;
};

/// All single-agent task names (13, as in the paper).
std::vector<EnvSpec> single_agent_specs();
/// The two competitive games.
std::vector<EnvSpec> multi_agent_specs();

const EnvSpec& spec(const std::string& name);

/// Case-insensitive registry lookup: "hopper" -> "Hopper". nullopt for
/// unknown names. The scenario grammar resolves env components through this.
std::optional<std::string> resolve_name(const std::string& name);

/// Deployment-time environment (what the attacker faces). Throws CheckError
/// on unknown names.
std::unique_ptr<rl::Env> make_env(const std::string& name);

/// Victim-training environment for the task: dense counterparts for the
/// sparse tasks (the victim trains with its own shaped reward — which the
/// black-box attacker never sees), identity for the dense tasks.
std::unique_ptr<rl::Env> make_training_env(const std::string& name);

std::unique_ptr<MultiAgentEnv> make_multiagent_env(const std::string& name);

/// Scripted-opponent pool used to train the victim of a competitive game.
std::vector<ScriptedOpponent> victim_training_pool(const std::string& name);

}  // namespace imap::env
