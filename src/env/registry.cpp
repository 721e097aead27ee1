#include "env/registry.h"

#include <cctype>

#include "common/check.h"
#include "env/ant.h"
#include "env/fetch_reach.h"
#include "env/half_cheetah.h"
#include "env/hopper.h"
#include "env/humanoid.h"
#include "env/kick_and_defend.h"
#include "env/maze.h"
#include "env/sparse.h"
#include "env/walker2d.h"
#include "env/you_shall_not_pass.h"

namespace imap::env {

std::vector<EnvSpec> single_agent_specs() {
  return {
      // Dense locomotion — ε from Table 1.
      {"Hopper", TaskType::DenseLocomotion, 0.075},
      {"Walker2d", TaskType::DenseLocomotion, 0.05},
      {"HalfCheetah", TaskType::DenseLocomotion, 0.15},
      {"Ant", TaskType::DenseLocomotion, 0.15},
      // Sparse locomotion.
      {"SparseHopper", TaskType::SparseLocomotion, 0.075},
      {"SparseWalker2d", TaskType::SparseLocomotion, 0.05},
      {"SparseHalfCheetah", TaskType::SparseLocomotion, 0.15},
      {"SparseAnt", TaskType::SparseLocomotion, 0.15},
      {"SparseHumanoidStandup", TaskType::SparseLocomotion, 0.1},
      {"SparseHumanoid", TaskType::SparseLocomotion, 0.1},
      // Navigation.
      {"AntUMaze", TaskType::Navigation, 0.1},
      {"Ant4Rooms", TaskType::Navigation, 0.1},
      // Manipulation.
      {"FetchReach", TaskType::Manipulation, 0.1},
  };
}

std::vector<EnvSpec> multi_agent_specs() {
  return {
      {"YouShallNotPass", TaskType::MultiAgent, 0.0},
      {"KickAndDefend", TaskType::MultiAgent, 0.0},
  };
}

const EnvSpec& spec(const std::string& name) {
  static const std::vector<EnvSpec> all = [] {
    auto v = single_agent_specs();
    auto m = multi_agent_specs();
    v.insert(v.end(), m.begin(), m.end());
    return v;
  }();
  for (const auto& s : all)
    if (s.name == name) return s;
  IMAP_CHECK_MSG(false, "unknown environment: " << name);
  return all.front();  // unreachable
}

std::optional<std::string> resolve_name(const std::string& name) {
  const auto fold = [](const std::string& s) {
    std::string out = s;
    for (auto& c : out)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
  };
  const std::string needle = fold(name);
  for (const auto& s : single_agent_specs())
    if (fold(s.name) == needle) return s.name;
  for (const auto& s : multi_agent_specs())
    if (fold(s.name) == needle) return s.name;
  return std::nullopt;
}

std::unique_ptr<rl::Env> make_env(const std::string& name) {
  if (name == "Hopper") return make_hopper();
  if (name == "Walker2d") return make_walker2d();
  if (name == "HalfCheetah") return make_half_cheetah();
  if (name == "Ant") return make_ant();
  if (name == "SparseHopper") return make_sparse_hopper();
  if (name == "SparseWalker2d") return make_sparse_walker2d();
  if (name == "SparseHalfCheetah") return make_sparse_half_cheetah();
  if (name == "SparseAnt") return make_sparse_ant();
  if (name == "SparseHumanoidStandup") return make_sparse_humanoid_standup();
  if (name == "SparseHumanoid") return make_sparse_humanoid();
  if (name == "AntUMaze") return make_ant_u_maze();
  if (name == "Ant4Rooms") return make_ant_4rooms();
  if (name == "FetchReach") return make_fetch_reach();
  IMAP_CHECK_MSG(false, "unknown single-agent environment: " << name);
  return nullptr;  // unreachable
}

std::unique_ptr<rl::Env> make_training_env(const std::string& name) {
  // Sparse tasks: the victim is trained on the dense counterpart (shaped
  // training rewards are the victim's own knowledge; the attacker only ever
  // interacts with the sparse deployment env).
  if (name == "HalfCheetah") return make_half_cheetah_trainer();
  if (name == "SparseHopper") return make_hopper();
  if (name == "SparseWalker2d") return make_walker2d();
  if (name == "SparseHalfCheetah") return make_half_cheetah_trainer();
  if (name == "SparseAnt") return make_ant();
  if (name == "SparseHumanoidStandup") return make_humanoid_standup_dense();
  if (name == "SparseHumanoid") return make_humanoid_dense();
  if (name == "AntUMaze") return make_ant_u_maze_dense();
  if (name == "Ant4Rooms") return make_ant_4rooms_dense();
  if (name == "FetchReach") return make_fetch_reach_dense();
  return make_env(name);  // dense tasks train on themselves
}

std::unique_ptr<MultiAgentEnv> make_multiagent_env(const std::string& name) {
  if (name == "YouShallNotPass") return make_you_shall_not_pass();
  if (name == "KickAndDefend") return make_kick_and_defend();
  IMAP_CHECK_MSG(false, "unknown multi-agent environment: " << name);
  return nullptr;  // unreachable
}

std::vector<ScriptedOpponent> victim_training_pool(const std::string& name) {
  if (name == "YouShallNotPass")
    return YouShallNotPassEnv::victim_training_pool();
  if (name == "KickAndDefend")
    return KickAndDefendEnv::victim_training_pool();
  IMAP_CHECK_MSG(false, "no scripted pool for: " << name);
  return {};  // unreachable
}

}  // namespace imap::env
