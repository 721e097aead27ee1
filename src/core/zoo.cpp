#include "core/zoo.h"

#include <algorithm>
#include <filesystem>

#include "common/check.h"
#include "common/proc.h"
#include "defense/victim_trainer.h"
#include "env/multiagent.h"
#include "env/registry.h"
#include "nn/checkpoint.h"
#include "scenario/spec.h"

namespace imap::core {

namespace {

/// Scenario strings resolve to their BASE env's victim: the checkpoint is a
/// property of the task the victim was trained on, never of the threat model
/// it is later attacked under — so every scenario over one env shares one
/// artifact, and plain env names (trivial scenarios) keep the exact keys and
/// paths they had before the scenario layer existed.
std::string base_env(const std::string& name) {
  if (const auto canon = scenario::try_canonical(name))
    return scenario::parse(*canon).env;
  return name;  // not a scenario string; let the registry reject it
}

}  // namespace

Zoo::Zoo(std::string dir, double scale, std::uint64_t seed,
         int snapshot_every)
    : dir_(std::move(dir)),
      scale_(scale),
      seed_(seed),
      snapshot_every_(snapshot_every) {
  std::filesystem::create_directories(dir_);
}

std::string Zoo::path_for(const std::string& env_name,
                          const std::string& defense) const {
  std::string tag = defense;
  std::replace(tag.begin(), tag.end(), '-', '_');
  return dir_ + "/" + env_name + "_" + tag + "_s" + std::to_string(seed_) +
         "_v" + std::to_string(kFormatVersion) + ".pol";
}

long long Zoo::victim_steps(const std::string& scenario_or_env) const {
  const std::string env_name = base_env(scenario_or_env);
  long long base = 500'000;
  const auto& s = env::spec(env_name);
  // The cheetah's termination-free deployment semantics make it the slowest
  // learner of the family; give it more of a budget.
  if (env_name == "HalfCheetah" || env_name == "SparseHalfCheetah" ||
      env_name == "Ant" || env_name == "SparseAnt")
    return std::max<long long>(4096, static_cast<long long>(700'000 * scale_));
  switch (s.type) {
    case env::TaskType::DenseLocomotion:
    case env::TaskType::SparseLocomotion: base = 500'000; break;
    case env::TaskType::Navigation: base = 240'000; break;
    case env::TaskType::Manipulation: base = 200'000; break;
    case env::TaskType::MultiAgent: base = 350'000; break;
  }
  return std::max<long long>(
      4096, static_cast<long long>(static_cast<double>(base) * scale_));
}

rl::ActionFn Zoo::as_fn(const nn::GaussianPolicy& policy) {
  return rl::frozen_mean(policy);
}

rl::PolicyHandle Zoo::as_policy(const nn::GaussianPolicy& policy) {
  return rl::PolicyHandle::snapshot(policy);
}

std::string Zoo::checkpoint_path(const std::string& scenario_or_env,
                                 const std::string& defense) const {
  const std::string env_name = base_env(scenario_or_env);
  if (env::spec(env_name).type == env::TaskType::MultiAgent)
    return path_for(env_name, "PPO");
  return path_for(env::make_training_env(env_name)->name(), defense);
}

std::uint64_t Zoo::full_loads() const {
  std::lock_guard<std::mutex> lk(memo_m_);
  return full_loads_;
}

std::shared_ptr<const nn::GaussianPolicy> Zoo::load_memoized(
    const std::string& path) {
  // One stat decides everything: absent file -> miss (and the memo entry,
  // if any, is stale); signature match -> the previous parse+CRC check of
  // these exact bytes still stands, reuse it without reopening the file.
  const auto sig = proc::file_sig(path);
  std::lock_guard<std::mutex> lk(memo_m_);
  if (!sig) {
    memo_.erase(path);
    return nullptr;
  }
  const auto it = memo_.find(path);
  if (it != memo_.end() && it->second.sig == *sig) return it->second.policy;
  auto loaded = nn::load_policy(path);
  if (!loaded) return nullptr;  // vanished between stat and open
  ++full_loads_;
  auto policy =
      std::make_shared<const nn::GaussianPolicy>(std::move(*loaded));
  memo_[path] = Memo{*sig, policy};
  return policy;
}

std::shared_ptr<const nn::GaussianPolicy> Zoo::remember(
    const std::string& path, nn::GaussianPolicy policy) {
  auto sp = std::make_shared<const nn::GaussianPolicy>(std::move(policy));
  const auto sig = proc::file_sig(path);
  IMAP_CHECK_MSG(sig.has_value(), "checkpoint missing after save: " << path);
  std::lock_guard<std::mutex> lk(memo_m_);
  memo_[path] = Memo{*sig, sp};
  return sp;
}

nn::GaussianPolicy Zoo::victim(const std::string& env_name,
                               const std::string& defense) {
  return *victim_shared(env_name, defense);
}

std::shared_ptr<const nn::GaussianPolicy> Zoo::victim_shared(
    const std::string& scenario_or_env, const std::string& defense) {
  const std::string env_name = base_env(scenario_or_env);
  const auto training_env = env::make_training_env(env_name);
  // Key the cache by the TRAINING env so sparse tasks reuse the victim of
  // their dense counterpart (SparseHopper deploys the Hopper victim, etc.).
  const auto path = path_for(training_env->name(), defense);
  if (auto cached = load_memoized(path)) return cached;
  // Concurrent fabric processes wanting the same victim serialize here; the
  // loser of the race finds the winner's finished checkpoint on re-check
  // instead of training a duplicate. The re-check is memoized: when the
  // file state is unchanged since the pre-lock stat it costs one stat, not
  // an archive re-read.
  proc::FileLock lock(path + ".lock");
  if (auto cached = load_memoized(path)) return cached;
  defense::DefenseOptions opts;
  opts.eps = env::spec(env_name).epsilon;
  opts.reg_coef = 1.0;

  // Deterministic per-(training-env, defense) seed from the base seed.
  Rng seeder(seed_);
  std::uint64_t stream = 0;
  for (const char c : training_env->name() + "|" + defense)
    stream = stream * 131 + static_cast<unsigned char>(c);
  Rng rng = seeder.split(stream);

  defense::VictimTrainSession session(*training_env,
                                      defense::defense_from_string(defense),
                                      victim_steps(env_name), opts, rng);
  // Resume a run this process (or a previous one) left unfinished.
  const std::string snap = path + ".snap";
  session.restore(snap);
  int since_snapshot = 0;
  while (!session.done()) {
    session.advance();
    if (snapshot_every_ > 0 && ++since_snapshot >= snapshot_every_ &&
        !session.done()) {
      IMAP_CHECK_MSG(session.snapshot(snap),
                     "failed to write snapshot " << snap);
      since_snapshot = 0;
    }
  }
  auto policy = session.policy();
  IMAP_CHECK_MSG(nn::save_policy(path, policy),
                 "failed to write checkpoint " << path);
  std::filesystem::remove(snap);  // the finished checkpoint supersedes it
  return remember(path, std::move(policy));
}

nn::GaussianPolicy Zoo::game_victim(const std::string& game_name) {
  return *game_victim_shared(game_name);
}

std::shared_ptr<const nn::GaussianPolicy> Zoo::game_victim_shared(
    const std::string& game_name) {
  const auto path = path_for(game_name, "PPO");
  if (auto cached = load_memoized(path)) return cached;
  proc::FileLock lock(path + ".lock");
  if (auto cached = load_memoized(path)) return cached;

  const auto game = env::make_multiagent_env(game_name);
  env::VictimSideEnv training_env(*game,
                                  env::victim_training_pool(game_name));

  Rng seeder(seed_);
  std::uint64_t stream = 0;
  for (const char c : game_name) stream = stream * 131 + static_cast<unsigned char>(c);
  Rng rng = seeder.split(stream);

  // Competitive-game victims need wider exploration to discover the
  // multi-stage skill (reach ball → dribble → score / dodge → sprint).
  rl::PpoOptions ppo;
  ppo.ent_coef = 0.01;
  ppo.init_log_std = -0.2;
  rl::PpoTrainer trainer(training_env, ppo, rng);
  const std::string snap = path + ".snap";
  trainer.restore(snap);
  const long long steps = victim_steps(game_name);
  int since_snapshot = 0;
  while (trainer.steps_done() < steps) {
    trainer.iterate();
    if (snapshot_every_ > 0 && ++since_snapshot >= snapshot_every_ &&
        trainer.steps_done() < steps) {
      IMAP_CHECK_MSG(trainer.snapshot(snap),
                     "failed to write snapshot " << snap);
      since_snapshot = 0;
    }
  }
  auto policy = trainer.policy();
  IMAP_CHECK_MSG(nn::save_policy(path, policy),
                 "failed to write checkpoint " << path);
  std::filesystem::remove(snap);
  return remember(path, std::move(policy));
}

}  // namespace imap::core
