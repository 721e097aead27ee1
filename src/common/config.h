#pragma once

#include <string>

namespace imap {

/// Runtime knobs shared by the bench harnesses, read once from the
/// environment:
///   IMAP_BENCH_SCALE — multiplies all training-step and eval-episode budgets
///                      (default 1.0; use e.g. 0.1 for a smoke run).
///   IMAP_ZOO_DIR     — directory for cached victim checkpoints
///                      (default "./zoo").
///   IMAP_SEED        — base experiment seed (default 7).
///   IMAP_SNAPSHOT_EVERY — write a resumable training snapshot every N
///                      iterations/rounds (0 = off). Interrupted victim
///                      training and attack runs pick up from the snapshot.
///   IMAP_HALT_AFTER_ITERS — stop attack training after N iterations this
///                      process (0 = off), leaving a snapshot behind. A
///                      debugging/testing knob; never part of cache keys.
struct BenchConfig {
  double scale = 1.0;
  std::string zoo_dir = "./zoo";
  std::uint64_t seed = 7;
  int snapshot_every = 0;
  long long halt_after_iters = 0;

  /// Scale a step/episode budget, clamped to at least `min_value`.
  int scaled(int base, int min_value = 1) const;

  static BenchConfig from_env();
};

/// Read a double env var with default.
double env_double(const char* name, double fallback);

/// Read a positive int env var: the whole value must be a base-10 integer in
/// [1, INT_MAX]; anything else (unset, empty, trailing garbage, zero,
/// negative, out of range) yields `fallback`.
int env_positive_int(const char* name, int fallback);

/// Read a string env var with default.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace imap
