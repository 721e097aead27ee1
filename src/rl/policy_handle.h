#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/gaussian.h"
#include "nn/quant.h"
#include "rl/evaluate.h"

namespace imap::rl {

/// A frozen deployed policy, as handed to the threat-model wrappers and the
/// evaluation harness. Two shapes, one call surface:
///
///  * an opaque ActionFn — the fully black-box case; answerable only one
///    observation at a time;
///  * a snapshot of a GaussianPolicy network, which additionally answers
///    batched mean queries through a caller-owned workspace (query_batch) —
///    the serving daemon's coalesced path.
///
/// Both implicit constructors are intentional: every pre-existing ActionFn
/// call site keeps compiling, and network-backed handles need no signature
/// churn. A network-backed handle answers query(obs) as row 0 of
/// query_batch on a thread_local one-row batch and workspace, so the one
/// per-step victim query of a rollout runs the batched kernels on cached
/// weight transposes, and is bit-identical to the network's mean_action
/// (Mlp::forward) — hence to an ActionFn wrapping it. One handle may be
/// queried from any number of threads at once.
///
/// Serving mode is fixed at construction: when victim quantization is on
/// (IMAP_VICTIM_QUANT=1 or a ScopedVictimQuant scope, see nn/quant.h), a
/// network-backed handle builds an int8 QuantizedMlp once and answers BOTH
/// query() and query_batch() through it, so the int8 and fp64 modes share
/// the one code path. Training-side code never constructs handles under the
/// toggle, so attacker/defender updates stay fp64 bit-exact.
class PolicyHandle {
 public:
  PolicyHandle() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  PolicyHandle(ActionFn fn) : fn_(std::move(fn)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  PolicyHandle(std::shared_ptr<const nn::GaussianPolicy> net);

  /// Deep-copied frozen snapshot of `policy`: training can continue on the
  /// original while the handle keeps serving the captured parameters.
  static PolicyHandle snapshot(const nn::GaussianPolicy& policy);

  /// Explicit serving-mode handle: `quantized` selects the int8 path
  /// directly instead of consulting the process-wide IMAP_VICTIM_QUANT
  /// toggle. This is what the serving daemon uses — its model cache builds
  /// handles from request-handler threads, where flipping the global toggle
  /// (documented single-threaded) would race with any training job that
  /// constructs fp64 handles concurrently.
  static PolicyHandle serving(std::shared_ptr<const nn::GaussianPolicy> net,
                              bool quantized);

  explicit operator bool() const { return net_ != nullptr || fn_ != nullptr; }

  /// True when the handle exposes a network and so supports query_batch.
  bool batched() const { return net_ != nullptr; }

  /// True when this handle serves through the int8 quantized path.
  bool quantized() const { return qnet_ != nullptr; }

  /// Network I/O widths (0 for opaque-function handles, which carry no
  /// shape). The serving layer validates request rows against these before
  /// a malformed observation can reach a kernel.
  std::size_t obs_dim() const { return net_ ? net_->obs_dim() : 0; }
  std::size_t act_dim() const { return net_ ? net_->act_dim() : 0; }

  /// Per-sample query (the deterministic mean for network-backed handles;
  /// the quantized mean when the handle was built under the quant toggle):
  /// row 0 of query_batch on a thread_local one-row batch.
  std::vector<double> query(const std::vector<double>& obs) const;
  std::vector<double> operator()(const std::vector<double>& obs) const {
    return query(obs);
  }

  /// Batched mean query through a caller-owned workspace. Each output row is
  /// bit-identical to query() on that row — in fp64 and quantized modes
  /// alike. Requires batched(); the returned reference lives in `ws` until
  /// the next batched call on it.
  const nn::Batch& query_batch(const nn::Batch& obs,
                               nn::Mlp::Workspace& ws) const;

 private:
  ActionFn fn_;
  std::shared_ptr<const nn::GaussianPolicy> net_;
  std::shared_ptr<const nn::QuantizedMlp> qnet_;
};

/// Deep-copied frozen snapshot of `policy` as an opaque deterministic
/// ActionFn (its mean action) — how trained adversaries are exported for
/// evaluation; training can continue on the original.
ActionFn frozen_mean(const nn::GaussianPolicy& policy);

}  // namespace imap::rl
