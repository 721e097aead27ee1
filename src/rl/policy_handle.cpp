#include "rl/policy_handle.h"

#include "common/check.h"

namespace imap::rl {

PolicyHandle::PolicyHandle(std::shared_ptr<const nn::GaussianPolicy> net)
    : net_(std::move(net)) {
  // Serving mode is decided here, once: the quantization is built from the
  // frozen weights at handle-construction time and never refreshed (the
  // handle's whole contract is that the victim does not change). Training
  // code paths never construct handles with the toggle on.
  if (net_ != nullptr && nn::victim_quant_enabled())
    qnet_ = std::make_shared<const nn::QuantizedMlp>(net_->net());
}

PolicyHandle PolicyHandle::snapshot(const nn::GaussianPolicy& policy) {
  return PolicyHandle(std::make_shared<const nn::GaussianPolicy>(policy));
}

PolicyHandle PolicyHandle::serving(
    std::shared_ptr<const nn::GaussianPolicy> net, bool quantized) {
  IMAP_CHECK_MSG(net != nullptr, "serving handle needs a network");
  PolicyHandle h;
  h.net_ = std::move(net);
  if (quantized)
    h.qnet_ = std::make_shared<const nn::QuantizedMlp>(h.net_->net());
  return h;
}

ActionFn frozen_mean(const nn::GaussianPolicy& policy) {
  auto snapshot = std::make_shared<const nn::GaussianPolicy>(policy);
  return [snapshot](const std::vector<double>& obs) {
    return snapshot->mean_action(obs);
  };
}

std::vector<double> PolicyHandle::query(const std::vector<double>& obs) const {
  if (!net_) return fn_(obs);
  // One per thread, shared by every handle it queries: the transpose cache
  // is keyed by network and weight version, so switching handles is safe.
  thread_local struct {
    nn::Mlp::Workspace ws;
    nn::Batch x;
  } one_row;
  one_row.x.resize(1, obs.size());
  one_row.x.set_row(0, obs);
  const nn::Batch& y = query_batch(one_row.x, one_row.ws);
  return std::vector<double>(y.row(0), y.row(0) + y.dim());
}

const nn::Batch& PolicyHandle::query_batch(const nn::Batch& obs,
                                           nn::Mlp::Workspace& ws) const {
  IMAP_CHECK_MSG(net_ != nullptr, "query_batch on a non-batchable handle");
  if (qnet_) return qnet_->forward_batch(obs, ws);
  return net_->mean_batch(obs, ws);
}

}  // namespace imap::rl
