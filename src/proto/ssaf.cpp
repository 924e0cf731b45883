#include "proto/ssaf.hpp"

#include <utility>

namespace rrnet::proto {

namespace {
FloodingConfig to_flooding_config(const SsafConfig& config) {
  FloodingConfig fc;
  fc.lambda = config.lambda;
  fc.ttl = config.ttl;
  fc.blind = false;
  fc.counter_threshold = config.counter_threshold;
  fc.forward_at_target = config.forward_at_target;
  return fc;
}
}  // namespace

std::shared_ptr<const core::BackoffPolicy> make_ssaf_policy(
    const SsafConfig& config) {
  return std::make_shared<const core::SignalStrengthBackoff>(
      config.lambda, config.jitter_fraction);
}

SsafProtocol::SsafProtocol(net::Node& node, const SsafConfig& config,
                           std::shared_ptr<const core::BackoffPolicy> policy)
    : FloodingProtocol(node, to_flooding_config(config), std::move(policy)) {}

std::unique_ptr<net::Protocol> make_counter1_flooding(net::Node& node,
                                                      des::Time lambda,
                                                      std::uint8_t ttl) {
  FloodingConfig config;
  config.lambda = lambda;
  config.ttl = ttl;
  return std::make_unique<FloodingProtocol>(
      node, config, std::make_unique<core::UniformBackoff>(lambda));
}

std::unique_ptr<net::Protocol> make_ssaf(net::Node& node, SsafConfig config) {
  return std::make_unique<SsafProtocol>(node, config,
                                        make_ssaf_policy(config));
}

}  // namespace rrnet::proto
