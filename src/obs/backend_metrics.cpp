#include "obs/backend_metrics.h"

#include <bit>

#include "util/assert.h"

namespace cnet::obs {

void CounterMetrics::attach() {
  CNET_CHECK_MSG(!attached_, "an obs::CounterMetrics observes one executor in its lifetime");
  CNET_CHECK_MSG(std::has_single_bit(sample_period), "sample_period must be a power of two");
  sample_mask_ = sample_period - 1;
  attached_ = true;
}

void CounterMetrics::register_into(MetricsRegistry& registry,
                                   const std::string& prefix) const {
  registry.add_counter(prefix + "tokens", "tokens", &tokens);
  registry.add_counter(prefix + "batch_calls", "calls", &batch_calls);
  registry.add_counter(prefix + "sampled", "tokens", &sampled);
  registry.add_gauge(prefix + "c2c1_estimate", "ratio", [this] { return c2c1_estimate(); });
  registry.add_histogram(prefix + "token_latency", "ns", &token_latency_ns);
  registry.add_histogram(prefix + "hop_latency", "ns", &hop_latency_ns);
}

void MpMetrics::attach() {
  CNET_CHECK_MSG(!attached_, "an obs::MpMetrics observes one service in its lifetime");
  attached_ = true;
}

void MpMetrics::register_into(MetricsRegistry& registry, const std::string& prefix) const {
  registry.add_counter(prefix + "tokens", "tokens", &tokens);
  registry.add_counter(prefix + "node_visits", "tokens", &node_visits);
  registry.add_counter(prefix + "counter_visits", "tokens", &counter_visits);
  registry.add_histogram(prefix + "count_latency", "ns", &count_latency_ns);
  registry.add_histogram(prefix + "queue_depth", "messages", &queue_depth);
}

void PsimMetrics::register_into(MetricsRegistry& registry, const std::string& prefix) const {
  registry.add_counter(prefix + "ops", "ops", &ops);
  registry.add_counter(prefix + "toggles", "transitions", &toggles);
  registry.add_counter(prefix + "diffractions", "pairings", &diffractions);
  registry.add_counter(prefix + "events", "events", &events);
  registry.add_gauge(prefix + "c2c1_estimate", "ratio", [this] { return c2c1_estimate(); });
  registry.add_histogram(prefix + "op_latency", "cycles", &op_latency_cycles);
  registry.add_histogram(prefix + "hop_latency", "cycles", &hop_latency_cycles);
}

}  // namespace cnet::obs
