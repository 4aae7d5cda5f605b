#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "util/assert.h"

namespace cnet::obs {
namespace {

const char* phase_name(TracePhase phase) {
  switch (phase) {
    case TracePhase::kHop: return "balancer";
    case TracePhase::kOp: return "op";
  }
  return "?";
}

}  // namespace

void TraceRing::enable(std::uint32_t capacity_per_shard) {
  CNET_CHECK_MSG(rings_ == nullptr, "TraceRing enabled twice");
  CNET_CHECK(capacity_per_shard > 0);
  const std::uint32_t capacity = std::bit_ceil(capacity_per_shard);
  mask_ = capacity - 1;
  rings_ = std::make_unique<Ring[]>(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    rings_[s].events = std::make_unique<TraceEvent[]>(capacity);
  }
}

std::uint64_t TraceRing::size() const noexcept {
  if (rings_ == nullptr) return 0;
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    total += std::min<std::uint64_t>(rings_[s].next.load(std::memory_order_relaxed),
                                     std::uint64_t{mask_} + 1);
  }
  return total;
}

std::string TraceRing::dump_chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  const std::uint64_t capacity = std::uint64_t{mask_} + 1;
  for (std::uint32_t s = 0; rings_ != nullptr && s < kShards; ++s) {
    const Ring& ring = rings_[s];
    const std::uint64_t next = ring.next.load(std::memory_order_acquire);
    const std::uint64_t start = next > capacity ? next - capacity : 0;
    for (std::uint64_t i = start; i < next; ++i) {
      const TraceEvent& ev = ring.events[i & mask_];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s %u\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u}}",
                    first ? "" : ",", phase_name(ev.phase), ev.id, ev.track,
                    static_cast<double>(ev.ts) / 1000.0,
                    static_cast<double>(ev.dur) / 1000.0, ev.id);
      out += buf;
      first = false;
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace cnet::obs
