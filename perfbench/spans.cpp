#include "spans.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

/// Distinguishes logs for the per-thread buffer cache, so a log created at
/// the address of a destroyed one never inherits its stale buffer pointer.
std::atomic<std::uint64_t> g_next_generation{1};

}  // namespace

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::string Span::layer() const {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

SpanLog::SpanLog()
    : generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)),
      origin_ns_(now_ns()) {}

SpanLog::Buffer& SpanLog::local() {
  thread_local std::uint64_t cached_generation = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    cached = buffers_.back().get();
    cached_generation = generation_;
  }
  return *cached;
}

void SpanLog::record(const Span& span) {
  Buffer& buffer = local();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<Span> SpanLog::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  std::vector<Span> out;
  out.reserve(total);
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    // Release the memory too: most buffers belong to issuer threads that
    // have already exited and will never record again.
    std::vector<Span>().swap(buffer->spans);
  }
  for (const Span& span : out) {
    if (span.id != 0) {
      kept_.push_back(span);
    } else if (kept_leaves_ < kKeptLeaves) {
      kept_.push_back(span);
      ++kept_leaves_;
    }
  }
  return out;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  bool first = true;
  for (const Span& span : kept_) {
    const double ts_us =
        (static_cast<double>(span.start_ns) - static_cast<double>(origin_ns_)) / 1e3;
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"arg\":%llu}}",
                  first ? "" : ",", span.name, span.thread, ts_us,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.arg));
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent, bool leaf)
    : log_(log) {
  span_.name = name;
  span_.parent = parent;
  if (log_ != nullptr && !leaf) span_.id = log_->new_id();
  span_.start_ns = now_ns();
}

double ScopedSpan::stop() {
  if (!stopped_) {
    span_.end_ns = now_ns();
    stopped_ = true;
    if (log_ != nullptr) log_->record(span_);
  }
  return span_.seconds();
}

std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].emplace_back(span.start_ns, span.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    std::uint64_t covered = 0;
    const auto it = span.id == 0 ? children.end() : children.find(span.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t lo = 0, hi = 0;
      bool open = false;
      for (auto [child_lo, child_hi] : intervals) {
        child_lo = std::max(child_lo, span.start_ns);
        child_hi = std::min(child_hi, span.end_ns);
        if (child_hi <= child_lo) continue;
        if (open && child_lo <= hi) {
          hi = std::max(hi, child_hi);
          continue;
        }
        if (open) covered += hi - lo;
        lo = child_lo;
        hi = child_hi;
        open = true;
      }
      if (open) covered += hi - lo;
    }
    self[span.layer()] += static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
