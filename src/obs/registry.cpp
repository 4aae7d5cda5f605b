#include "obs/registry.h"

#include <algorithm>
#include <cstdio>

namespace cnet::obs {
namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

void MetricsRegistry::add_gauge(std::string name, std::string unit,
                                std::function<double()> fn) {
  gauges_.push_back({std::move(name), std::move(unit), std::move(fn)});
}

void MetricsRegistry::add_histogram(std::string name, std::string unit,
                                    const LogHistogram* histogram) {
  histograms_.push_back({std::move(name), std::move(unit), histogram});
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const CounterEntry& e : counters_) {
    snap.counters.push_back({e.name, e.unit, e.value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const GaugeEntry& e : gauges_) {
    snap.gauges.push_back({e.name, e.unit, e.fn()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const HistogramEntry& e : histograms_) {
    snap.histograms.push_back({e.name, e.unit, e.histogram->snapshot()});
  }
  return snap;
}

std::string Snapshot::to_text() const {
  std::string out;
  char line[256];
  std::size_t name_width = 0;
  for (const CounterSample& c : counters) name_width = std::max(name_width, c.name.size());
  for (const GaugeSample& g : gauges) name_width = std::max(name_width, g.name.size());
  for (const CounterSample& c : counters) {
    std::snprintf(line, sizeof(line), "%-*s %14llu %s\n", static_cast<int>(name_width),
                  c.name.c_str(), static_cast<unsigned long long>(c.value), c.unit.c_str());
    out += line;
  }
  for (const GaugeSample& g : gauges) {
    std::snprintf(line, sizeof(line), "%-*s %14.3f %s\n", static_cast<int>(name_width),
                  g.name.c_str(), g.value, g.unit.c_str());
    out += line;
  }
  for (const HistogramSample& h : histograms) {
    std::snprintf(line, sizeof(line),
                  "%s (%s): total %llu, p50 %.0f, p90 %.0f, p99 %.0f\n", h.name.c_str(),
                  h.unit.c_str(), static_cast<unsigned long long>(h.histogram.total),
                  h.histogram.quantile(0.5), h.histogram.quantile(0.9),
                  h.histogram.quantile(0.99));
    out += line;
    out += h.histogram.ascii();
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "{\"counters\":{";
  char buf[128];
  bool first = true;
  for (const CounterSample& c : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, c.name);
    std::snprintf(buf, sizeof(buf), "\":%llu", static_cast<unsigned long long>(c.value));
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSample& g : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, g.name);
    std::snprintf(buf, sizeof(buf), "\":%.6g", g.value);
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSample& h : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, h.name);
    std::snprintf(buf, sizeof(buf), "\":{\"total\":%llu,\"p50\":%.6g,\"p90\":%.6g,\"p99\":%.6g,\"buckets\":[",
                  static_cast<unsigned long long>(h.histogram.total),
                  h.histogram.quantile(0.5), h.histogram.quantile(0.9),
                  h.histogram.quantile(0.99));
    out += buf;
    bool first_bucket = true;
    for (std::uint32_t b = 0; b < h.histogram.buckets.size(); ++b) {
      if (h.histogram.buckets[b] == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s[%llu,%llu]", first_bucket ? "" : ",",
                    static_cast<unsigned long long>(HistogramSnapshot::bucket_lo(b)),
                    static_cast<unsigned long long>(h.histogram.buckets[b]));
      out += buf;
      first_bucket = false;
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace cnet::obs
