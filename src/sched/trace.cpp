#include "sched/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

namespace cnet::sched {
namespace {

constexpr char kMagic[8] = {'C', 'N', 'E', 'T', 'T', 'R', 'C', 'E'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4 + 4 + 8;
constexpr std::size_t kTokenMinBytes = 4 + 4 + 8 + 4;  // actor, input, value, hop_count
constexpr std::size_t kHopBytes = 4 + 4 + 8;           // node, port, stall_ns

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Bounds-checked little-endian reader over the raw buffer.
struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  bool take_u32(std::uint32_t* v) {
    if (left < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return true;
  }

  bool take_u64(std::uint64_t* v) {
    if (left < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return true;
  }

  bool take_string(std::size_t n, std::string* out) {
    if (left < n) return false;
    out->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
};

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

std::vector<std::uint8_t> Trace::serialize() const {
  std::size_t bytes = kHeaderBytes + spec.size() + workload.size();
  for (const TokenRecord& tok : tokens) bytes += kTokenMinBytes + tok.hops.size() * kHopBytes;
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof(kMagic));
  out.reserve(bytes);
  put_u32(&out, kVersion);
  put_u32(&out, 0);  // reserved
  put_u32(&out, static_cast<std::uint32_t>(spec.size()));
  put_u32(&out, static_cast<std::uint32_t>(workload.size()));
  put_u64(&out, tokens.size());
  out.insert(out.end(), spec.begin(), spec.end());
  out.insert(out.end(), workload.begin(), workload.end());
  for (const TokenRecord& tok : tokens) {
    put_u32(&out, tok.actor);
    put_u32(&out, tok.input);
    put_u64(&out, tok.value);
    put_u32(&out, static_cast<std::uint32_t>(tok.hops.size()));
    for (const HopEvent& hop : tok.hops) {
      put_u32(&out, hop.node);
      put_u32(&out, hop.port);
      put_u64(&out, hop.stall_ns);
    }
  }
  return out;
}

bool Trace::deserialize(const void* data, std::size_t size, Trace* out, std::string* error) {
  if (size < kHeaderBytes) {
    return fail(error, "trace header truncated: need " + std::to_string(kHeaderBytes) +
                           " bytes, got " + std::to_string(size));
  }
  Cursor c{static_cast<const std::uint8_t*>(data), size};
  if (std::memcmp(c.p, kMagic, sizeof(kMagic)) != 0) {
    return fail(error, "trace magic mismatch: expected \"CNETTRCE\", got \"" +
                           std::string(reinterpret_cast<const char*>(c.p), 8) + "\"");
  }
  c.p += sizeof(kMagic);
  c.left -= sizeof(kMagic);

  std::uint32_t version = 0;
  std::uint32_t reserved = 0;
  std::uint32_t spec_len = 0;
  std::uint32_t workload_len = 0;
  std::uint64_t token_count = 0;
  c.take_u32(&version);
  c.take_u32(&reserved);
  c.take_u32(&spec_len);
  c.take_u32(&workload_len);
  c.take_u64(&token_count);
  if (version != kVersion) {
    return fail(error, "trace version unsupported: expected " + std::to_string(kVersion) +
                           ", got " + std::to_string(version));
  }
  if (spec_len > c.left) {
    return fail(error, "trace spec length " + std::to_string(spec_len) +
                           " overruns the file (" + std::to_string(c.left) + " bytes left)");
  }
  Trace trace;
  c.take_string(spec_len, &trace.spec);
  if (workload_len > c.left) {
    return fail(error, "trace workload length " + std::to_string(workload_len) +
                           " overruns the file (" + std::to_string(c.left) + " bytes left)");
  }
  c.take_string(workload_len, &trace.workload);
  if (token_count > c.left / kTokenMinBytes) {
    return fail(error, "trace token count " + std::to_string(token_count) +
                           " overruns the file (" + std::to_string(c.left) + " bytes left)");
  }
  trace.tokens.reserve(static_cast<std::size_t>(token_count));
  for (std::uint64_t i = 0; i < token_count; ++i) {
    TokenRecord tok;
    std::uint32_t hop_count = 0;
    if (!c.take_u32(&tok.actor) || !c.take_u32(&tok.input) || !c.take_u64(&tok.value) ||
        !c.take_u32(&hop_count)) {
      return fail(error, "trace token " + std::to_string(i) + " truncated (" +
                             std::to_string(c.left) + " bytes left)");
    }
    if (hop_count > c.left / kHopBytes) {
      return fail(error, "trace token " + std::to_string(i) + " hop count " +
                             std::to_string(hop_count) + " overruns the file (" +
                             std::to_string(c.left) + " bytes left)");
    }
    tok.hops.reserve(hop_count);
    for (std::uint32_t h = 0; h < hop_count; ++h) {
      HopEvent hop;
      c.take_u32(&hop.node);
      c.take_u32(&hop.port);
      c.take_u64(&hop.stall_ns);
      tok.hops.push_back(hop);
    }
    trace.tokens.push_back(std::move(tok));
  }
  if (c.left != 0) {
    return fail(error, "trace has " + std::to_string(c.left) +
                           " trailing bytes after the last token");
  }
  *out = std::move(trace);
  return true;
}

bool Trace::save(const std::string& path, std::string* error) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return fail(error, "trace save: cannot open '" + path + "' for writing");
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) return fail(error, "trace save: short write to '" + path + "'");
  return true;
}

bool Trace::load(const std::string& path, Trace* out, std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return fail(error, "trace load: cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
  if (file.bad()) return fail(error, "trace load: read error on '" + path + "'");
  return deserialize(bytes.data(), bytes.size(), out, error);
}

void Recorder::issue(const void* token, std::uint32_t input) {
  const std::scoped_lock lock(mutex_);
  TokenRecord& rec = open_[token];
  rec = TokenRecord{};
  rec.input = input;
}

void Recorder::hop(const void* token, std::uint32_t node, std::uint32_t port,
                   std::uint64_t stall_ns) {
  const std::scoped_lock lock(mutex_);
  const auto it = open_.find(token);
  if (it == open_.end()) return;
  it->second.hops.push_back(HopEvent{node, port, stall_ns});
}

void Recorder::commit(const void* token, std::uint64_t value) {
  const std::scoped_lock lock(mutex_);
  const auto it = open_.find(token);
  if (it == open_.end()) return;
  it->second.value = value;
  done_.push_back(std::move(it->second));
  open_.erase(it);
}

std::size_t Recorder::committed() const {
  const std::scoped_lock lock(mutex_);
  return done_.size();
}

Trace Recorder::finish(const lin::History& history, std::string spec, std::string workload) {
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, double>> by_value;
  by_value.reserve(history.size());
  for (const lin::Operation& op : history) {
    by_value.emplace(op.value, std::make_pair(op.actor, op.start));
  }

  struct Keyed {
    double start;
    TokenRecord rec;
  };
  std::vector<Keyed> keyed;
  {
    const std::scoped_lock lock(mutex_);
    keyed.reserve(done_.size());
    for (TokenRecord& rec : done_) {
      double start = std::numeric_limits<double>::infinity();
      if (const auto it = by_value.find(rec.value); it != by_value.end()) {
        rec.actor = it->second.first;
        start = it->second.second;
      }
      keyed.push_back(Keyed{start, std::move(rec)});
    }
    done_.clear();
    open_.clear();
  }
  // kNoActor sorts last (it is the max uint32); within an actor the history
  // start time is the program order, with the unique value as tiebreak so
  // the result is a total order independent of capture interleaving.
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.rec.actor != b.rec.actor) return a.rec.actor < b.rec.actor;
    if (a.start != b.start) return a.start < b.start;
    return a.rec.value < b.rec.value;
  });

  Trace trace;
  trace.spec = std::move(spec);
  trace.workload = std::move(workload);
  trace.tokens.reserve(keyed.size());
  for (Keyed& k : keyed) trace.tokens.push_back(std::move(k.rec));
  return trace;
}

}  // namespace cnet::sched
