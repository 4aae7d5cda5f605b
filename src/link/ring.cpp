#include "link/ring.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <new>
#include <thread>

namespace cnet::link {
namespace {

std::uint64_t align_up(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) & ~(align - 1);
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = "link::Ring: " + why;
  return false;
}

}  // namespace

struct alignas(64) Ring::Header {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t depth = 0;
  std::uint32_t burst = 0;
  std::uint32_t mtu = 0;
  /// Next seq to publish. Producer-owned; a restarted producer recovers its
  /// cursor from it.
  std::atomic<std::uint64_t> pub_seq{0};
};

/// One mcache line. sig/sz/ctl are plain fields: the seq release-store
/// publishes them, and the credit line keeps the producer off a slot the
/// consumer may still be reading.
struct alignas(64) Ring::FragMeta {
  std::atomic<std::uint64_t> seq;
  std::uint64_t sig = 0;
  std::uint32_t sz = 0;
  std::uint32_t ctl = 0;
};

struct alignas(64) Ring::CreditLine {
  std::atomic<std::uint64_t> consumed{0};
};

bool Ring::validate(const RingOptions& o, std::string* error) {
  if (o.depth < kMinDepth || o.depth > kMaxDepth || (o.depth & (o.depth - 1)) != 0) {
    return fail(error, "depth " + std::to_string(o.depth) + " must be a power of two in [" +
                           std::to_string(kMinDepth) + ", " + std::to_string(kMaxDepth) + "]");
  }
  if (o.burst == 0 || o.burst >= o.depth) {
    return fail(error, "burst " + std::to_string(o.burst) + " must be in [1, depth) = [1, " +
                           std::to_string(o.depth) + ")");
  }
  if (o.mtu == 0 || o.mtu > kMaxMtu) {
    return fail(error, "mtu " + std::to_string(o.mtu) + " must be in [1, " +
                           std::to_string(kMaxMtu) + "]");
  }
  return true;
}

std::uint64_t Ring::footprint(const RingOptions& o) {
  if (!validate(o, nullptr)) return 0;
  return sizeof(Header) + sizeof(CreditLine) +
         std::uint64_t{o.depth} * (sizeof(FragMeta) + align_up(o.mtu, 64));
}

void Ring::wire(void* mem, std::uint32_t depth, std::uint32_t mtu) {
  auto* bytes = static_cast<std::byte*>(mem);
  hdr_ = reinterpret_cast<Header*>(bytes);
  meta_ = reinterpret_cast<FragMeta*>(bytes + sizeof(Header));
  // The credit line sits past the meta slots, away from the header line the
  // producer writes on every send.
  credit_ = reinterpret_cast<CreditLine*>(meta_ + depth);
  dcache_ = reinterpret_cast<std::byte*>(credit_ + 1);
  mask_ = depth - 1;
  stride_ = static_cast<std::uint32_t>(align_up(mtu, 64));
}

std::byte* Ring::chunk(std::uint64_t seq) const {
  return dcache_ + std::uint64_t{seq & mask_} * stride_;
}

bool Ring::create(void* mem, std::uint64_t size, const RingOptions& o, Ring* out,
                  std::string* error) {
  static_assert(sizeof(Header) == 64 && sizeof(FragMeta) == 64 && sizeof(CreditLine) == 64);
  if (!validate(o, error)) return false;
  if (mem == nullptr || (reinterpret_cast<std::uintptr_t>(mem) & (align() - 1)) != 0) {
    return fail(error, "region must be non-null and 64-byte aligned");
  }
  const std::uint64_t need = footprint(o);
  if (size < need) {
    return fail(error, "region of " + std::to_string(size) + " bytes cannot hold a ring of " +
                           std::to_string(need));
  }

  Ring fmt;
  fmt.wire(mem, o.depth, o.mtu);
  Header* hdr = new (fmt.hdr_) Header();
  hdr->version = kRingVersion;
  hdr->depth = o.depth;
  hdr->burst = o.burst;
  hdr->mtu = o.mtu;
  new (fmt.credit_) CreditLine();
  for (std::uint32_t i = 0; i < o.depth; ++i) {
    auto* m = new (&fmt.meta_[i]) FragMeta();
    // i - depth (wrapping): "one full lap before seq 0", so the slot never
    // matches a wanted seq until it publishes.
    m->seq.store(std::uint64_t{i} - o.depth, std::memory_order_relaxed);
  }
  // Magic last: an attacher that races creation sees not-a-ring, not a
  // half-formatted one (this release store pairs with attach's acquire load).
  std::atomic_ref<std::uint64_t>(hdr->magic).store(kRingMagic, std::memory_order_release);

  return attach(mem, size, out, error);
}

bool Ring::attach(void* mem, std::uint64_t size, Ring* out, std::string* error) {
  if (mem == nullptr || size < sizeof(Header)) {
    return fail(error, "region too small to hold a ring header");
  }
  auto* hdr = static_cast<Header*>(mem);
  const auto magic = std::atomic_ref<std::uint64_t>(hdr->magic).load(std::memory_order_acquire);
  if (magic != kRingMagic) return fail(error, "bad magic (not a cnet link ring)");
  if (hdr->version != kRingVersion) {
    return fail(error, "version " + std::to_string(hdr->version) + " (this build speaks " +
                           std::to_string(kRingVersion) + ")");
  }
  const RingOptions o{hdr->depth, hdr->burst, hdr->mtu};
  if (!validate(o, error)) return false;
  if (size < footprint(o)) {
    return fail(error, "region of " + std::to_string(size) +
                           " bytes is truncated for its declared geometry");
  }

  out->wire(mem, o.depth, o.mtu);
  out->consumed_ = out->consumed_seq();
  return true;
}

std::uint32_t Ring::depth() const { return hdr_->depth; }
std::uint32_t Ring::burst() const { return hdr_->burst; }
std::uint32_t Ring::mtu() const { return hdr_->mtu; }

std::uint64_t Ring::producer_seq() const {
  return hdr_->pub_seq.load(std::memory_order_acquire);
}

std::uint64_t Ring::consumed_seq() const {
  return credit_->consumed.load(std::memory_order_acquire);
}

void Ring::resync_producer() {
  std::uint64_t s = hdr_->pub_seq.load(std::memory_order_acquire);
  // The crash window between a slot's seq release-store and the pub_seq
  // bump is at most one frag wide, but scanning forward is cheap and makes
  // no assumptions.
  while (meta_[s & mask_].seq.load(std::memory_order_acquire) == s) ++s;
  hdr_->pub_seq.store(s, std::memory_order_release);
  consumed_ = consumed_seq();
}

Ring::Send Ring::try_send(std::uint64_t sig, const void* payload, std::uint32_t sz,
                          std::uint32_t ctl) {
  if (sz > hdr_->mtu) return Send::kTooBig;
  const std::uint64_t s = hdr_->pub_seq.load(std::memory_order_relaxed);
  const std::uint64_t window = std::uint64_t{hdr_->depth} - hdr_->burst;
  if (s - consumed_ >= window) {
    consumed_ = consumed_seq();
    if (s - consumed_ >= window) return Send::kNoCredit;
  }

  // The consumer's credit line is past frag s - depth, the slot's previous
  // tenant, so nobody reads this slot or its chunk while they are rewritten.
  // The seq release-store publishes the payload and fields together.
  FragMeta& m = meta_[s & mask_];
  if (sz != 0) std::memcpy(chunk(s), payload, sz);
  m.sig = sig;
  m.sz = sz;
  m.ctl = ctl;
  m.seq.store(s, std::memory_order_release);
  hdr_->pub_seq.store(s + 1, std::memory_order_release);
  return Send::kOk;
}

bool Ring::send(std::uint64_t sig, const void* payload, std::uint32_t sz, std::uint32_t ctl,
                const std::atomic<std::uint32_t>* stop) {
  std::uint32_t spins = 0;
  while (true) {
    const Send st = try_send(sig, payload, sz, ctl);
    if (st == Send::kOk) return true;
    if (st == Send::kTooBig) return false;
    if (stop != nullptr && stop->load(std::memory_order_acquire) != 0) return false;
    // Credit-starved: back off hard enough that the consumer that owes us
    // credit can run (single-core boxes starve otherwise).
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

Consumer Ring::consumer() {
  Consumer c;
  c.ring_ = this;
  c.seq_ = consumed_seq();
  return c;
}

Consumer::Poll Consumer::poll(Frag* out) {
  const Ring::FragMeta& m = ring_->meta_[seq_ & ring_->mask_];
  if (m.seq.load(std::memory_order_acquire) != seq_) return Poll::kEmpty;
  out->seq = seq_;
  out->sig = m.sig;
  out->sz = std::min(m.sz, ring_->hdr_->mtu);
  out->ctl = m.ctl;
  out->data = ring_->chunk(seq_);
  return Poll::kFrag;
}

Consumer::Poll Consumer::read(Frag* meta, void* dst, std::uint32_t cap) {
  const Poll st = poll(meta);
  if (st != Poll::kFrag) return st;
  meta->sz = std::min(meta->sz, cap);
  if (meta->sz != 0) std::memcpy(dst, meta->data, meta->sz);
  return Poll::kFrag;
}

void Consumer::advance() {
  ++seq_;
  ring_->credit_->consumed.store(seq_, std::memory_order_release);
}

}  // namespace cnet::link
