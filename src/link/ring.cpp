#include "link/ring.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <new>
#include <thread>

#include "util/fence.h"

namespace cnet::link {
namespace {

std::uint64_t align_up(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) & ~(align - 1);
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = "link::Ring: " + why;
  return false;
}

// Payload words move through relaxed atomic accesses (not memcpy): an
// unreliable consumer can race a chunk overwrite by design, and the race
// must be benign under the memory model — the post-copy seq check discards
// the torn snapshot — rather than formally undefined (and TSan-flagged).
void copy_words_in(std::uint64_t* dst, const void* src, std::uint32_t sz) {
  const auto* bytes = static_cast<const std::byte*>(src);
  for (std::uint32_t i = 0; i * 8 < sz; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + i * 8, std::min<std::uint32_t>(8, sz - i * 8));
    std::atomic_ref<std::uint64_t>(dst[i]).store(w, std::memory_order_relaxed);
  }
}

void copy_words_out(void* dst, const std::uint64_t* src, std::uint32_t sz) {
  auto* bytes = static_cast<std::byte*>(dst);
  for (std::uint32_t i = 0; i * 8 < sz; ++i) {
    const std::uint64_t w = std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(src[i]))
                                .load(std::memory_order_relaxed);
    std::memcpy(bytes + i * 8, &w, std::min<std::uint32_t>(8, sz - i * 8));
  }
}

}  // namespace

struct alignas(64) Ring::Header {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t depth = 0;
  std::uint32_t burst = 0;
  std::uint32_t consumers = 0;
  std::uint32_t mtu = 0;
  std::uint32_t reliable_mask = 0;
  /// Next seq to publish. Producer-owned; consumers read it only to resync
  /// after an overrun, the restarted producer to recover its cursor.
  std::atomic<std::uint64_t> pub_seq{0};
};

/// One mcache line. sig/sz/ctl are relaxed atomics, not plain fields: a
/// lapped consumer may read them while the producer overwrites the slot,
/// and the seq re-check (not field-level ordering) rejects the snapshot.
struct alignas(64) Ring::FragMeta {
  std::atomic<std::uint64_t> seq;
  std::atomic<std::uint64_t> sig;
  std::atomic<std::uint32_t> sz;
  std::atomic<std::uint32_t> ctl;
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
  if (o.consumers == 0 || o.consumers > kMaxConsumers) {
    return fail(error, "consumers " + std::to_string(o.consumers) + " must be in [1, " +
                           std::to_string(kMaxConsumers) + "]");
  }
  if (o.mtu == 0 || o.mtu > kMaxMtu) {
    return fail(error, "mtu " + std::to_string(o.mtu) + " must be in [1, " +
                           std::to_string(kMaxMtu) + "]");
  }
  return true;
}

std::uint64_t Ring::footprint(const RingOptions& o) {
  if (!validate(o, nullptr)) return 0;
  const std::uint64_t stride = align_up(o.mtu, 64);
  return align_up(sizeof(Header), 64) + std::uint64_t{o.depth} * sizeof(FragMeta) +
         std::uint64_t{o.consumers} * sizeof(CreditLine) + 2 * std::uint64_t{o.depth} * stride;
}

void Ring::wire(void* mem, std::uint32_t depth, std::uint32_t consumers, std::uint32_t mtu) {
  auto* bytes = static_cast<std::byte*>(mem);
  hdr_ = reinterpret_cast<Header*>(bytes);
  bytes += align_up(sizeof(Header), 64);
  meta_ = reinterpret_cast<FragMeta*>(bytes);
  bytes += std::uint64_t{depth} * sizeof(FragMeta);
  credits_ = reinterpret_cast<CreditLine*>(bytes);
  bytes += std::uint64_t{consumers} * sizeof(CreditLine);
  dcache_ = reinterpret_cast<std::uint64_t*>(bytes);
  mask_ = depth - 1;
  dmask_ = 2 * depth - 1;
  stride_words_ = static_cast<std::uint32_t>(align_up(mtu, 64) / 8);
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
  fmt.wire(mem, o.depth, o.consumers, o.mtu);
  Header* hdr = new (fmt.hdr_) Header();
  hdr->version = kRingVersion;
  hdr->depth = o.depth;
  hdr->burst = o.burst;
  hdr->consumers = o.consumers;
  hdr->mtu = o.mtu;
  hdr->reliable_mask = o.reliable_mask & ((1u << o.consumers) - 1);  // consumers <= 16
  for (std::uint32_t i = 0; i < o.depth; ++i) {
    auto* m = new (&fmt.meta_[i]) FragMeta();
    // i - depth (wrapping): "one full lap before seq 0", so the signed
    // diff against any wanted seq is negative until the slot publishes.
    m->seq.store(std::uint64_t{i} - o.depth, std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < o.consumers; ++i) new (&fmt.credits_[i]) CreditLine();
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
  RingOptions o;
  o.depth = hdr->depth;
  o.burst = hdr->burst;
  o.consumers = hdr->consumers;
  o.mtu = hdr->mtu;
  o.reliable_mask = hdr->reliable_mask;
  if (!validate(o, error)) return false;
  if (size < footprint(o)) {
    return fail(error, "region of " + std::to_string(size) +
                           " bytes is truncated for its declared geometry");
  }

  out->wire(mem, o.depth, o.consumers, o.mtu);
  out->credit_floor_ = out->min_reliable_consumed();
  return true;
}

std::uint32_t Ring::depth() const { return hdr_->depth; }
std::uint32_t Ring::burst() const { return hdr_->burst; }
std::uint32_t Ring::consumers() const { return hdr_->consumers; }
std::uint32_t Ring::mtu() const { return hdr_->mtu; }
bool Ring::reliable(std::uint32_t consumer) const {
  return (hdr_->reliable_mask >> consumer) & 1u;
}

std::uint64_t Ring::producer_seq() const {
  return hdr_->pub_seq.load(std::memory_order_acquire);
}

std::uint64_t Ring::consumed_seq(std::uint32_t index) const {
  return credits_[index].consumed.load(std::memory_order_acquire);
}

std::uint64_t Ring::min_reliable_consumed() const {
  std::uint64_t floor = hdr_->pub_seq.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < hdr_->consumers; ++i) {
    if (!reliable(i)) continue;
    const std::uint64_t c = credits_[i].consumed.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(c - floor) < 0) floor = c;
  }
  return floor;
}

void Ring::resync_producer() {
  std::uint64_t s = hdr_->pub_seq.load(std::memory_order_acquire);
  // The crash window between a slot's seq release-store and the pub_seq
  // bump is at most one frag wide, but scanning forward is cheap and makes
  // no assumptions.
  while (meta_[s & mask_].seq.load(std::memory_order_acquire) == s) ++s;
  hdr_->pub_seq.store(s, std::memory_order_release);
  credit_floor_ = min_reliable_consumed();
}

Ring::Send Ring::try_send(std::uint64_t sig, const void* payload, std::uint32_t sz,
                          std::uint32_t ctl) {
  if (sz > hdr_->mtu) return Send::kTooBig;
  const std::uint64_t s = hdr_->pub_seq.load(std::memory_order_relaxed);
  if (hdr_->reliable_mask != 0 &&
      s - credit_floor_ >= std::uint64_t{hdr_->depth} - hdr_->burst) {
    credit_floor_ = min_reliable_consumed();
    if (s - credit_floor_ >= std::uint64_t{hdr_->depth} - hdr_->burst) return Send::kNoCredit;
  }

  FragMeta& m = meta_[s & mask_];
  // Seqlock-shaped publish. The in-progress marker s-1 cannot be mistaken
  // for a published frag of this slot (s-1 maps elsewhere): a reader
  // wanting s-depth sees diff > 0 (overrun), one wanting s sees diff < 0
  // (not yet). The release fence pairs with the consumer's post-copy
  // acquire fence: any consumer that observed a payload/field store from
  // this generation is guaranteed to observe at least the marker on its
  // seq re-check, so a torn snapshot can never validate. (TSan cannot see
  // the pair; every word moves through a relaxed atomic regardless.)
  m.seq.store(s - 1, std::memory_order_relaxed);
  tsan_blind_fence(std::memory_order_release);
  if (sz != 0) copy_words_in(dcache_ + std::uint64_t{s & dmask_} * stride_words_, payload, sz);
  m.sig.store(sig, std::memory_order_relaxed);
  m.sz.store(sz, std::memory_order_relaxed);
  m.ctl.store(ctl, std::memory_order_relaxed);
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

Consumer Ring::consumer(std::uint32_t index) {
  Consumer c;
  c.ring_ = this;
  c.index_ = index;
  c.seq_ = credits_[index].consumed.load(std::memory_order_acquire);
  return c;
}

Consumer::Poll Consumer::poll(Frag* out) {
  Ring::FragMeta& m = ring_->meta_[seq_ & ring_->mask_];
  const std::uint64_t q = m.seq.load(std::memory_order_acquire);
  const auto diff = static_cast<std::int64_t>(q - seq_);
  if (diff < 0) return Poll::kEmpty;
  if (diff > 0) {
    // Lapped. q is either the published seq now in this slot (q ≡ seq_ mod
    // depth) or the next generation's in-progress marker (q+1 ≡ seq_):
    // resume at the oldest frag this slot can still deliver.
    const std::uint64_t resume = ((q & ring_->mask_) == (seq_ & ring_->mask_)) ? q : q + 1;
    skipped_ += resume - seq_;
    seq_ = resume;
    ++overruns_;
    ring_->credits_[index_].consumed.store(seq_, std::memory_order_release);
    return Poll::kOverrun;
  }
  out->seq = seq_;
  out->sig = m.sig.load(std::memory_order_relaxed);
  out->sz = std::min(m.sz.load(std::memory_order_relaxed), ring_->hdr_->mtu);
  out->ctl = m.ctl.load(std::memory_order_relaxed);
  out->data = ring_->dcache_ + std::uint64_t{seq_ & ring_->dmask_} * ring_->stride_words_;
  return Poll::kFrag;
}

bool Consumer::check(const Frag& frag) const {
  tsan_blind_fence(std::memory_order_acquire);
  return ring_->meta_[frag.seq & ring_->mask_].seq.load(std::memory_order_relaxed) ==
         frag.seq;
}

Consumer::Poll Consumer::read(Frag* meta, void* dst, std::uint32_t cap) {
  Frag f;
  const Poll st = poll(&f);
  if (st != Poll::kFrag) return st;
  const std::uint32_t n = std::min(f.sz, cap);
  if (n != 0) copy_words_out(dst, static_cast<const std::uint64_t*>(f.data), n);
  if (!check(f)) {
    ++overruns_;
    return Poll::kOverrun;  // cursor unmoved; the next poll resyncs
  }
  *meta = f;
  meta->sz = n;
  meta->data = nullptr;
  return Poll::kFrag;
}

void Consumer::advance() {
  ++seq_;
  ring_->credits_[index_].consumed.store(seq_, std::memory_order_release);
}

}  // namespace cnet::link
