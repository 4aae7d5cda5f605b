// Credit-based shared-memory SPSC link — the fd_tango mcache/dcache shape
// sized for a shm::Workspace object (docs/DEPLOY.md "Links and pipelined
// deployments").
//
// One Ring is a single-producer, single-consumer frag stream laid out as
// three regions inside one 64-byte-aligned allocation:
//
//   - the frag ring (mcache analogue): `depth` cache-line FragMeta slots,
//     each holding {seq, sig, sz, ctl}. Slot `s & (depth-1)` carries frag
//     seq s; the seq field is published with a release store *after* the
//     payload and the other fields, so a consumer that acquire-loads
//     `slot.seq == wanted` sees the whole frag. Slots start at `i - depth`
//     (one lap before seq 0), so a slot reads "not yet" until it publishes.
//   - the consumer's credit line: it release-stores its consumed seq in a
//     cache line of its own. The producer stalls while
//     `seq - consumed >= depth - burst`, so it rewrites a slot only after
//     the consumer has advanced past the frag that used it before.
//   - the payload region (dcache analogue): `depth` chunks of
//     align_up(mtu, 64) bytes; frag s writes chunk `s & (depth-1)`.
//
// Together the seq publish and the credit line make every read safe: the
// consumer sees frag s only after its seq release-store, and nothing of
// frag s is rewritten before the consumer's credit line has passed it.
//
// Restart story (the deploy layer's crash model): all ring state lives in
// the shared region. A producer that dies mid-publish leaves either an
// unpublished slot (rewritten on restart) or a published slot the stale
// pub_seq cursor has not counted yet — resync_producer() scans forward
// over already-published slots and never rewrites one. A restarted
// consumer resumes from its credit line.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cnet::link {

inline constexpr std::uint64_t kRingMagic = 0x434e45544c4b3031ull;  // "CNETLK01"
inline constexpr std::uint32_t kRingVersion = 2;
inline constexpr std::uint32_t kMinDepth = 2;
inline constexpr std::uint32_t kMaxDepth = 1u << 20;
inline constexpr std::uint32_t kMaxMtu = 1u << 16;

struct RingOptions {
  /// Frag slots; power of two in [kMinDepth, kMaxDepth].
  std::uint32_t depth = 128;
  /// Credit slack: the producer keeps `depth - burst` frags of headroom
  /// over the consumer. In [1, depth).
  std::uint32_t burst = 32;
  /// Max payload bytes per frag, in [1, kMaxMtu]; chunks are padded to 64.
  std::uint32_t mtu = 256;
};

/// One frag as seen by the consumer. `data` points into the shared payload
/// chunk and stays valid until advance(): the producer does not rewrite a
/// slot the credit line has not passed.
struct Frag {
  std::uint64_t seq = 0;
  std::uint64_t sig = 0;
  std::uint32_t sz = 0;
  std::uint32_t ctl = 0;
  const void* data = nullptr;
};

class Ring;

/// The consumer's cursor over one ring: a process-local position, with the
/// consumed watermark persisted in the ring's credit line (so a restarted
/// consumer resumes where its predecessor committed).
class Consumer {
 public:
  enum class Poll : std::uint8_t {
    kFrag,   ///< a frag is visible at seq()
    kEmpty,  ///< nothing published past seq() yet
  };

  Consumer() = default;

  /// Peek at frag seq(). kFrag fills `out` with a view into the shared
  /// region (sz clamped to mtu).
  Poll poll(Frag* out);

  /// Copy-out read: poll, then copy min(sz, cap) payload bytes into `dst`;
  /// `meta->sz` reports the bytes copied.
  Poll read(Frag* meta, void* dst, std::uint32_t cap);

  /// Consume the current frag: step the cursor and release-store it into
  /// the credit line (the producer's flow-control input and the restart
  /// watermark).
  void advance();

  std::uint64_t seq() const { return seq_; }

 private:
  friend class Ring;
  Ring* ring_ = nullptr;
  std::uint64_t seq_ = 0;
};

/// Non-owning view of a ring living in caller memory (a workspace object,
/// a heap buffer in tests). create() formats the region, attach() adopts a
/// formatted one; both validate before touching anything else.
class Ring {
 public:
  enum class Send : std::uint8_t { kOk, kNoCredit, kTooBig };

  static constexpr std::uint64_t align() { return 64; }
  /// Bytes the region must hold; 0 if options are invalid.
  static std::uint64_t footprint(const RingOptions& options);
  static bool validate(const RingOptions& options, std::string* error);

  static bool create(void* mem, std::uint64_t size, const RingOptions& options, Ring* out,
                     std::string* error);
  static bool attach(void* mem, std::uint64_t size, Ring* out, std::string* error);

  std::uint32_t depth() const;
  std::uint32_t burst() const;
  std::uint32_t mtu() const;

  /// Next seq the producer will publish.
  std::uint64_t producer_seq() const;
  /// What the consumer has durably consumed (its credit line).
  std::uint64_t consumed_seq() const;

  /// Producer-side restart recovery: advance pub_seq over slots a dead
  /// predecessor published but never counted. Never rewrites a published
  /// slot. Call once after attach(), before the first send.
  void resync_producer();

  /// Publish one frag. kNoCredit = the consumer is `depth - burst` behind;
  /// kTooBig = sz > mtu. Single producer only.
  Send try_send(std::uint64_t sig, const void* payload, std::uint32_t sz,
                std::uint32_t ctl = 0);

  /// try_send in a stop-aware spin/sleep loop; false iff `*stop` went
  /// nonzero (or sz > mtu) before credit opened up.
  bool send(std::uint64_t sig, const void* payload, std::uint32_t sz, std::uint32_t ctl,
            const std::atomic<std::uint32_t>* stop);

  /// The consumer's cursor, starting at the durable consumed seq.
  Consumer consumer();

 private:
  friend class Consumer;
  struct Header;
  struct FragMeta;
  struct CreditLine;

  /// Resolves region pointers/masks from a validated geometry.
  void wire(void* mem, std::uint32_t depth, std::uint32_t mtu);
  std::byte* chunk(std::uint64_t seq) const;

  Header* hdr_ = nullptr;
  FragMeta* meta_ = nullptr;
  CreditLine* credit_ = nullptr;
  std::byte* dcache_ = nullptr;
  std::uint32_t mask_ = 0;      ///< depth - 1
  std::uint32_t stride_ = 0;    ///< chunk stride in bytes
  std::uint64_t consumed_ = 0;  ///< producer-local cached credit line
};

}  // namespace cnet::link
