// link::Ring unit battery: geometry validation, the seq publish and credit
// protocol (wrap-around, credit stall/resume), the restart story (producer
// resync, consumer credit-line resume), and a threaded producer/consumer
// churn loop (TSan builds check the publish and credit orderings here).
#include "link/ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

namespace cnet::link {
namespace {

/// A 64-byte-aligned heap region big enough for `o` (plus alignment slop).
struct Region {
  std::unique_ptr<std::byte[]> store;
  void* mem = nullptr;
  std::uint64_t size = 0;

  explicit Region(const RingOptions& o) {
    size = Ring::footprint(o);
    store.reset(new std::byte[size + Ring::align()]);
    const auto raw = reinterpret_cast<std::uintptr_t>(store.get());
    mem = reinterpret_cast<void*>((raw + Ring::align() - 1) & ~(Ring::align() - 1));
  }
};

Ring make_ring(const RingOptions& o, Region* region) {
  Ring ring;
  std::string error;
  EXPECT_TRUE(Ring::create(region->mem, region->size, o, &ring, &error)) << error;
  return ring;
}

/// Two-word payload, so a torn copy would show as a mismatched pair.
struct Payload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

Payload payload_for(std::uint64_t seq) { return Payload{seq, seq * 3 + 1}; }

TEST(LinkRing, ValidatesGeometry) {
  std::string error;
  RingOptions o;
  EXPECT_TRUE(Ring::validate(o, &error)) << error;

  o = RingOptions{};
  o.depth = 3;  // not a power of two
  EXPECT_FALSE(Ring::validate(o, &error));
  EXPECT_NE(error.find("depth"), std::string::npos) << error;
  EXPECT_EQ(Ring::footprint(o), 0u);

  o = RingOptions{};
  o.depth = kMinDepth / 2;
  EXPECT_FALSE(Ring::validate(o, &error));

  o = RingOptions{};
  o.burst = 0;
  EXPECT_FALSE(Ring::validate(o, &error));
  EXPECT_NE(error.find("burst"), std::string::npos) << error;

  o = RingOptions{};
  o.burst = o.depth;  // burst must stay < depth
  EXPECT_FALSE(Ring::validate(o, &error));

  o = RingOptions{};
  o.mtu = 0;
  EXPECT_FALSE(Ring::validate(o, &error));
  o.mtu = kMaxMtu + 1;
  EXPECT_FALSE(Ring::validate(o, &error));
  EXPECT_NE(error.find("mtu"), std::string::npos) << error;
}

TEST(LinkRing, CreateAndAttachRejectBadRegions) {
  RingOptions o;
  o.depth = 8;
  o.burst = 2;
  Region region(o);
  Ring ring;
  std::string error;

  // Misaligned base.
  auto* off = static_cast<std::byte*>(region.mem) + 8;
  EXPECT_FALSE(Ring::create(off, region.size - 8, o, &ring, &error));
  EXPECT_NE(error.find("aligned"), std::string::npos) << error;

  // Region too small for the geometry.
  EXPECT_FALSE(Ring::create(region.mem, Ring::footprint(o) - 1, o, &ring, &error));

  // Attach before create: no magic.
  std::memset(region.mem, 0, region.size);
  EXPECT_FALSE(Ring::attach(region.mem, region.size, &ring, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  ASSERT_TRUE(Ring::create(region.mem, region.size, o, &ring, &error)) << error;
  // Attach sees the declared geometry, not the attacher's idea of it.
  Ring view;
  ASSERT_TRUE(Ring::attach(region.mem, region.size, &view, &error)) << error;
  EXPECT_EQ(view.depth(), 8u);
  EXPECT_EQ(view.burst(), 2u);
  // ...and rejects a truncated mapping of a valid ring.
  EXPECT_FALSE(Ring::attach(region.mem, sizeof(std::uint64_t) * 8, &view, &error));
}

TEST(LinkRing, WrapAroundDeliversInOrderAcrossManyLaps) {
  RingOptions o;
  o.depth = 4;  // 100 frags = 25 laps
  o.burst = 2;
  Region region(o);
  Ring ring = make_ring(o, &region);
  Consumer c = ring.consumer();

  constexpr std::uint64_t kFrags = 100;
  std::uint64_t next_read = 0;
  for (std::uint64_t s = 0; s < kFrags; ++s) {
    const Payload p = payload_for(s);
    // The consumer gates credit: drain until the send lands.
    while (ring.try_send(/*sig=*/s, &p, sizeof(p)) == Ring::Send::kNoCredit) {
      Frag meta;
      Payload got;
      ASSERT_EQ(c.read(&meta, &got, sizeof(got)), Consumer::Poll::kFrag);
      ASSERT_EQ(meta.seq, next_read);
      ASSERT_EQ(meta.sig, next_read);
      ASSERT_EQ(got.a, next_read);
      ASSERT_EQ(got.b, next_read * 3 + 1);
      c.advance();
      ++next_read;
    }
  }
  while (next_read < kFrags) {
    Frag meta;
    Payload got;
    ASSERT_EQ(c.read(&meta, &got, sizeof(got)), Consumer::Poll::kFrag);
    ASSERT_EQ(meta.sig, next_read);
    ASSERT_EQ(got.a, next_read);
    c.advance();
    ++next_read;
  }
  Frag meta;
  EXPECT_EQ(c.poll(&meta), Consumer::Poll::kEmpty);
  EXPECT_EQ(ring.producer_seq(), kFrags);
  EXPECT_EQ(ring.consumed_seq(), kFrags);
}

TEST(LinkRing, CreditStallsAtDepthMinusBurstAndResumes) {
  RingOptions o;
  o.depth = 8;
  o.burst = 2;  // credit window = depth - burst = 6
  Region region(o);
  Ring ring = make_ring(o, &region);
  Consumer c = ring.consumer();

  const std::uint64_t v = 7;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(ring.try_send(i, &v, sizeof(v)), Ring::Send::kOk);
  }
  EXPECT_EQ(ring.try_send(6, &v, sizeof(v)), Ring::Send::kNoCredit);
  EXPECT_EQ(ring.producer_seq(), 6u);

  // One advance opens exactly one slot of credit.
  Frag meta;
  std::uint64_t got = 0;
  ASSERT_EQ(c.read(&meta, &got, sizeof(got)), Consumer::Poll::kFrag);
  c.advance();
  EXPECT_EQ(ring.try_send(6, &v, sizeof(v)), Ring::Send::kOk);
  EXPECT_EQ(ring.try_send(7, &v, sizeof(v)), Ring::Send::kNoCredit);

  // Oversized frags are rejected regardless of credit.
  std::byte big[64] = {};
  EXPECT_EQ(ring.try_send(8, big, ring.mtu() + 1), Ring::Send::kTooBig);
}

TEST(LinkRing, ProducerResyncContinuesWithoutRepublishing) {
  RingOptions o;
  o.depth = 8;
  o.burst = 4;
  Region region(o);
  Ring ring = make_ring(o, &region);
  for (std::uint64_t s = 0; s < 3; ++s) {
    const Payload p = payload_for(s);
    ASSERT_EQ(ring.try_send(s, &p, sizeof(p)), Ring::Send::kOk);
  }

  // A "restarted producer" attaches the same region and resyncs; the
  // cursor lands exactly past the published frags.
  Ring revived;
  std::string error;
  ASSERT_TRUE(Ring::attach(region.mem, region.size, &revived, &error)) << error;
  revived.resync_producer();
  EXPECT_EQ(revived.producer_seq(), 3u);
  const Payload p = payload_for(3);
  ASSERT_EQ(revived.try_send(3, &p, sizeof(p)), Ring::Send::kOk);

  // Nothing the predecessor published was rewritten: a consumer that
  // lived through the restart reads the full prefix in order.
  Consumer c = revived.consumer();
  for (std::uint64_t s = 0; s < 4; ++s) {
    Frag meta;
    Payload got;
    ASSERT_EQ(c.read(&meta, &got, sizeof(got)), Consumer::Poll::kFrag);
    EXPECT_EQ(meta.sig, s);
    EXPECT_EQ(got.a, s);
    c.advance();
  }
}

TEST(LinkRing, ConsumerRestartResumesFromCreditLine) {
  RingOptions o;
  o.depth = 8;
  o.burst = 4;
  Region region(o);
  Ring ring = make_ring(o, &region);
  for (std::uint64_t s = 0; s < 4; ++s) {
    const std::uint64_t v = s;
    ASSERT_EQ(ring.try_send(s, &v, sizeof(v)), Ring::Send::kOk);
  }
  {
    Consumer c = ring.consumer();
    Frag meta;
    std::uint64_t got = 0;
    ASSERT_EQ(c.read(&meta, &got, sizeof(got)), Consumer::Poll::kFrag);
    c.advance();
    ASSERT_EQ(c.read(&meta, &got, sizeof(got)), Consumer::Poll::kFrag);
    c.advance();
  }  // the cursor dies; its credit line survives in the ring

  Consumer revived = ring.consumer();
  EXPECT_EQ(revived.seq(), 2u);
  Frag meta;
  std::uint64_t got = 0;
  ASSERT_EQ(revived.read(&meta, &got, sizeof(got)), Consumer::Poll::kFrag);
  EXPECT_EQ(meta.sig, 2u);
  EXPECT_EQ(got, 2u);
}

// One producer and one consumer racing: the consumer falls behind on
// purpose so the producer keeps hitting the credit window, and every frag
// must still arrive once, in order and whole.
TEST(LinkRing, ChurnProducerAndConsumerConcurrently) {
  RingOptions o;
  o.depth = 64;
  o.burst = 16;
  Region region(o);
  Ring ring = make_ring(o, &region);

  constexpr std::uint64_t kFrags = 4000;
  std::atomic<bool> failed{false};

  std::thread producer([&] {
    for (std::uint64_t s = 0; s < kFrags && !failed.load(); ++s) {
      const Payload p = payload_for(s);
      if (!ring.send(/*sig=*/s, &p, sizeof(p), /*ctl=*/0, /*stop=*/nullptr)) {
        failed.store(true);
        return;
      }
    }
  });

  std::thread consumer([&] {
    Consumer c = ring.consumer();
    while (c.seq() < kFrags && !failed.load()) {
      Frag meta;
      Payload got;
      const auto st = c.read(&meta, &got, sizeof(got));
      if (st == Consumer::Poll::kEmpty) {
        std::this_thread::yield();
        continue;
      }
      // The credit window keeps the producer off unread slots: never torn.
      if (meta.seq != c.seq() || meta.sig != meta.seq || got.a != meta.seq ||
          got.b != meta.seq * 3 + 1) {
        failed.store(true);
        return;
      }
      c.advance();
      if (c.seq() % 96 == 0) {  // fall behind on purpose to stall the producer
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });

  producer.join();
  consumer.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(ring.producer_seq(), kFrags);
  EXPECT_EQ(ring.consumed_seq(), kFrags);
}

}  // namespace
}  // namespace cnet::link
