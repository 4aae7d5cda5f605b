// cnet::svc::Server — the network front-end: a sharded, non-blocking epoll
// TCP server that exposes any live run::CountingBackend (rt or mp, any
// `<family>:<structure>:<width>?opts` spec) as the wire protocol of
// svc/frame.h.
//
// Sharding: the server runs `ServerOptions::loops` INDEPENDENT event loops
// (default: the hardware concurrency), each with its own SO_REUSEPORT
// listener on the same host:port, its own epoll instance, connection map,
// write buffers, pending set, and stats shard. The kernel spreads incoming
// connections across the listeners by flow hash, so the accept path, the
// parse path, and the response path all scale with cores — the counting
// network stops being fronted by a single hot epoll loop, which was the
// service's whole ceiling at loops=1. The only state loops share is
//   * the backend itself (run::CountingBackend is thread-safe; each loop
//     issues from a DISJOINT slice of the backend's thread-id space, so
//     rt's "thread_id unique among concurrent callers" contract holds),
//   * the latched timing-shed signal (one loop tripping sheds everywhere —
//     a broken Cor 3.9 condition voids the whole server, not one shard),
//   * the stop flag.
// Stats are per-loop shards merged on read, the same pattern as src/obs's
// sharded counters: loop-local relaxed writes, sum (max for largest_batch)
// in Server::stats().
//
// The perf core within each loop is *boundary batching*: one event-loop
// wake drains every readable connection, coalescing the decoded requests
// into a pending set, and then issues them against the backend in bulk as
// one wave per chunk, the same way on every live backend: one
// count_begin_batch per chunk of up to max_batch requests (one
// next_batch(k) on rt, one k-token message on mp), then a collect per
// request — instead of k independent traversals. This moves the batch wave
// across the address-space boundary: the k requests of one wake share
// balancer steps (rt) or actor messages (mp), output fetch_adds and worker
// wakeups — and their responses share one coalesced write() per
// connection — while each request still gets its own counter value.
// A handle that comes back ready (every rt handle, and an mp slot the
// parked-value buffer filled) is answered at once. One still in flight is
// carried into the next loop iteration and collected there, after that
// iteration has issued its own chunks: the mp workers walk the wave while
// the loop flushes, polls, reads and parses, instead of the loop waiting
// on the wave it has just issued. While a wave is carried, epoll_wait only
// polls (timeout 0), so an idle loop collects it at once.
// `ServerOptions::batching = false` is the ablation BENCH_svc measures: the
// textbook request-response loop, one backend issue and one response write
// per request, in arrival order.
//
// Admission control / backpressure (all answered with Status::kShed, never
// an unbounded queue):
//   * backlog    — pending requests beyond max_pending are shed on arrival
//                  (per loop; the cap bounds one wake's coalesced batch, so
//                  a loop holds at most 2 x max_pending issued requests:
//                  this wake's and the carried wave);
//   * timing     — when the rt DegradeGuard reports tripped (its online
//                  c2/c1 estimate crossed Cor 3.9's bound of 2; spec
//                  `metrics&degrade=report`), the server latches into
//                  timing shed: the linearizability claim behind the
//                  service is void, so new work is refused rather than
//                  served with a silently weaker guarantee (the latch
//                  matches rt::DegradeGuard — timing that broke once voids
//                  the run; restart the server to re-arm). The latch is
//                  server-wide: any loop can trip it, every loop honours
//                  it from its next admission check;
//   * conn flood — a connection whose write buffer outgrows
//                  max_write_buffer is dropped.
//
// Deadline propagation: a kCountUntil frame's budget starts at *receipt*
// (decode time) and bounds its collect — on mp that collect runs at most
// one loop iteration after issue: a value that has arrived by then answers
// kOk, otherwise the timeout runs the slot-CAS cancellation and parks the
// value for recycling (mp.deadline_timeouts counts it). A backend that
// cannot abandon an issued op (!supports_async_count(): rt runs the wave
// on the serving thread and hands back ready handles) gets no say after
// issue, so a frame whose budget is already spent when its chunk is
// issued is answered kTimeout without executing, and a live one executes
// to completion (docs/SERVICE.md spells out the per-family matrix).
//
// Threading: each event-loop thread owns its connections and issues all
// their backend operations (mp operations still execute on the service's
// own workers — a loop only blocks on the collect of a wave it issued one
// iteration earlier). start()/stop()/stats() are callable from any thread.
// stop() drains: every loop stops accepting, collects its carried wave,
// flushes what its connections still owe, and joins before stop() returns,
// so a stats() read after stop() is the complete final tally.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "run/backend.h"
#include "svc/frame.h"
#include "util/cacheline.h"

namespace cnet::svc {

struct ServerOptions {
  /// Listen address. Loopback by default: the service is a benchmark /
  /// deployment building block, not a hardened public endpoint.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the bound one via port()

  /// Non-empty = serve a UNIX-domain stream socket at this path instead of
  /// TCP (host/port are then ignored; port() reads 0). A leading '@' names
  /// a Linux abstract-namespace socket (no filesystem entry, no unlink).
  /// Unlike TCP, AF_UNIX has no SO_REUSEPORT connection spreading, so the
  /// server binds ONE listener and hands every loop a dup() of it — loops
  /// race on accept4 instead of being flow-hashed, which is fair enough on
  /// a loopback-only transport. A stale filesystem socket from a dead
  /// server is unlinked before bind; stop() unlinks the live one.
  std::string uds_path;

  /// Independent event loops, each with its own SO_REUSEPORT listener on
  /// the same port. Defaults to the hardware concurrency (min 1). 0 is
  /// invalid — start() refuses it with a diagnostic rather than guessing.
  /// An rt backend additionally needs its spec's `threads=` bound to be
  /// >= loops, so every loop gets a non-empty thread-id slice.
  std::uint32_t loops = std::max(1u, std::thread::hardware_concurrency());

  bool batching = true;          ///< boundary batching (see file comment)
  std::uint32_t max_batch = 64;  ///< issue chunk cap per backend call

  /// Backlog admission cap: requests decoded while this many are already
  /// pending in the current wake are shed (kBacklogShed). Per loop. A loop
  /// also holds the previous wake's carried (in-flight) requests, so it
  /// has at most 2 x max_pending issued requests at once.
  std::uint32_t max_pending = 4096;

  /// A connection buffering more than this many unwritten response bytes
  /// is dropped (kOverloadedConn).
  std::size_t max_write_buffer = 1u << 20;
};

class Server {
 public:
  /// Monotone counters, merged across every loop's shard on read (sums;
  /// `largest_batch` is the max over loops). Readable while the server
  /// runs; exact once stop() has returned.
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t requests = 0;  ///< well-formed frames decoded
    std::uint64_t responses_ok = 0;
    std::uint64_t responses_timeout = 0;
    std::uint64_t responses_shed = 0;
    std::uint64_t protocol_errors = 0;  ///< malformed frames (conn dropped)
    std::uint64_t batches = 0;          ///< backend issue calls (per chunk, or per
                                        ///< issued request when unbatched)
    std::uint64_t largest_batch = 0;    ///< max requests coalesced in one wake
    std::uint64_t wakes = 0;            ///< epoll wakes that served requests
  };

  /// `backend` is borrowed and must outlive the server; it must be live()
  /// (rt or mp) — start() rejects simulated families.
  Server(run::CountingBackend& backend, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds one SO_REUSEPORT listener per loop, and spawns the loop
  /// threads. False (with a diagnostic in *error) on a non-live backend,
  /// loops == 0, an rt thread-id space too small for the loop count, or
  /// any socket failure.
  bool start(std::string* error);

  /// Drains and stops every loop: each stops accepting, flushes what its
  /// connections still owe, closes them, and joins. Idempotent.
  void stop();

  /// The bound TCP port, shared by every loop's listener (the ephemeral
  /// one when options.port == 0). Valid after a successful start(); 0 when
  /// serving a UNIX-domain socket.
  std::uint16_t port() const { return port_; }

  /// The UNIX-domain socket path being served, empty on TCP. Valid after a
  /// successful start().
  const std::string& uds_path() const { return options_.uds_path; }

  /// The number of event loops actually serving (== options.loops).
  std::uint32_t loops() const { return static_cast<std::uint32_t>(loops_.size()); }

  /// True once admission control has latched into timing shed (any loop).
  bool timing_tripped() const { return timing_tripped_.load(std::memory_order_acquire); }

  /// Operational/testing hook: latch timing shed now, exactly as a crossed
  /// estimate would. Every loop sheds from its next admission check.
  void trip_timing_shed() { timing_tripped_.store(true, std::memory_order_release); }

  Stats stats() const;

 private:
  struct Conn;
  struct PendingRequest;
  class Loop;

  /// One loop's stats shard: written by the owning loop only (relaxed),
  /// summed by stats(). Cache-line sized so shards never false-share —
  /// the same discipline as obs::ShardedCounter.
  struct alignas(64) StatShard {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> timeout{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> largest_batch{0};
    std::atomic<std::uint64_t> wakes{0};
  };

  run::CountingBackend& backend_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> timing_tripped_{false};

  /// Shards outlive the loops so stats() remains readable after stop().
  AlignedArray<StatShard> shards_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> loop_threads_;
};

}  // namespace cnet::svc
