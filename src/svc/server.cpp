#include "svc/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <unordered_map>

#include "svc/uds.h"
#include "util/assert.h"

namespace cnet::svc {

using Clock = std::chrono::steady_clock;

/// One accepted connection. Owned by its loop; referenced (borrowed) by the
/// wake's pending requests and by carried ones, so a dying connection is
/// quarantined in a graveyard until no request names it any more.
struct Server::Conn {
  int fd = -1;
  std::uint32_t id = 0;  ///< loop-local dense id; maps to a backend entry input

  std::vector<std::uint8_t> in;  ///< received, not yet parsed
  std::size_t in_off = 0;        ///< parse cursor into `in`

  std::vector<std::uint8_t> out;  ///< encoded, not yet written
  std::size_t out_off = 0;

  bool want_write = false;         ///< EPOLLOUT armed
  bool close_after_flush = false;  ///< drop once `out` drains (error path)
  bool dead = false;               ///< closed; in the graveyard
  std::uint32_t carried = 0;       ///< issued requests awaiting the next collect

  /// A malformed frame poisons the stream, but requests decoded before it
  /// are still served: the error frame is held here and appended once no
  /// request of the connection is carried, as its final frame.
  bool error_pending = false;
  Response error_response{};

  std::size_t unwritten() const { return out.size() - out_off; }
};

/// One decoded, admitted request awaiting this wake's batch issue.
struct Server::PendingRequest {
  Conn* conn = nullptr;
  Request request;
  Clock::time_point deadline;  ///< receipt + budget (kCountUntil only)
};

namespace {

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);  // best effort
}

/// Creates one nonblocking SO_REUSEPORT listener on host:*port. Every loop
/// binds its own listener to the same port, so the kernel spreads incoming
/// connections across them by flow hash. When *port is 0 the first call
/// learns the kernel-chosen ephemeral port (getsockname) and writes it
/// back, so the remaining loops bind the same one. Returns -1 with a
/// diagnostic in *error on failure.
int make_listener(const std::string& host, std::uint16_t* port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = "socket(): " + std::string(std::strerror(errno));
    return -1;
  }
  const auto fail = [&](const std::string& message) {
    *error = message;
    ::close(fd);
    return -1;
  };
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    return fail("setsockopt(SO_REUSEPORT): " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(*port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return fail("bad listen address '" + host + "'");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return fail("bind(" + host + "): " + std::strerror(errno));
  }
  if (listen(fd, 1024) != 0) {
    return fail("listen(): " + std::string(std::strerror(errno)));
  }
  if (*port == 0) {
    socklen_t len = sizeof addr;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return fail("getsockname(): " + std::string(std::strerror(errno)));
    }
    *port = ntohs(addr.sin_port);
  }
  return fd;
}

/// Creates THE nonblocking AF_UNIX listener (one per server — see
/// ServerOptions::uds_path; the loops share it via dup()). A stale
/// filesystem socket left by a crashed server is unlinked first.
int make_uds_listener(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  socklen_t len = 0;
  if (!fill_uds_addr(path, &addr, &len, error)) return -1;
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = "socket(AF_UNIX): " + std::string(std::strerror(errno));
    return -1;
  }
  const auto fail = [&](const std::string& message) {
    *error = message;
    ::close(fd);
    return -1;
  };
  if (path[0] != '@') ::unlink(path.c_str());
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
    return fail("bind(" + path + "): " + std::strerror(errno));
  }
  if (listen(fd, 1024) != 0) {
    return fail("listen(" + path + "): " + std::string(std::strerror(errno)));
  }
  return fd;
}

}  // namespace

/// One event loop shard: owns its listener, epoll instance, connections,
/// and every backend issue for them. run() lives on the loop's own thread;
/// init() runs on the starting thread (so failures surface in start());
/// wake() is callable from any thread.
class Server::Loop {
 public:
  /// `issue_base`/`issue_slots` delimit this loop's private slice of the
  /// backend's thread-id space: all issues use ids in
  /// [issue_base, issue_base + issue_slots), so concurrent loops never
  /// violate rt's "thread_id unique among concurrent callers" contract.
  Loop(Server& server, int listen_fd, std::uint32_t issue_base, std::uint32_t issue_slots,
       StatShard& stats)
      : s_(server),
        stats_(stats),
        listen_fd_(listen_fd),
        issue_base_(issue_base),
        issue_slots_(std::max(1u, issue_slots)) {}

  ~Loop() {
    for (auto& [fd, conn] : conns_) ::close(fd);
    if (epfd_ >= 0) ::close(epfd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  bool init() {
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) return false;
    wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return false;
    return add_fd(listen_fd_, kListenerTag) && add_fd(wake_fd_, kWakeTag);
  }

  /// Kicks the loop out of epoll_wait (stop path). Thread-safe.
  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof one);
  }

  void run() {
    epoll_event events[64];
    while (!s_.stopping_.load(std::memory_order_acquire)) {
      // A carried wave is collected this iteration, so the loop only polls.
      const int n = epoll_wait(epfd_, events, 64, carried_.empty() ? -1 : 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll itself failed; nothing sane left to do
      }
      if (s_.stopping_.load(std::memory_order_acquire)) break;
      check_timing();
      for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events[i];
        if (ev.data.u64 == kListenerTag) {
          accept_all();
        } else if (ev.data.u64 == kWakeTag) {
          std::uint64_t drained = 0;
          while (read(wake_fd_, &drained, sizeof drained) > 0) {
          }
        } else {
          auto* conn = reinterpret_cast<Conn*>(ev.data.u64);
          if (conn->dead) continue;
          if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
            kill_conn(conn);
            continue;
          }
          if ((ev.events & EPOLLIN) != 0) on_readable(conn);
          if ((ev.events & EPOLLOUT) != 0 && !conn->dead) flush(conn);
        }
      }
      if (!pending_.empty()) serve_pending();
      collect_carried();
      close_poisoned();
      // Opportunistic flush: most responses go out right here, without a
      // second epoll round trip.
      for (auto it = conns_.begin(); it != conns_.end();) {
        Conn* conn = (it++)->second.get();
        if (!conn->dead && conn->unwritten() != 0) flush(conn);
      }
      bury();
    }
    drain_for_stop();
  }

 private:
  static constexpr std::uint64_t kListenerTag = 0;
  static constexpr std::uint64_t kWakeTag = 1;

  /// An issued request whose handle came back in flight (mp), with that
  /// handle: answered by the next loop iteration's collect_carried().
  struct CarriedRequest {
    PendingRequest request;
    run::CountingBackend::PendingCount handle;
  };

  /// The stop-path drain: pending_ never survives a wake, so once the
  /// carried wave is collected every admitted request has its response
  /// encoded — and every mp handle is resolved before the backend can be
  /// destroyed. Draining then means pushing the unwritten response bytes
  /// out before the sockets close — one best-effort flush per connection.
  /// A peer that stopped reading loses its tail (the alternative is an
  /// unbounded shutdown).
  void drain_for_stop() {
    collect_carried();
    close_poisoned();
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* conn = (it++)->second.get();
      if (conn->dead) continue;
      if (conn->unwritten() != 0) flush(conn);
      if (conn->dead) continue;
      // Requests the peer sent but this loop never read would turn the
      // close into an RST, which can destroy the responses just flushed.
      // Discarding them lets the shutdown go out as a clean FIN after the
      // last whole frame — the peer sees complete responses, then EOF,
      // never a truncated stream.
      std::uint8_t discard[16 * 1024];
      while (read(conn->fd, discard, sizeof discard) > 0) {
      }
      shutdown(conn->fd, SHUT_WR);
    }
    bury();
  }

  bool add_fd(int fd, std::uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    return epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void accept_all() {
    for (;;) {
      const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN, or a transient accept error — try next wake
      set_nodelay(fd);
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id_++;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = reinterpret_cast<std::uint64_t>(conn.get());
      if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        return;
      }
      stats_.accepted.fetch_add(1, std::memory_order_relaxed);
      conns_.emplace(fd, std::move(conn));
    }
  }

  void on_readable(Conn* conn) {
    std::uint8_t chunk[16 * 1024];
    for (;;) {
      const ssize_t n = read(conn->fd, chunk, sizeof chunk);
      if (n > 0) {
        conn->in.insert(conn->in.end(), chunk, chunk + n);
        if (static_cast<std::size_t>(n) < sizeof chunk) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      kill_conn(conn);  // EOF or a hard error
      return;
    }
    parse(conn);
  }

  /// Decodes every complete frame in the connection buffer, admitting each
  /// into this wake's pending set (or shedding it on the spot). One
  /// malformed frame poisons the stream: the server answers with a final
  /// kError frame naming the violation and drops the connection.
  void parse(Conn* conn) {
    const Clock::time_point now = Clock::now();
    while (!conn->dead && !conn->close_after_flush && !conn->error_pending) {
      Request request;
      std::size_t consumed = 0;
      WireError wire_error = WireError::kNone;
      const DecodeResult result =
          try_decode_request(conn->in.data() + conn->in_off, conn->in.size() - conn->in_off,
                             &request, &consumed, &wire_error);
      if (result == DecodeResult::kNeedMore) break;
      if (result == DecodeResult::kMalformed) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        conn->error_pending = true;
        conn->error_response = {Status::kError, wire_error, request.request_id, 0};
        conn->in.clear();
        conn->in_off = 0;
        return;
      }
      conn->in_off += consumed;
      stats_.requests.fetch_add(1, std::memory_order_relaxed);
      if (s_.timing_tripped_.load(std::memory_order_relaxed)) {
        enqueue_response(conn,
                         {Status::kShed, WireError::kTimingShed, request.request_id, 0});
      } else if (pending_.size() >= s_.options_.max_pending) {
        enqueue_response(conn,
                         {Status::kShed, WireError::kBacklogShed, request.request_id, 0});
      } else {
        pending_.push_back(
            {conn, request, now + std::chrono::nanoseconds(request.deadline_ns)});
      }
    }
    if (conn->in_off == conn->in.size()) {
      conn->in.clear();
      conn->in_off = 0;
    } else if (conn->in_off > 64 * 1024) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() + static_cast<std::ptrdiff_t>(conn->in_off));
      conn->in_off = 0;
    }
  }

  /// The issue id for a connection's individually served requests: this
  /// loop's private slice of the backend's thread-id space, spread over
  /// the slice by the loop-local connection id.
  std::uint32_t issue_id(const Conn* conn) const {
    return issue_base_ + conn->id % issue_slots_;
  }

  /// The boundary-batching core (see server.h): everything this wake
  /// coalesced is issued against the backend in bulk.
  void serve_pending() {
    stats_.wakes.fetch_add(1, std::memory_order_relaxed);
    if (pending_.size() > stats_.largest_batch.load(std::memory_order_relaxed)) {
      stats_.largest_batch.store(pending_.size(), std::memory_order_relaxed);
    }
    if (!s_.options_.batching) {
      // The ablation baseline is the textbook request-response loop: serve
      // in arrival order and write each response as it completes — no bulk
      // issue, no coalesced flush. Boundary batching's win is measured
      // against exactly this (BENCH_svc).
      for (const PendingRequest& p : pending_) {
        serve_one(p);
        if (!p.conn->dead) flush(p.conn);
      }
    } else {
      serve_batched();
    }
    pending_.clear();
  }

  /// The issue id for one batched chunk. The rotor spreads successive
  /// chunks over this loop's slice of the entry inputs (a batch enters at
  /// the network's issuer_input(thread_id)); slices are disjoint across
  /// loops, so concurrent chunks never share a thread id.
  std::uint32_t batch_issue_id() {
    return issue_base_ + static_cast<std::uint32_t>(batch_rotor_++ % issue_slots_);
  }

  /// One wave per chunk on every live backend: count_begin_batch is one
  /// next_batch on rt and one token message on mp. A ready handle (rt, or
  /// an mp slot the parked-value buffer filled) is answered at once; one in
  /// flight is carried to the next iteration's collect, so the wave walks
  /// the network while the loop flushes, polls, reads and issues, and a
  /// deadline frame on mp keeps the slot-CAS cancellation.
  void serve_batched() {
    const bool can_abandon = s_.backend_.supports_async_count();
    for (std::size_t next = 0; next < pending_.size();) {
      chunk_.clear();
      const Clock::time_point now = can_abandon ? Clock::time_point{} : Clock::now();
      while (next < pending_.size() && chunk_.size() < s_.options_.max_batch) {
        const PendingRequest& p = pending_[next++];
        if (can_abandon || !refuse_spent(p, now)) chunk_.push_back(&p);
      }
      if (chunk_.empty()) continue;
      handles_.resize(chunk_.size());
      s_.backend_.count_begin_batch(batch_issue_id(), handles_);
      stats_.batches.fetch_add(1, std::memory_order_relaxed);
      for (std::size_t i = 0; i < chunk_.size(); ++i) {
        const PendingRequest& p = *chunk_[i];
        if (handles_[i].cell == nullptr) {
          collect(p, handles_[i]);
        } else {
          ++p.conn->carried;
          issued_.push_back({p, handles_[i]});
        }
      }
    }
  }

  /// Answers the previous iteration's carried requests, after this
  /// iteration issued its own chunks, then carries this wake's in-flight
  /// ones into the next iteration. A carried kCountUntil's bounded collect
  /// runs at most one iteration after issue: a value that has arrived by
  /// then answers kOk, otherwise the cancel CAS answers kTimeout.
  void collect_carried() {
    for (const CarriedRequest& c : carried_) {
      collect(c.request, c.handle);
      --c.request.conn->carried;
    }
    carried_.clear();
    carried_.swap(issued_);
  }

  /// Poisoned streams get their final kError frame only after every
  /// response they are owed, carried ones included, so well-formed requests
  /// that preceded the bad frame are still answered. Iterators advance
  /// before any call that can kill_conn — killing erases the connection's
  /// map entry.
  void close_poisoned() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* conn = (it++)->second.get();
      if (!conn->dead && conn->error_pending && conn->carried == 0) {
        enqueue_response(conn, conn->error_response);
        conn->error_pending = false;
        conn->close_after_flush = true;
      }
    }
  }

  /// The unbatched ablation: one independent backend operation per
  /// request, under the same deadline rule as serve_batched.
  void serve_one(const PendingRequest& p) {
    const std::uint32_t thread_id = issue_id(p.conn);
    if (p.request.op == Op::kCount) {
      respond_ok(p, s_.backend_.count(thread_id));
    } else if (s_.backend_.supports_async_count() || !refuse_spent(p, Clock::now())) {
      collect(p, s_.backend_.count_begin(thread_id, 0));
    } else {
      return;  // refused before issue
    }
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
  }

  /// For a backend that cannot abandon an issued op (rt runs it on this
  /// thread): a kCountUntil whose budget died in the queue is answered
  /// kTimeout before issue and claims no value. Honest deadline
  /// propagation is a refusal to start, not a value delivered late.
  bool refuse_spent(const PendingRequest& p, Clock::time_point now) {
    if (p.request.op != Op::kCountUntil || now < p.deadline) return false;
    respond_timeout(p);
    return true;
  }

  /// Answers an issued request: a plain collect for kCount, one bounded by
  /// the frame's deadline for kCountUntil.
  void collect(const PendingRequest& p, const run::CountingBackend::PendingCount& handle) {
    if (p.request.op == Op::kCount) {
      respond_ok(p, s_.backend_.count_collect(handle));
      return;
    }
    const run::CountingBackend::TimedCount timed =
        s_.backend_.count_collect_until(handle, p.deadline);
    if (timed.ok) {
      respond_ok(p, timed.value);
    } else {
      respond_timeout(p);
    }
  }

  void respond_ok(const PendingRequest& p, std::uint64_t value) {
    enqueue_response(p.conn, {Status::kOk, WireError::kNone, p.request.request_id, value});
  }

  void respond_timeout(const PendingRequest& p) {
    enqueue_response(p.conn,
                     {Status::kTimeout, WireError::kNone, p.request.request_id, 0});
  }

  void enqueue_response(Conn* conn, const Response& response) {
    if (conn->dead) return;
    switch (response.status) {
      case Status::kOk: stats_.ok.fetch_add(1, std::memory_order_relaxed); break;
      case Status::kTimeout: stats_.timeout.fetch_add(1, std::memory_order_relaxed); break;
      case Status::kShed: stats_.shed.fetch_add(1, std::memory_order_relaxed); break;
      case Status::kError: break;  // counted at the parse site
    }
    if (conn->unwritten() > s_.options_.max_write_buffer) {
      // The peer is not reading: shedding more frames into the buffer would
      // BE the unbounded queue admission control exists to prevent.
      kill_conn(conn);
      return;
    }
    encode_response(response, &conn->out);
  }

  void flush(Conn* conn) {
    while (conn->out_off < conn->out.size()) {
      const ssize_t n =
          write(conn->fd, conn->out.data() + conn->out_off, conn->out.size() - conn->out_off);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        arm_write(conn, true);
        return;
      }
      kill_conn(conn);
      return;
    }
    conn->out.clear();
    conn->out_off = 0;
    arm_write(conn, false);
    if (conn->close_after_flush) kill_conn(conn);
  }

  void arm_write(Conn* conn, bool want) {
    if (conn->want_write == want) return;
    conn->want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = reinterpret_cast<std::uint64_t>(conn);
    epoll_ctl(epfd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  /// Closes the socket now but keeps the Conn object alive in the
  /// graveyard — pending and carried requests and the event array still
  /// point at it.
  void kill_conn(Conn* conn) {
    if (conn->dead) return;
    conn->dead = true;
    epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    stats_.closed.fetch_add(1, std::memory_order_relaxed);
    const auto it = conns_.find(conn->fd);
    CNET_CHECK(it != conns_.end());
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
  }

  /// Runs at the end of an iteration, when only carried requests can still
  /// name a dead connection: one they name is buried an iteration later,
  /// once collect_carried() has answered them.
  void bury() {
    std::erase_if(graveyard_, [](const std::unique_ptr<Conn>& c) { return c->carried == 0; });
  }

  /// One admission check per wake: a tripped backend DegradeGuard latches
  /// timing shed. The latch is shared across loops — a trip here sheds
  /// everywhere.
  void check_timing() {
    if (s_.timing_tripped_.load(std::memory_order_relaxed)) return;
    if (s_.backend_.degrade_status().tripped) {
      s_.timing_tripped_.store(true, std::memory_order_release);
    }
  }

  Server& s_;
  StatShard& stats_;
  int listen_fd_ = -1;
  int epfd_ = -1;
  int wake_fd_ = -1;
  const std::uint32_t issue_base_;
  const std::uint32_t issue_slots_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> graveyard_;
  std::vector<PendingRequest> pending_;
  std::vector<CarriedRequest> issued_;   ///< this wake's in-flight requests
  std::vector<CarriedRequest> carried_;  ///< the previous wake's, collected next
  std::vector<const PendingRequest*> chunk_;            ///< serve_batched scratch
  std::vector<run::CountingBackend::PendingCount> handles_;  ///< serve_batched scratch
  std::uint32_t next_conn_id_ = 0;
  std::uint64_t batch_rotor_ = 0;
};

Server::Server(run::CountingBackend& backend, ServerOptions options)
    : backend_(backend), options_(std::move(options)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    loops_.clear();  // Loop destructors close any fds already open
    shards_ = AlignedArray<StatShard>();
    return false;
  };
  if (!backend_.live()) {
    return fail("svc::Server serves live backends only (rt, mp); '" +
                backend_.spec().to_string() + "' executes in virtual time");
  }
  const std::uint32_t n_loops = options_.loops;
  if (n_loops == 0) {
    return fail("ServerOptions::loops must be >= 1 — zero event loops cannot serve"
                " (the default is the hardware concurrency)");
  }
  const std::uint32_t max_threads = std::max(1u, backend_.spec().max_threads);
  if (backend_.spec().family == run::Family::kRt && max_threads < n_loops) {
    return fail("spec '" + backend_.spec().to_string() + "' bounds concurrent issuers at"
                " threads=" + std::to_string(max_threads) + ", below loops=" +
                std::to_string(n_loops) + " — every loop needs its own thread-id slice"
                " (raise ?threads= or lower loops)");
  }
  CNET_CHECK_MSG(loop_threads_.empty(), "Server::start called twice");

  std::vector<int> listeners;
  listeners.reserve(n_loops);
  if (!options_.uds_path.empty()) {
    // AF_UNIX: one listener, dup()'d into every loop — SO_REUSEPORT does
    // not spread UNIX-domain connections, so the loops share the accept
    // queue instead. Each loop owns (and closes) its own duplicate.
    std::string listen_error;
    const int fd = make_uds_listener(options_.uds_path, &listen_error);
    if (fd < 0) return fail(listen_error);
    listeners.push_back(fd);
    for (std::uint32_t i = 1; i < n_loops; ++i) {
      const int dup_fd = fcntl(fd, F_DUPFD_CLOEXEC, 0);
      if (dup_fd < 0) {
        for (int open_fd : listeners) ::close(open_fd);
        return fail("dup of uds listener failed: " + std::string(std::strerror(errno)));
      }
      listeners.push_back(dup_fd);
    }
    port_ = 0;
  } else {
    // One SO_REUSEPORT listener per loop, all on the same port: the first
    // bind resolves an ephemeral port request, the rest join it.
    std::uint16_t bound_port = options_.port;
    for (std::uint32_t i = 0; i < n_loops; ++i) {
      std::string listen_error;
      const int fd = make_listener(options_.host, &bound_port, &listen_error);
      if (fd < 0) {
        for (int open_fd : listeners) ::close(open_fd);
        return fail(listen_error);
      }
      listeners.push_back(fd);
    }
    port_ = bound_port;
  }

  // Disjoint thread-id slices: loop i issues with ids in
  // [i*slots, (i+1)*slots), keeping rt's uniqueness contract across loops.
  const std::uint32_t slots = std::max(1u, max_threads / n_loops);
  shards_ = AlignedArray<StatShard>(n_loops);
  loops_.reserve(n_loops);
  for (std::uint32_t i = 0; i < n_loops; ++i) {
    loops_.push_back(
        std::make_unique<Loop>(*this, listeners[i], i * slots, slots, shards_[i]));
    if (!loops_.back()->init()) {
      return fail("epoll setup failed: " + std::string(std::strerror(errno)));
    }
  }

  stopping_.store(false, std::memory_order_release);
  loop_threads_.reserve(n_loops);
  for (auto& loop : loops_) {
    loop_threads_.emplace_back([raw = loop.get()] { raw->run(); });
  }
  return true;
}

void Server::stop() {
  if (loop_threads_.empty()) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->wake();
  for (auto& thread : loop_threads_) thread.join();
  loop_threads_.clear();
  loops_.clear();  // closes every fd; shards_ stay for post-stop stats()
  if (!options_.uds_path.empty() && options_.uds_path[0] != '@') {
    ::unlink(options_.uds_path.c_str());  // best effort; abstract names vanish themselves
  }
}

Server::Stats Server::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    s.connections_accepted += shard.accepted.load(std::memory_order_relaxed);
    s.connections_closed += shard.closed.load(std::memory_order_relaxed);
    s.requests += shard.requests.load(std::memory_order_relaxed);
    s.responses_ok += shard.ok.load(std::memory_order_relaxed);
    s.responses_timeout += shard.timeout.load(std::memory_order_relaxed);
    s.responses_shed += shard.shed.load(std::memory_order_relaxed);
    s.protocol_errors += shard.protocol_errors.load(std::memory_order_relaxed);
    s.batches += shard.batches.load(std::memory_order_relaxed);
    s.largest_batch =
        std::max(s.largest_batch, shard.largest_batch.load(std::memory_order_relaxed));
    s.wakes += shard.wakes.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace cnet::svc
