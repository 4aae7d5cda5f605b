// cnet::svc::Client — a small blocking TCP client for the svc wire
// protocol. It is the reference consumer (tests, cnet_loadgen, and
// bench/throughput_svc all speak through it), deliberately simple:
// blocking socket, buffered pipelined sends, one-frame-at-a-time receives.
//
// Pipelining is the intended use: queue_count() / queue_count_until()
// append frames to a local buffer, flush() writes them in one burst, and
// recv_response() then drains the replies. The server may answer out of
// order (plain counts batch, deadline counts resolve at their own pace),
// so callers match responses by request_id, not by position.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/frame.h"

namespace cnet::svc {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (blocking) and sets TCP_NODELAY. False with a diagnostic in
  /// *error on failure.
  bool connect(const std::string& host, std::uint16_t port, std::string* error);
  /// Connects to a UNIX-domain server (the `--uds` transport; a leading
  /// '@' names an abstract-namespace socket). Same contract as connect();
  /// no TCP_NODELAY — AF_UNIX has no Nagle to disable.
  bool connect_uds(const std::string& path, std::string* error);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Buffered sends — nothing hits the socket until flush().
  void queue_count(std::uint64_t request_id);
  void queue_count_until(std::uint64_t request_id, std::uint64_t budget_ns);

  /// Writes every buffered frame. False (and closed) on a socket error.
  bool flush(std::string* error);

  /// Blocks until one whole response frame arrives. False on EOF, a socket
  /// error, or a malformed frame (the connection is closed in every false
  /// case).
  bool recv_response(Response* out, std::string* error);

  /// Nonblocking twin for open-loop consumers (cnet_loadgen): drains
  /// whatever is readable without waiting, sets *got when a whole frame
  /// came out. Returns false only on EOF / error / malformed (closed).
  bool poll_response(Response* out, bool* got, std::string* error);

  /// The underlying socket, for callers that multiplex (poll/epoll).
  int fd() const { return fd_; }

  /// Convenience round trip: queue one kCount, flush, await the reply.
  bool count(std::uint64_t request_id, Response* out, std::string* error);
  /// Same for kCountUntil with a relative budget.
  bool count_until(std::uint64_t request_id, std::uint64_t budget_ns, Response* out,
                   std::string* error);

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_;
  std::size_t in_off_ = 0;
};

}  // namespace cnet::svc
