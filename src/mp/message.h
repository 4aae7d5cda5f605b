// The actor runtime's message: a 64-bit payload plus a context pointer.
// A network token message is a wave: `context` points at the head of an
// intrusive list of response cells (mp/response_cell.h), one per token
// travelling together, and `payload` carries the paper's per-node delay W
// (busy-wait nanoseconds, 0 for none), which only a wave of one carries —
// see mp::NetworkService. The message rides in the head cell's own mailbox
// node, so `context` is the cell that carries it.
//
// Split out of actor_runtime.h so the mailbox primitives (mp/mpsc_queue.h)
// and the response cell can name the payload type without pulling in the
// runtime.
#pragma once

#include <cstdint>

namespace cnet::mp {

using ActorId = std::uint32_t;

struct Message {
  std::uint64_t payload = 0;
  void* context = nullptr;
};

}  // namespace cnet::mp
