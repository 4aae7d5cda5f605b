// cnet public API facade.
//
// Most users want exactly this: a scalable, low-contention shared counter
// backed by a counting network, with an optional guarantee knob for
// linearizability (Cor 3.9 / Cor 3.12). Power users drop down to the
// namespaces this facade composes:
//
//   cnet::topo    network topologies and the counting-property verifier
//   cnet::rt      real-thread execution (atomics, MCS locks, prisms)
//   cnet::sim     the paper's timing model + adversarial schedules
//   cnet::psim    the Proteus-substitute multiprocessor simulator
//   cnet::lin     linearizability (Def 2.4) analysis
//   cnet::theory  the closed-form bounds of §3/§4
//
// Example:
//   cnet::SharedCounter counter(cnet::SharedCounter::Config{
//       .topology = cnet::Topology::kBitonic, .width = 32});
//   std::uint64_t ticket = counter.next(thread_id);
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "rt/network_counter.h"
#include "topo/builders.h"
#include "topo/network.h"

namespace cnet {

struct Version {
  int major = 1;
  int minor = 0;
  int patch = 0;
};

Version version();
std::string version_string();

enum class Topology {
  kBitonic,   ///< Bitonic[w] of [4] — depth log w (log w + 1) / 2
  kPeriodic,  ///< Periodic[w] of [4] — depth (log w)^2
  kTree,      ///< counting tree [21] — depth log w, single entry point
};

/// Builds the chosen topology (validated, uniform).
topo::Network make_network(Topology topology, std::uint32_t width);

/// A concurrent shared counter over a counting network, executed on real
/// threads. Hands out each value in 0, 1, 2, ... exactly once.
class SharedCounter {
 public:
  struct Config {
    Topology topology = Topology::kBitonic;
    std::uint32_t width = 32;

    /// Use prism diffraction on tree balancers (ignored for bitonic and
    /// periodic topologies).
    bool diffraction = true;

    /// Balancers as MCS critical sections instead of lock-free atomics
    /// (the paper's §5 configuration; mostly useful for experiments).
    bool mcs_balancers = false;

    /// If > 2, prefix the network with pass-through chains per Cor 3.12 so
    /// that the counter stays linearizable as long as the system's link-time
    /// ratio c2/c1 stays below this bound. 0 or 2 = no padding (linearizable
    /// for c2 <= 2*c1 by Cor 3.9).
    std::uint32_t linearizable_for_ratio = 0;

    /// Upper bound on concurrent caller ids.
    std::uint32_t max_threads = 256;

    /// Observability sink (borrowed; may be null — the default — for zero
    /// instrumentation cost). See obs/backend_metrics.h and
    /// docs/OBSERVABILITY.md for the recorded metrics.
    obs::CounterMetrics* metrics = nullptr;
  };

  explicit SharedCounter(const Config& config);

  /// Next counter value; thread-safe. `thread_id` must be unique among
  /// concurrent callers and < config.max_threads.
  std::uint64_t next(std::uint32_t thread_id);

  /// Claims out.size() counter values at once, written in order. This
  /// batches the contended output fetch_add; a worker that stamps requests
  /// in blocks should prefer this. Values are
  /// globally unique and, single-threaded, identical to repeated next().
  void next_batch(std::uint32_t thread_id, std::span<std::uint64_t> out);

  const topo::Network& network() const { return counter_.network(); }

 private:
  rt::NetworkCounter counter_;
};

}  // namespace cnet
