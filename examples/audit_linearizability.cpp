// Reproduce the paper's experiment on your own machine.
//
// Runs the §5-style delay-injection workload on real threads — a fraction F
// of the issuers busy-waits W nanoseconds after every balancer — and reports
// the non-linearizable fraction (Def 2.4) next to what the theory says about
// the configuration. Try cranking W up: you are manufacturing the timing
// anomaly (c2/c1 > 2) the paper shows is needed for violations.
//
// The run is an ordinary spec through run::Runner, so the same audit works
// on any live backend (`rt:...` or `mp:...`) by changing the spec string.
//
//   $ ./examples/audit_linearizability [threads] [F%] [W_ns] [tree|bitonic]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "run/backend.h"
#include "run/runner.h"

int main(int argc, char** argv) {
  const unsigned threads = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1]))
                                    : std::max(4u, std::thread::hardware_concurrency());
  const double fraction = argc > 2 ? std::atof(argv[2]) / 100.0 : 0.25;
  const std::uint64_t wait_ns = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 50000;
  const bool tree = argc > 4 && std::strcmp(argv[4], "tree") == 0;

  const std::string spec = tree ? "rt:tree:32" : "rt:bitonic:32";
  std::string error;
  const std::unique_ptr<cnet::run::CountingBackend> backend =
      cnet::run::make_backend(spec, &error);
  if (backend == nullptr) {
    std::printf("bad spec: %s\n", error.c_str());
    return 2;
  }

  cnet::run::Workload workload;
  workload.threads = std::max(1u, threads);
  workload.total_ops = 200000;
  workload.delayed_fraction = fraction;
  workload.wait = wait_ns;

  std::printf("auditing %s: %u threads, F=%.0f%%, W=%llu ns, %llu ops...\n", spec.c_str(),
              workload.threads, fraction * 100.0, static_cast<unsigned long long>(wait_ns),
              static_cast<unsigned long long>(workload.total_ops));

  cnet::run::Runner runner;
  const cnet::run::RunReport report = runner.run(*backend, workload);
  if (!report.ok) {
    std::printf("run rejected: %s\n", report.error.c_str());
    return 2;
  }

  std::printf("counting correctness: %s\n",
              report.counting_ok ? "OK (values form 0..n-1)" : report.counting_message.c_str());
  std::printf("throughput: %.2f Mops/s\n", report.throughput * 1e3);
  std::printf("non-linearizable operations: %llu of %llu (%.4f%%)\n",
              static_cast<unsigned long long>(report.analysis.nonlinearizable_ops),
              static_cast<unsigned long long>(report.analysis.total_ops),
              report.analysis.fraction() * 100.0);
  std::printf("worst value inversion: %llu\n",
              static_cast<unsigned long long>(report.analysis.worst_inversion));

  // What the theory says: with W = 0 every link takes roughly the same time
  // (c2/c1 ~ 1 <= 2, Cor 3.9 -> linearizable); injected waits push the
  // effective ratio to ~ (t_node + W) / t_node.
  std::printf("\ntheory: a uniform counting network is linearizable whenever c2 <= 2*c1\n");
  std::printf("        (Cor 3.9); with W = %llu ns you %s that regime.\n",
              static_cast<unsigned long long>(wait_ns),
              wait_ns == 0 ? "stay inside" : "may be leaving");
  if (!report.analysis.linearizable()) {
    std::printf("        %u-deep network + Thm 3.6: any op separated from its\n",
                report.spec.build_network().depth());
    std::printf("        predecessor by more than h*(c2-2*c1) is still ordered.\n");
  }
  return report.counting_ok ? 0 : 1;
}
