#include "sim/exhaustive.h"

#include <algorithm>

#include "lin/checker.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace cnet::sim {
namespace {

/// One token's choice index, decomposed into (entry slot, delay mask, input).
struct Choice {
  std::uint32_t slot = 0;
  std::uint32_t delay_mask = 0;
  std::uint32_t input = 0;
};

class Enumerator {
 public:
  Enumerator(const topo::Network& net, const ExhaustiveParams& params)
      : net_(&net), params_(params) {
    CNET_CHECK(params.tokens >= 1 && params.tokens <= ExhaustiveParams::kMaxTokens);
    CNET_CHECK(params.c1 > 0.0 && params.c2 >= params.c1);
    CNET_CHECK(params.entry_slots >= 1 && params.entry_step > 0.0);
    CNET_CHECK_MSG(net.depth() <= ExhaustiveParams::kMaxDepth,
                   "delay masks are enumerated per layer");
    choices_.resize(params.tokens);
  }

  ExhaustiveResult run() {
    recurse(0);
    return std::move(result_);
  }

 private:
  void recurse(std::uint32_t token) {
    if (result_.violation_found) return;
    if (token == params_.tokens) {
      evaluate();
      return;
    }
    const std::uint32_t inputs = params_.enumerate_inputs ? net_->input_width() : 1;
    const std::uint32_t masks = 1u << net_->depth();
    for (std::uint32_t slot = 0; slot < params_.entry_slots; ++slot) {
      for (std::uint32_t mask = 0; mask < masks; ++mask) {
        for (std::uint32_t input = 0; input < inputs; ++input) {
          choices_[token] = Choice{slot, mask,
                                   params_.enumerate_inputs
                                       ? input
                                       : token % net_->input_width()};
          recurse(token + 1);
          if (result_.violation_found) return;
        }
      }
    }
  }

  void evaluate() {
    ++result_.schedules_checked;
    PaceModel paces(params_.c1);
    Simulator simulator(*net_, paces);
    // Injection must be non-decreasing in time for the simulator, so sort
    // plans by entry slot (stably: equal entry times keep plan order).
    std::vector<std::uint32_t> order(params_.tokens);
    for (std::uint32_t t = 0; t < params_.tokens; ++t) order[t] = t;
    std::stable_sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
      return choices_[a].slot < choices_[b].slot;
    });
    // TokenIds are assigned by injection order; remember which plan each
    // simulator token corresponds to.
    std::vector<std::uint32_t> plan_of(params_.tokens);
    for (std::uint32_t rank = 0; rank < params_.tokens; ++rank) {
      const std::uint32_t plan = order[rank];
      const double entry = choices_[plan].slot * params_.entry_step;
      const TokenId id = simulator.inject(choices_[plan].input, entry);
      plan_of[id] = plan;
      // Reapply the delay overrides under the simulator-assigned id.
      for (std::uint32_t layer = 1; layer <= net_->depth(); ++layer) {
        const bool slow = (choices_[plan].delay_mask >> (layer - 1)) & 1u;
        paces.set_link_delay(id, layer, slow ? params_.c2 : params_.c1);
      }
    }
    simulator.run();
    const lin::CheckResult analysis = lin::check(simulator.history());
    if (!analysis.linearizable()) {
      result_.violation_found = true;
      result_.witness.tokens.resize(params_.tokens);
      for (std::uint32_t id = 0; id < params_.tokens; ++id) {
        const Choice& choice = choices_[plan_of[id]];
        ScheduleWitness::TokenPlan& plan = result_.witness.tokens[id];
        plan.entry = choice.slot * params_.entry_step;
        plan.input = choice.input;
        plan.link_delays.clear();
        for (std::uint32_t layer = 1; layer <= net_->depth(); ++layer) {
          const bool slow = (choice.delay_mask >> (layer - 1)) & 1u;
          plan.link_delays.push_back(slow ? params_.c2 : params_.c1);
        }
        plan.value = simulator.token(id).value;
        plan.exit = simulator.token(id).exit_time;
      }
    }
  }

  const topo::Network* net_;
  ExhaustiveParams params_;
  std::vector<Choice> choices_;
  ExhaustiveResult result_;
};

}  // namespace

ExhaustiveResult exhaustive_search(const topo::Network& net, const ExhaustiveParams& params) {
  Enumerator enumerator(net, params);
  return enumerator.run();
}

}  // namespace cnet::sim
