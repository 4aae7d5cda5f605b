#include "run/backend_spec.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "run/workload.h"
#include "topo/builders.h"
#include "util/assert.h"

namespace cnet::run {
namespace {

constexpr std::uint32_t kMaxWidth = 1u << 16;
constexpr std::uint32_t kMaxPadRatio = 64;

// One failure channel for the whole parse: every helper reports through
// fail(), which prefixes the offending spec so the user sees exactly what
// was rejected no matter how deep the error surfaced.
struct Parser {
  std::string_view spec;
  std::string* error;

  bool fail(const std::string& why) const {
    if (error != nullptr) *error = "spec '" + std::string(spec) + "': " + why;
    return false;
  }
};

bool parse_u32(std::string_view text, std::uint32_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  if (value > 0xffffffffull) return false;
  *out = static_cast<std::uint32_t>(value);
  return true;
}

bool parse_f64(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string buf(text);  // strtod needs a terminator
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool parse_on_off(const Parser& p, std::string_view key, std::string_view value, bool* out) {
  if (value.empty() || value == "on") {
    *out = true;
    return true;
  }
  if (value == "off") {
    *out = false;
    return true;
  }
  return p.fail("option '" + std::string(key) + "' takes on|off (got '" + std::string(value) +
                "')");
}

struct Option {
  std::string_view key;
  std::string_view value;  ///< empty for bare flags
  bool has_value = false;
};

bool split_options(const Parser& p, std::string_view text, std::vector<Option>* out) {
  while (!text.empty()) {
    const std::size_t amp = text.find('&');
    const std::string_view item = text.substr(0, amp);
    text = amp == std::string_view::npos ? std::string_view{} : text.substr(amp + 1);
    if (item.empty()) return p.fail("empty option (stray '&' or '?')");
    const std::size_t eq = item.find('=');
    Option opt;
    opt.key = item.substr(0, eq);
    if (eq != std::string_view::npos) {
      opt.value = item.substr(eq + 1);
      opt.has_value = true;
      if (opt.value.empty()) {
        return p.fail("option '" + std::string(opt.key) + "' has an empty value");
      }
    }
    if (opt.key.empty()) return p.fail("option with empty key");
    out->push_back(opt);
  }
  return true;
}

bool width_error(const Parser& p, Structure structure, std::string_view width_text,
                 const std::string& why) {
  return p.fail(std::string(structure_name(structure)) + " width '" + std::string(width_text) +
                "' " + why);
}

// The degenerate widths (0, 1, non-powers-of-two, absurd sizes) that used to
// fall through is_pow2/log2_exact into CNET_CHECK aborts inside
// topo::builders are rejected here, with the spec echoed back.
bool validate_width(const Parser& p, Structure structure, std::string_view width_text,
                    std::uint32_t width) {
  if (width > kMaxWidth) {
    return width_error(p, structure, width_text,
                       "exceeds the maximum " + std::to_string(kMaxWidth));
  }
  if (structure == Structure::kBalancer) {
    if (width < 1) return width_error(p, structure, width_text, "must be >= 1");
    return true;
  }
  if (!topo::is_pow2(width) || width < 2) {
    return width_error(p, structure, width_text, "must be a power of two >= 2");
  }
  return true;
}

bool apply_common_option(const Parser& p, const Option& opt, BackendSpec* spec, bool* handled) {
  *handled = true;
  if (opt.key == "pad") {
    if (!parse_u32(opt.value, &spec->pad_ratio) || spec->pad_ratio > kMaxPadRatio) {
      return p.fail("option 'pad' takes a ratio bound k in [0, " +
                    std::to_string(kMaxPadRatio) + "] (got '" + std::string(opt.value) + "')");
    }
    return true;
  }
  if (opt.key == "metrics") {
    if (spec->family == Family::kSim) {
      return p.fail("option 'metrics' does not apply to sim (no obs surface)");
    }
    return parse_on_off(p, opt.key, opt.value, &spec->metrics);
  }
  if (opt.key == "fault") {
    std::string why;
    if (!fault::parse_fault_plan(opt.value, &spec->fault, &why)) {
      return p.fail("option 'fault': " + why);
    }
    return true;
  }
  if (opt.key == "engine") {
    return p.fail("option 'engine' was removed: rt always runs the compiled plan, mp the "
                  "lock-free actors");
  }
  *handled = false;
  return true;
}

bool apply_rt_option(const Parser& p, const Option& opt, BackendSpec* spec) {
  if (opt.key == "diffraction" || opt.key == "prism") {
    return p.fail("option '" + std::string(opt.key) +
                  "' does not apply to rt: on real threads a prism ran 7-68x slower than the "
                  "toggle it falls back to, so rt:tree:W counts through plain toggles (the "
                  "diffracting tree of Figure 6 runs on psim:tree:W?diffraction=on)");
  }
  if (opt.key == "mcs") {
    return p.fail("option 'mcs' does not apply to rt: on real threads MCS-locked balancers "
                  "were never faster than the fetch-add toggles rt counts through, and their "
                  "queue nodes live on caller stacks no other process can reach (the paper's "
                  "MCS-locked network of §5 runs on psim:bitonic:W)");
  }
  if (opt.key == "threads") {
    if (!parse_u32(opt.value, &spec->max_threads) || spec->max_threads == 0) {
      return p.fail("option 'threads' takes a bound >= 1 (got '" + std::string(opt.value) +
                    "')");
    }
    return true;
  }
  if (opt.key == "degrade") {
    if (opt.value == "report") {
      spec->degrade = rt::DegradePolicy::kReport;
      return true;
    }
    if (opt.value == "pad") {
      return p.fail("option 'degrade=pad' was removed: Cor 3.12 padding needs a known bound "
                    "c2 < k*c1, and a c2/c1 ratio measured online on a preemptive host gives "
                    "none; use degrade=report, which downgrades the guarantee once Cor 3.9 "
                    "breaks");
    }
    return p.fail("option 'degrade' takes report (got '" + std::string(opt.value) + "')");
  }
  if (opt.key == "ws") {
    if (opt.value.empty() || opt.value.size() > 40) {
      return p.fail("option 'ws' takes a workspace name of 1-40 chars (got '" +
                    std::string(opt.value) + "')");
    }
    for (const char c : opt.value) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
      if (!ok) {
        return p.fail("option 'ws' allows [A-Za-z0-9_.-] (got '" + std::string(opt.value) +
                      "')");
      }
    }
    spec->ws = std::string(opt.value);
    return true;
  }
  if (opt.key == "tiles") {
    if (!parse_u32(opt.value, &spec->tiles) || spec->tiles == 0 || spec->tiles > 32) {
      return p.fail("option 'tiles' takes a worker-process count in [1, 32] (got '" +
                    std::string(opt.value) + "')");
    }
    return true;
  }
  if (opt.key == "pipeline") {
    if (opt.value.empty() || opt.value == "on" || opt.value == "1") {
      spec->pipeline = true;
      return true;
    }
    if (opt.value == "off" || opt.value == "0") {
      spec->pipeline = false;
      return true;
    }
    return p.fail("option 'pipeline' takes on|off|1|0 (got '" + std::string(opt.value) + "')");
  }
  return p.fail("unknown rt option '" + std::string(opt.key) +
                "' (valid: threads, degrade, ws, tiles, pipeline, metrics, fault)");
}

bool apply_psim_option(const Parser& p, const Option& opt, BackendSpec* spec) {
  if (opt.key == "procs") {
    if (!parse_u32(opt.value, &spec->procs) || spec->procs == 0) {
      return p.fail("option 'procs' takes a processor count >= 1 (got '" +
                    std::string(opt.value) + "')");
    }
    return true;
  }
  if (opt.key == "diffraction") return parse_on_off(p, opt.key, opt.value, &spec->diffraction);
  if (opt.key == "mcs") {
    return p.fail("option 'mcs' does not apply to psim: psim's toggle balancers are always "
                  "MCS-locked, so the key built the same machine as the spec without it "
                  "(diffraction=on selects prisms)");
  }
  if (opt.key == "prism") {
    if (!parse_u32(opt.value, &spec->prism_width)) {
      return p.fail("option 'prism' takes a slot count (got '" + std::string(opt.value) + "')");
    }
    return true;
  }
  if (opt.key == "hop") {
    if (!parse_u32(opt.value, &spec->hop_cycles)) {
      return p.fail("option 'hop' takes a cycle count (got '" + std::string(opt.value) + "')");
    }
    return true;
  }
  return p.fail("unknown psim option '" + std::string(opt.key) +
                "' (valid: procs, diffraction, prism, hop, pad, metrics, fault)");
}

bool apply_sim_option(const Parser& p, const Option& opt, BackendSpec* spec) {
  if (opt.key == "model") {
    if (opt.value == "uniform") {
      spec->delay = DelayKind::kUniform;
      return true;
    }
    if (opt.value == "fixed") {
      spec->delay = DelayKind::kFixed;
      return true;
    }
    return p.fail("option 'model' takes uniform|fixed (got '" + std::string(opt.value) + "')");
  }
  if (opt.key == "c1" || opt.key == "c2") {
    double value = 0.0;
    if (!parse_f64(opt.value, &value) || value <= 0.0) {
      return p.fail("option '" + std::string(opt.key) + "' takes a positive time (got '" +
                    std::string(opt.value) + "')");
    }
    (opt.key == "c1" ? spec->c1 : spec->c2) = value;
    return true;
  }
  return p.fail("unknown sim option '" + std::string(opt.key) +
                "' (valid: model, c1, c2, pad, fault)");
}

bool apply_mp_option(const Parser& p, const Option& opt, BackendSpec* spec) {
  if (opt.key == "actors") {
    if (!parse_u32(opt.value, &spec->actors) || spec->actors == 0 ||
        spec->actors > kMaxOsThreads) {
      return p.fail("option 'actors' takes a worker count >= 1, capped at " +
                    std::to_string(kMaxOsThreads) + " OS threads (got '" +
                    std::string(opt.value) + "')");
    }
    return true;
  }
  return p.fail("unknown mp option '" + std::string(opt.key) +
                "' (valid: actors, pad, metrics, fault)");
}

bool validate_combination(const Parser& p, BackendSpec* spec) {
  if (spec->family == Family::kSim) {
    if (spec->delay == DelayKind::kUniform && spec->c2 < spec->c1) {
      return p.fail("c2 must be >= c1 (got c1=" + std::to_string(spec->c1) +
                    ", c2=" + std::to_string(spec->c2) + ")");
    }
  }
  if (spec->diffraction && spec->structure != Structure::kTree) {
    // Diffraction only applies to 1-in/2-out nodes; bitonic/periodic have
    // none, so accepting the flag there would silently do nothing.
    return p.fail("option 'diffraction' requires the tree structure");
  }
  if (spec->tiles != 0 && spec->ws.empty()) {
    return p.fail("option 'tiles' requires ws=<name> (worker processes share state "
                  "through a workspace)");
  }
  if (spec->pipeline && spec->tiles == 0) {
    return p.fail("option 'pipeline' requires tiles=<n> (it shapes a multi-process "
                  "deployment)");
  }
  if (spec->fault.any() && spec->family != Family::kMp) {
    // Token stalls exist everywhere a token traverses links. psim realizes
    // stall and delay as simulated-cycle debits in the timing wheel (the ns
    // fields are read as cycles); the remaining clauses name machinery the
    // respective backend does not have, each rejected with its own reason.
    if (spec->family == Family::kPsim) {
      if (spec->fault.has_pauses()) {
        return p.fail(
            "fault clause 'pause' does not apply to psim (simulated processors "
            "are engine coroutines — there is no worker thread to park)");
      }
      if (spec->fault.has_deaths()) {
        return p.fail(
            "fault clause 'die' does not apply to psim (a simulated processor "
            "cannot abandon its token: the closed loop has no client side)");
      }
    } else {
      // pause/die/delay name mp-specific machinery (workers to pause,
      // deliveries to delay, clients that can abandon a token and let it fly
      // on) — except that an rt *deployment* (tiles=) realizes die: as a
      // real SIGKILL of a worker process (deploy/counter_deploy.h).
      const bool rt_deploy_death =
          spec->family == Family::kRt && spec->tiles != 0 && spec->fault.has_deaths() &&
          !spec->fault.has_pauses() && !spec->fault.has_delays() && !spec->fault.has_stalls();
      if (!rt_deploy_death &&
          (spec->fault.has_pauses() || spec->fault.has_deaths() || spec->fault.has_delays())) {
        return p.fail("fault clauses pause/die/delay apply to mp only (" +
                      std::string(family_name(spec->family)) +
                      " supports stall; psim additionally supports delay as a cycle "
                      "debit; rt with ws=&tiles= supports die as a real process kill)");
      }
    }
  }
  if (spec->degrade != rt::DegradePolicy::kOff && !spec->metrics) {
    return p.fail(
        "option 'degrade' requires metrics=on (the guard watches the obs "
        "c2/c1 estimator)");
  }
  return true;
}

}  // namespace

const char* family_name(Family family) {
  switch (family) {
    case Family::kSim: return "sim";
    case Family::kPsim: return "psim";
    case Family::kRt: return "rt";
    case Family::kMp: return "mp";
  }
  return "?";
}

const char* structure_name(Structure structure) {
  switch (structure) {
    case Structure::kBitonic: return "bitonic";
    case Structure::kPeriodic: return "periodic";
    case Structure::kTree: return "tree";
    case Structure::kBalancer: return "balancer";
  }
  return "?";
}

bool parse_spec(std::string_view text, BackendSpec* out, std::string* error) {
  const Parser p{text, error};
  *out = BackendSpec{};

  const std::size_t query = text.find('?');
  const std::string_view head = text.substr(0, query);
  const std::string_view options_text =
      query == std::string_view::npos ? std::string_view{} : text.substr(query + 1);
  if (query != std::string_view::npos && options_text.empty()) {
    return p.fail("empty option list after '?'");
  }

  const std::size_t colon1 = head.find(':');
  const std::size_t colon2 = colon1 == std::string_view::npos
                                 ? std::string_view::npos
                                 : head.find(':', colon1 + 1);
  if (colon1 == std::string_view::npos || colon2 == std::string_view::npos) {
    return p.fail("expected <family>:<structure>:<width>[?options]");
  }
  const std::string_view family_text = head.substr(0, colon1);
  const std::string_view structure_text = head.substr(colon1 + 1, colon2 - colon1 - 1);
  const std::string_view width_text = head.substr(colon2 + 1);

  if (family_text == "sim") {
    out->family = Family::kSim;
  } else if (family_text == "psim") {
    out->family = Family::kPsim;
  } else if (family_text == "rt") {
    out->family = Family::kRt;
  } else if (family_text == "mp") {
    out->family = Family::kMp;
  } else {
    return p.fail("unknown backend family '" + std::string(family_text) +
                  "' (valid: sim, psim, rt, mp)");
  }

  if (structure_text == "bitonic") {
    out->structure = Structure::kBitonic;
  } else if (structure_text == "periodic") {
    out->structure = Structure::kPeriodic;
  } else if (structure_text == "tree") {
    out->structure = Structure::kTree;
  } else if (structure_text == "balancer") {
    out->structure = Structure::kBalancer;
  } else {
    return p.fail("unknown structure '" + std::string(structure_text) +
                  "' (valid: bitonic, periodic, tree, balancer)");
  }

  if (!parse_u32(width_text, &out->width)) {
    return p.fail("width '" + std::string(width_text) + "' is not a number");
  }
  if (!validate_width(p, out->structure, width_text, out->width)) return false;

  std::vector<Option> options;
  if (!split_options(p, options_text, &options)) return false;
  bool rt_pad = false;  // refused after the loop, so another bad option names itself
  // Keys that select nothing unless another key is set, refused after the
  // loop so the order of the keys does not matter.
  bool prism_key = false, c2_key = false;
  for (const Option& opt : options) {
    if (out->family == Family::kRt && opt.key == "pad") {
      rt_pad = true;
      continue;
    }
    prism_key = prism_key || opt.key == "prism";
    c2_key = c2_key || opt.key == "c2";
    bool handled = false;
    if (!apply_common_option(p, opt, out, &handled)) return false;
    if (handled) continue;
    bool ok = false;
    switch (out->family) {
      case Family::kRt: ok = apply_rt_option(p, opt, out); break;
      case Family::kPsim: ok = apply_psim_option(p, opt, out); break;
      case Family::kSim: ok = apply_sim_option(p, opt, out); break;
      case Family::kMp: ok = apply_mp_option(p, opt, out); break;
    }
    if (!ok) return false;
  }
  if (rt_pad) {
    return p.fail("option 'pad' does not apply to rt: real threads cross pass-through nodes "
                  "in no time, so padding buys no Cor 3.12 guarantee (sim, psim and mp keep "
                  "pad=; on rt, metrics&degrade=report checks Cor 3.9 online)");
  }
  if (prism_key && out->family == Family::kPsim && !out->diffraction) {
    return p.fail("option 'prism' requires diffraction=on: psim builds prisms only on a "
                  "diffracting tree, so without it the slot count sizes nothing");
  }
  if (c2_key && out->family == Family::kSim && out->delay == DelayKind::kFixed) {
    return p.fail("option 'c2' does not apply to model=fixed: every link takes exactly c1, so "
                  "c2 bounds nothing (model=uniform draws link times from [c1, c2])");
  }

  return validate_combination(p, out);
}

std::string BackendSpec::to_string() const {
  std::string s = family_name(family);
  s += ':';
  s += structure_name(structure);
  s += ':';
  s += std::to_string(width);

  std::vector<std::string> opts;
  const BackendSpec defaults{};
  switch (family) {
    case Family::kRt:
      if (max_threads != defaults.max_threads) {
        opts.push_back("threads=" + std::to_string(max_threads));
      }
      if (degrade == rt::DegradePolicy::kReport) opts.push_back("degrade=report");
      if (!ws.empty()) opts.push_back("ws=" + ws);
      if (tiles != defaults.tiles) opts.push_back("tiles=" + std::to_string(tiles));
      if (pipeline) opts.push_back("pipeline=1");
      break;
    case Family::kPsim:
      if (procs != defaults.procs) opts.push_back("procs=" + std::to_string(procs));
      if (diffraction) opts.push_back("diffraction=on");
      if (prism_width != defaults.prism_width) {
        opts.push_back("prism=" + std::to_string(prism_width));
      }
      if (hop_cycles != defaults.hop_cycles) opts.push_back("hop=" + std::to_string(hop_cycles));
      break;
    case Family::kSim: {
      if (delay == DelayKind::kFixed) opts.push_back("model=fixed");
      const auto fmt = [](double v) {
        std::string t = std::to_string(v);  // trim trailing zeros: 1.500000 -> 1.5
        while (t.find('.') != std::string::npos && (t.back() == '0' || t.back() == '.')) {
          const bool dot = t.back() == '.';
          t.pop_back();
          if (dot) break;
        }
        return t;
      };
      if (c1 != defaults.c1) opts.push_back("c1=" + fmt(c1));
      if (c2 != defaults.c2) opts.push_back("c2=" + fmt(c2));
      break;
    }
    case Family::kMp:
      if (actors != defaults.actors) opts.push_back("actors=" + std::to_string(actors));
      break;
  }
  if (pad_ratio != defaults.pad_ratio) opts.push_back("pad=" + std::to_string(pad_ratio));
  if (metrics) opts.push_back("metrics=on");
  if (fault.any()) opts.push_back("fault=" + fault.to_string());

  for (std::size_t i = 0; i < opts.size(); ++i) {
    s += i == 0 ? '?' : '&';
    s += opts[i];
  }
  return s;
}

topo::Network BackendSpec::build_network() const {
  topo::Network net = structure == Structure::kBitonic    ? topo::make_bitonic(width)
                      : structure == Structure::kPeriodic ? topo::make_periodic(width)
                      : structure == Structure::kTree     ? topo::make_counting_tree(width)
                                                          : topo::make_balancer(width);
  if (pad_ratio > 2) {
    net = topo::make_padded(net, topo::padding_prefix_length(net.depth(), pad_ratio));
  }
  return net;
}

rt::CounterOptions BackendSpec::counter_options(obs::CounterMetrics* sink) const {
  rt::CounterOptions options;
  options.max_threads = max_threads;
  options.metrics = sink;
  options.degrade = degrade;
  return options;
}

BackendSpec parse_spec_or_die(std::string_view text) {
  BackendSpec spec;
  std::string error;
  if (!parse_spec(text, &spec, &error)) {
    CNET_CHECK_MSG(false, error.c_str());
  }
  return spec;
}

}  // namespace cnet::run
