// The pipelined process-tile deployment (counter_deploy.h,
// run_pipeline_deployment): ingress tiles publish batched token *requests*
// into credit-based shm links (link::Ring), one counter tile drains them
// through the workspace-resident compiled plan, one record tile commits
// per-stream histories. Requests stay in flight across stages — the
// isolation tax is paid per *burst*, not per operation. Layout, boot,
// kills, merge and checks are the shared supervise() (deploy_internal.h);
// this file lists its objects and links and the three tile bodies.
//
// Crash model (all state in the workspace, like counter_deploy):
//   - ingress i persists its published-request count in pipe.cursors and
//     bumps it only *after* the frag is in the ring: a kill between the
//     two republishes the same req_seq (at-least-once), which record
//     detects against its per-stream watermark and drops as a dup.
//   - the counter is stateless beyond its ring cursors, which live in the
//     rings themselves (consumed watermarks in credit lines, pub_seq via
//     resync_producer). A kill can orphan one drained batch (claimed from
//     the plan, never sent) and one replayed batch (dup dropped at
//     record) — hence the kills x 2 x batch loss bound.
//   - record writes a request's OpRecords, release-stores the stream's
//     committed cursor, bumps its request watermark, and only then
//     advances the ring: a kill anywhere in that sequence makes the
//     restart redo idempotent work (the frag is still in the ring —
//     record is a reliable consumer — and rewrites identical records).
#include "deploy/counter_deploy.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "deploy/deploy_internal.h"
#include "link/ring.h"
#include "run/workload.h"

namespace cnet::deploy {
namespace {

using detail::kMaxTiles;
using detail::now_ns;
using detail::OpRecord;

constexpr char kReqCursorObj[] = "pipe.cursors";
constexpr char kRecStateObj[] = "pipe.recstate";

std::string req_link_name(std::uint32_t stream) { return "req" + std::to_string(stream); }
constexpr char kResLink[] = "res";
/// Link geometry (link::RingOptions::depth/burst) of every pipeline link.
constexpr std::uint32_t kLinkDepth = 128;
constexpr std::uint32_t kLinkBurst = 32;

/// Most ingress streams: every tile slot but the counter's and the record's.
constexpr std::uint32_t kMaxStreams = kMaxTiles - 2;
// The widest layout — the shared objects, two pipeline objects, a request
// link per stream and the response link — fits one workspace.
static_assert(std::size(detail::kSharedObjects) + 2 + kMaxStreams + 1 <= shm::kMaxObjects);

/// One token-request frag, ingress -> counter.
struct ReqFrag {
  std::uint64_t req_seq = 0;   ///< per-stream request index
  std::uint64_t start_ns = 0;  ///< when ingress published (operation start)
  std::uint32_t count = 0;     ///< tokens requested (== batch except the tail)
  std::uint32_t stream = 0;    ///< ingress index
};
static_assert(sizeof(ReqFrag) == 24);

/// One drained batch, counter -> record; `count` values follow the header.
struct ResFrag {
  std::uint64_t req_seq = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  ///< when the counter finished next_batch
  std::uint32_t count = 0;
  std::uint32_t stream = 0;
};
static_assert(sizeof(ResFrag) == 32);
static_assert(sizeof(ResFrag) + std::uint64_t{detail::kMaxBatch} * 8 <= link::kMaxMtu,
              "a full response frag must fit one link frag");

/// Per-ingress published-request watermark (ingress-owned line).
struct alignas(64) IngressCursor {
  std::atomic<std::uint64_t> reqs_pub{0};
};

/// Per-stream record-side state (record-owned line; the supervisor reads
/// it after the run). The stream's committed-op watermark is its
/// detail::StreamCursor, like every other deployment's.
struct alignas(64) RecState {
  std::atomic<std::uint64_t> reqs_recorded{0};  ///< record's dedup watermark
  std::atomic<std::uint64_t> dups{0};           ///< at-least-once replays dropped
  std::atomic<std::uint64_t> gaps{0};           ///< req_seq skips (invariant breach)
};
static_assert(sizeof(IngressCursor) == 64 && sizeof(RecState) == 64);

/// Deterministic shape of one pipelined run, recomputed identically in
/// every process: per-stream op quotas and the request schedule over them.
struct PipeShape {
  std::uint32_t streams = 0;
  std::uint32_t batch = 0;
  std::vector<std::uint64_t> quota;   ///< ops per stream
  std::vector<std::uint64_t> n_reqs;  ///< requests per stream
  std::uint64_t total_reqs = 0;

  static PipeShape make(std::uint64_t total_ops, std::uint32_t streams,
                        std::uint32_t batch) {
    PipeShape shape;
    shape.streams = streams;
    shape.batch = batch;
    shape.quota = run::issuer_quotas(total_ops, streams);
    shape.n_reqs.resize(streams);
    for (std::uint32_t s = 0; s < streams; ++s) {
      shape.n_reqs[s] = (shape.quota[s] + batch - 1) / batch;
      shape.total_reqs += shape.n_reqs[s];
    }
    return shape;
  }
  std::uint32_t count_of(std::uint32_t stream, std::uint64_t req) const {
    const std::uint64_t done = req * batch;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(batch, quota[stream] - done));
  }
};

/// Tile numbering: 0 = counter, 1..streams = ingress, streams + 1 = record.
constexpr std::uint32_t counter_tile() { return 0; }
std::uint32_t ingress_tile(std::uint32_t stream) { return 1 + stream; }
std::uint32_t record_tile(std::uint32_t streams) { return 1 + streams; }

/// Exit code 12: a link object failed Ring::attach (corrupt geometry).
int attach_link(shm::Workspace& ws, const std::string& link_name, link::Ring* out) {
  std::uint64_t footprint = 0;
  void* mem = ws.find(link_name, &footprint);
  if (mem == nullptr) return 11;
  std::string error;
  if (!link::Ring::attach(mem, footprint, out, &error)) return 12;
  return 0;
}

// Tile bodies. Exit codes: 0 done, 10 attach failed, 11 an object is
// missing, 12 a link failed to attach.

/// Ingress refuses to *publish* past the kill watermark (measured in
/// recorded ops, the pipeline's committed truth) until the owed SIGKILL has
/// landed. The in-flight slack between published and recorded is bounded
/// by the link depths, so the overshoot past the watermark is bounded too.
int ingress_main(const PipeShape& shape, std::uint32_t stream, int ws_fd) {
  detail::TileEnv env;
  if (const int rc = detail::open_tile(ws_fd, &env)) return rc;
  auto* ingress = static_cast<IngressCursor*>(env.ws.find(kReqCursorObj));
  if (ingress == nullptr) return 11;
  link::Ring ring;
  if (const int rc = attach_link(env.ws, req_link_name(stream), &ring)) return rc;
  ring.resync_producer();
  if (!detail::boot_barrier(env.ctl, ingress_tile(stream))) return 0;

  IngressCursor& cursor = ingress[stream];
  std::uint64_t r = cursor.reqs_pub.load(std::memory_order_acquire);
  while (r < shape.n_reqs[stream]) {
    if (env.ctl->stop.load(std::memory_order_acquire) != 0) return 0;
    if (!detail::wait_for_hold(env.ctl, env.cursors, shape.streams)) return 0;
    ReqFrag req;
    req.req_seq = r;
    req.start_ns = now_ns();
    req.count = shape.count_of(stream, r);
    req.stream = stream;
    if (!ring.send(r, &req, sizeof(req), 0, &env.ctl->stop)) return 0;
    // Publish-then-count: a kill landing here resends req_seq r, which
    // record drops against its watermark (at-least-once, never lost).
    cursor.reqs_pub.store(r + 1, std::memory_order_release);
    ++r;
  }
  return 0;
}

int counter_main(const run::BackendSpec& spec, const PipeShape& shape, int ws_fd) {
  detail::TileEnv env;
  if (const int rc = detail::open_tile(ws_fd, &env)) return rc;
  const std::unique_ptr<rt::NetworkCounter> counter = detail::attach_plan(env.ws, spec);
  if (counter == nullptr) return 11;

  std::vector<link::Ring> req_rings(shape.streams);
  std::vector<link::Consumer> req_in(shape.streams);
  for (std::uint32_t s = 0; s < shape.streams; ++s) {
    if (const int rc = attach_link(env.ws, req_link_name(s), &req_rings[s])) return rc;
    req_in[s] = req_rings[s].consumer();
  }
  link::Ring res_ring;
  if (const int rc = attach_link(env.ws, kResLink, &res_ring)) return rc;
  res_ring.resync_producer();
  if (!detail::boot_barrier(env.ctl, counter_tile())) return 0;

  std::vector<std::uint8_t> out(sizeof(ResFrag) + std::size_t{shape.batch} * 8);
  std::vector<std::uint64_t> values(shape.batch);
  const std::uint32_t input_width = counter->input_width();
  while (env.ctl->stop.load(std::memory_order_acquire) == 0) {
    bool progress = false;
    for (std::uint32_t s = 0; s < shape.streams; ++s) {
      link::Frag meta;
      ReqFrag req;
      if (req_in[s].read(&meta, &req, sizeof(req)) != link::Consumer::Poll::kFrag) continue;
      progress = true;
      const std::uint32_t n = std::min(req.count, shape.batch);
      counter->next_batch(/*thread=*/0, req.stream % input_width,
                          std::span<std::uint64_t>(values.data(), n));
      auto* res = reinterpret_cast<ResFrag*>(out.data());
      res->req_seq = req.req_seq;
      res->start_ns = req.start_ns;
      res->end_ns = now_ns();
      res->count = n;
      res->stream = req.stream;
      std::memcpy(out.data() + sizeof(ResFrag), values.data(), std::size_t{n} * 8);
      if (!res_ring.send(req.req_seq, out.data(),
                         static_cast<std::uint32_t>(sizeof(ResFrag) + std::size_t{n} * 8),
                         0, &env.ctl->stop)) {
        return 0;
      }
      // Advance only after the response is in the res ring: a kill before
      // this point replays the request, and the replay's response is
      // deduped at record (the values it claimed are the loss bound).
      req_in[s].advance();
    }
    if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return 0;
}

int record_main(const PipeShape& shape, const std::vector<detail::Stream>& streams, int ws_fd) {
  detail::TileEnv env;
  if (const int rc = detail::open_tile(ws_fd, &env)) return rc;
  auto* rec = static_cast<RecState*>(env.ws.find(kRecStateObj));
  if (rec == nullptr) return 11;
  link::Ring res_ring;
  if (const int rc = attach_link(env.ws, kResLink, &res_ring)) return rc;
  link::Consumer in = res_ring.consumer();
  if (!detail::boot_barrier(env.ctl, record_tile(shape.streams))) return 0;

  const auto total_recorded = [&] {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < shape.streams; ++s) {
      total += rec[s].reqs_recorded.load(std::memory_order_relaxed);
    }
    return total;
  };
  std::vector<std::uint8_t> buf(sizeof(ResFrag) + std::size_t{shape.batch} * 8);
  while (total_recorded() < shape.total_reqs) {
    link::Frag meta;
    if (in.read(&meta, buf.data(), static_cast<std::uint32_t>(buf.size())) !=
        link::Consumer::Poll::kFrag) {
      if (env.ctl->stop.load(std::memory_order_acquire) != 0) return 0;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    const auto* res = reinterpret_cast<const ResFrag*>(buf.data());
    const auto* vals = reinterpret_cast<const std::uint64_t*>(buf.data() + sizeof(ResFrag));
    RecState& rs = rec[res->stream];
    const std::uint64_t exp = rs.reqs_recorded.load(std::memory_order_relaxed);
    if (res->req_seq < exp) {
      rs.dups.fetch_add(1, std::memory_order_relaxed);
    } else if (res->req_seq > exp) {
      rs.gaps.fetch_add(1, std::memory_order_relaxed);  // reliable links: cannot happen
    } else {
      const std::uint64_t base = res->req_seq * shape.batch;
      OpRecord* slice = env.hist + streams[res->stream].base;
      for (std::uint32_t j = 0; j < res->count; ++j) {
        OpRecord& op = slice[base + j];
        op.start_ns = res->start_ns;
        op.end_ns = res->end_ns;
        op.value = vals[j];
        op.actor = res->stream;
      }
      env.cursors[res->stream].committed.store(base + res->count, std::memory_order_release);
      rs.reqs_recorded.store(exp + 1, std::memory_order_release);
    }
    // Advance last: record is a reliable consumer, so until here the frag
    // is pinned in the ring and a restarted record redoes idempotent work.
    in.advance();
  }
  return 0;
}

}  // namespace

DeployReport run_pipeline_deployment(const DeployOptions& options) {
  DeployReport report;
  report.pipelined = true;
  const std::uint32_t streams = detail::tile_count(options);
  report.tiles = streams;
  report.threads_per_tile = 1;

  std::string error;
  if (!detail::check_options(options, streams, 1, &error)) {
    return detail::failed(std::move(report), error);
  }
  if (options.threads_per_tile != 1) {
    return detail::failed(std::move(report),
                          "deploy: pipeline tiles are single-stage loops; threads_per_tile "
                          "must be 1 (got " +
                              std::to_string(options.threads_per_tile) + ")");
  }
  if (streams > kMaxStreams) {
    return detail::failed(std::move(report),
                          "deploy: pipeline needs counter+record slots; tiles must be <= " +
                              std::to_string(kMaxStreams));
  }
  if (std::uint64_t{streams} + 2 > options.spec.max_threads) {
    return detail::failed(std::move(report),
                          "deploy: pipeline uses tiles+2 thread slices (" +
                              std::to_string(streams + 2) +
                              ") which exceeds the spec's thread bound " +
                              std::to_string(options.spec.max_threads) + " (raise threads=)");
  }

  const PipeShape shape = PipeShape::make(options.total_ops, streams, options.batch);
  detail::Deployment d(options.spec);
  d.tiles = streams + 2;
  // A kill can orphan a drained-but-unsent batch plus a replayed request's
  // values, and tokens vaporized mid-network skew exits by at most a batch.
  d.loss_per_kill = 2 * std::uint64_t{options.batch};
  d.slack_per_kill = options.batch;

  // Ingress s produces into link req<s> and the counter consumes it; the
  // counter produces into res and the record tile consumes it.
  for (std::uint32_t s = 0; s < streams; ++s) d.streams.push_back({shape.quota[s]});
  d.objects = {
      {kReqCursorObj, alignof(IngressCursor), std::uint64_t{streams} * sizeof(IngressCursor)},
      {kRecStateObj, alignof(RecState), std::uint64_t{streams} * sizeof(RecState)}};
  for (std::uint32_t s = 0; s < streams; ++s) {
    d.links.push_back({req_link_name(s), {kLinkDepth, kLinkBurst, sizeof(ReqFrag)}});
  }
  d.links.push_back(
      {kResLink,
       {kLinkDepth, kLinkBurst,
        static_cast<std::uint32_t>(sizeof(ResFrag) + std::uint64_t{shape.batch} * 8)}});

  IngressCursor* ingress = nullptr;
  RecState* rec = nullptr;
  d.construct = [&](shm::Workspace& ws) {
    ingress = static_cast<IngressCursor*>(ws.find(kReqCursorObj));
    rec = static_cast<RecState*>(ws.find(kRecStateObj));
    for (std::uint32_t s = 0; s < streams; ++s) {
      new (&ingress[s]) IngressCursor();
      new (&rec[s]) RecState();
    }
  };
  d.tile_main = [&](std::uint32_t tile, int ws_fd) {
    if (tile == counter_tile()) return counter_main(options.spec, shape, ws_fd);
    if (tile == record_tile(streams)) return record_main(shape, d.streams, ws_fd);
    return ingress_main(shape, tile - 1, ws_fd);
  };
  // An ingress that already published everything may be exiting; a SIGKILL
  // could race its clean exit and evaporate. The counter and record never
  // exit before stop/completion, so they are always safe victims.
  d.may_kill = [&](std::uint32_t tile, const detail::StreamCursor*) {
    if (tile == counter_tile() || tile == record_tile(streams)) return true;
    return ingress[tile - 1].reqs_pub.load(std::memory_order_acquire) < shape.n_reqs[tile - 1];
  };
  d.collect = [&](DeployReport* out) -> std::string {
    std::uint64_t gaps = 0;
    for (std::uint32_t s = 0; s < streams; ++s) {
      out->dup_requests += rec[s].dups.load(std::memory_order_acquire);
      gaps += rec[s].gaps.load(std::memory_order_acquire);
    }
    if (gaps == 0) return {};
    return "deploy: record observed " + std::to_string(gaps) +
           " request gaps - a reliable link dropped or reordered a frag";
  };
  return detail::supervise(options, d, std::move(report));
}

}  // namespace cnet::deploy
