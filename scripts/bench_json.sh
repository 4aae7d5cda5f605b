#!/usr/bin/env bash
# Machine-readable runtime benchmark snapshot: runs the real-thread
# throughput benches (batched vs single tokens against the central-counter
# baselines) and the psim engine benches (timing wheel vs retired heap on
# the fig5-shaped mix), merging both google-benchmark JSON reports into
# BENCH_rt.json at the repo root; the observability-overhead benches
# (metrics off / sampled / full / traced; see docs/OBSERVABILITY.md) into
# BENCH_obs.json; the mp count() series (bitonic + tree, 1..8 client
# threads) into BENCH_mp.json; and the service boundary-batching
# ablation (batched vs textbook per-request loop over real loopback TCP, 8
# connections; see docs/SERVICE.md) plus the link/pipeline series (raw shm
# ring ping/pong and pipelined deployments; see docs/DEPLOY.md) into
# BENCH_svc.json. Pass different output paths as
# $1..$4.
#
# Every row is the median of 5 repetitions, recorded under its plain name:
# one run at BENCH_MIN_TIME sits far from its median often enough that a
# diff of two single-run snapshots cannot resolve a change under about 30%.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_rt.json}"
obs_out="${2:-BENCH_obs.json}"
mp_out="${3:-BENCH_mp.json}"
svc_out="${4:-BENCH_svc.json}"
min_time="${BENCH_MIN_TIME:-0.1}"
# Every google-benchmark run takes these: 5 repetitions, reported as
# aggregates only (finish_report keeps the medians).
bench_flags=(--benchmark_min_time="$min_time" --benchmark_repetitions=5
             --benchmark_report_aggregates_only=true --benchmark_format=json)

[ -x build/bench/throughput_rt ] || { echo "build first: cmake -B build && cmake --build build" >&2; exit 1; }

# Build-type guard: recorded numbers must come from an optimized, unsanitized
# binary. The apt google-benchmark library always reports its own
# library_build_type as "debug", so the effective flavour comes from the
# file the top-level CMakeLists writes into the build tree — refuse anything
# but Release unless BENCH_ALLOW_DEBUG=1 explicitly overrides, and stamp the
# flavour into every JSON context either way so a bad snapshot is at least
# self-incriminating.
build_type="unknown"
[ -f build/cnet_build_type.txt ] && build_type=$(cat build/cnet_build_type.txt)
if [ "$build_type" != "Release" ]; then
  if [ "${BENCH_ALLOW_DEBUG:-0}" = "1" ]; then
    echo "WARNING: recording benchmarks from a '$build_type' build (BENCH_ALLOW_DEBUG=1)." >&2
    echo "WARNING: these numbers are NOT comparable to Release snapshots." >&2
  else
    echo "refusing to record benchmarks from a '$build_type' build." >&2
    echo "reconfigure with: cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
    echo "(or set BENCH_ALLOW_DEBUG=1 to record anyway, loudly tagged)" >&2
    exit 1
  fi
fi

# Rewrites a report in place: keeps each benchmark's median row under its
# plain name (run_name, so the key guards and any join on names still
# hold), stamps the cnet build flavour and the CPUs this shell may run on
# (nproc) into the context block, then fails if nproc differs from the
# report's num_cpus (every CPU online): the recording ran under a
# restricted affinity mask, so its thread-scaling rows mean less than their
# labels say.
finish_report() {
  python3 - "$1" "$build_type" "$(nproc)" <<'EOF'
import json, sys
path, build_type, nproc = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(path) as f:
    report = json.load(f)
medians = [b for b in report["benchmarks"] if b.get("aggregate_name") == "median"]
for b in medians:
    b["name"] = b["run_name"]
report["benchmarks"] = medians
context = report["context"]
context["cnet_build_type"] = build_type
context["nproc"] = nproc
with open(path, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
if context.get("num_cpus") != nproc:
    sys.exit(f"{path}: recorded with nproc {nproc} but num_cpus {context.get('num_cpus')}"
             " (affinity-restricted); record on an unrestricted shell")
EOF
}

tmp_rt=$(mktemp) tmp_psim=$(mktemp)
trap 'rm -f "$tmp_rt" "$tmp_psim"' EXIT

build/bench/throughput_rt "${bench_flags[@]}" >"$tmp_rt"
build/bench/engine_perf --benchmark_filter='Fig5Mix|PsimWorkload|PsimStallDebit' \
  "${bench_flags[@]}" >"$tmp_psim"

# Merge: keep one context block, concatenate the benchmark arrays.
python3 - "$tmp_rt" "$tmp_psim" "$out" <<'EOF'
import json, sys
rt, psim, out = sys.argv[1:4]
with open(rt) as f: a = json.load(f)
with open(psim) as f: b = json.load(f)
a["benchmarks"].extend(b["benchmarks"])
with open(out, "w") as f:
    json.dump(a, f, indent=1)
    f.write("\n")
EOF
finish_report "$out"
echo "wrote $out ($(python3 -c "import json;print(len(json.load(open('$out'))['benchmarks']))") benchmarks)"

# Key guard: downstream dashboards join on benchmark names, so a rename in
# throughput_rt (e.g. during a harness refactor) must fail loudly here
# rather than silently dropping a series.
python3 - "$out" <<'EOF'
import json, sys
required = [
    "BM_CentralAtomic", "BM_McsLockedCounter", "BM_BitonicFetchAdd",
    "BM_BitonicFetchAddBatch", "BM_BitonicMcsBalancers", "BM_Periodic",
    "BM_DiffractingTree", "BM_PsimStallDebit",
]
with open(sys.argv[1]) as f:
    names = {b["name"] for b in json.load(f)["benchmarks"]}
missing = [r for r in required if not any(n.startswith(r) for n in names)]
if missing:
    sys.exit(f"benchmark series missing from {sys.argv[1]}: {', '.join(missing)}")
EOF

build/bench/obs_overhead "${bench_flags[@]}" >"$obs_out"
finish_report "$obs_out"
echo "wrote $obs_out ($(python3 -c "import json;print(len(json.load(open('$obs_out'))['benchmarks']))") benchmarks)"

# Same key guard for the observability-overhead series docs/OBSERVABILITY.md
# quotes: every instrumentation level, single tokens and batched.
python3 - "$obs_out" <<'EOF'
import json, sys
required = [
    "BM_PlanObsOff/", "BM_PlanObsSampled/", "BM_PlanObsFull/", "BM_PlanObsTraced/",
    "BM_PlanBatchObsOff/", "BM_PlanBatchObsSampled/",
]
with open(sys.argv[1]) as f:
    names = {b["name"] for b in json.load(f)["benchmarks"]}
missing = [r for r in required if not any(n.startswith(r) for n in names)]
if missing:
    sys.exit(f"benchmark series missing from {sys.argv[1]}: {', '.join(missing)}")
EOF

build/bench/throughput_mp "${bench_flags[@]}" >"$mp_out"
finish_report "$mp_out"
echo "wrote $mp_out ($(python3 -c "import json;print(len(json.load(open('$mp_out'))['benchmarks']))") benchmarks)"

# Same key guard for the mp series: both topologies must be present.
python3 - "$mp_out" <<'EOF'
import json, sys
required = ["BM_MpLockFree", "BM_MpTreeLockFree"]
with open(sys.argv[1]) as f:
    names = {b["name"] for b in json.load(f)["benchmarks"]}
missing = [r for r in required if not any(n.startswith(r) for n in names)]
if missing:
    sys.exit(f"benchmark series missing from {sys.argv[1]}: {', '.join(missing)}")
EOF

tmp_svc_rt=$(mktemp) tmp_svc_mp=$(mktemp) tmp_deploy=$(mktemp) tmp_link=$(mktemp)
trap 'rm -f "$tmp_rt" "$tmp_psim" "$tmp_svc_rt" "$tmp_svc_mp" "$tmp_deploy" "$tmp_link"' EXIT

# One throughput_svc family per process: run in one process, the later
# families spread far wider (BM_SvcMpBatched read 279-460 k items/s over 16
# such runs, and 476-534 k with its family alone).
build/bench/throughput_svc --benchmark_filter='^BM_SvcRt' "${bench_flags[@]}" >"$tmp_svc_rt"
build/bench/throughput_svc --benchmark_filter='^BM_SvcMp' "${bench_flags[@]}" >"$tmp_svc_mp"
build/bench/throughput_svc --benchmark_filter='^BM_Deploy' "${bench_flags[@]}" >"$tmp_deploy"
build/bench/throughput_link "${bench_flags[@]}" >"$tmp_link"

# Merge the three svc families and the link/pipeline series into the svc
# snapshot: one context block, concatenated benchmark arrays — the
# pipelined deployment belongs next to the tiles-vs-in-process numbers it
# is compared against.
python3 - "$tmp_svc_rt" "$tmp_svc_mp" "$tmp_deploy" "$tmp_link" "$svc_out" <<'EOF'
import json, sys
*parts, out = sys.argv[1:]
with open(parts[0]) as f: a = json.load(f)
for part in parts[1:]:
    with open(part) as f: a["benchmarks"].extend(json.load(f)["benchmarks"])
with open(out, "w") as f:
    json.dump(a, f, indent=1)
    f.write("\n")
EOF
finish_report "$svc_out"
echo "wrote $svc_out ($(python3 -c "import json;print(len(json.load(open('$svc_out'))['benchmarks']))") benchmarks)"

# The svc series is an ablation: both sides of the batched/unbatched pair
# must be present for either backend's number to mean anything — and the
# loops-scaling series must be there too, or the multi-loop claim in
# docs/SERVICE.md has no number behind it, and so must BM_SvcMpWindow, the
# one loop-bound svc row (perfbench svc-window's shape). Same for the deployment pairs:
# tiles-over-shm without its in-process twin, or the pipelined run without
# its raw ping/pong floor, is a number with no baseline.
python3 - "$svc_out" <<'EOF'
import json, sys
required = ["BM_SvcRtBatched", "BM_SvcRtUnbatched", "BM_SvcMpBatched", "BM_SvcMpUnbatched",
            "BM_SvcMpWindow", "BM_SvcRtLoops", "BM_DeployRtTiles", "BM_DeployRtInProc",
            "BM_LinkPingPong", "BM_DeployRtPipeline"]
with open(sys.argv[1]) as f:
    names = {b["name"] for b in json.load(f)["benchmarks"]}
missing = [r for r in required if not any(n.startswith(r) for n in names)]
if missing:
    sys.exit(f"benchmark series missing from {sys.argv[1]}: {', '.join(missing)}")
EOF
