#!/usr/bin/env bash
# Shell-level contract test for cnet_cli: usage text, exit codes, and the
# spec-driven commands, plus cnet_loadgen's flag parsing. Run via ctest
# (cli_shell_test) with CNET_CLI and CNET_LOADGEN set to the built
# binaries, or standalone:
#
#   CNET_CLI=build/tools/cnet_cli CNET_LOADGEN=build/tools/cnet_loadgen \
#     scripts/cli_test.sh
set -u

CLI="${CNET_CLI:?set CNET_CLI to the cnet_cli binary}"
LOADGEN="${CNET_LOADGEN:?set CNET_LOADGEN to the cnet_loadgen binary}"
failures=0

check() {
  local desc="$1"; shift
  if "$@" > /dev/null 2>&1; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc (command: $*)" >&2
    failures=$((failures + 1))
  fi
}

check_rc() {
  local desc="$1" want="$2"; shift 2
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -eq "$want" ]; then
    echo "ok: $desc (exit $got)"
  else
    echo "FAIL: $desc — expected exit $want, got $got (command: $*)" >&2
    failures=$((failures + 1))
  fi
}

check_output() {
  local desc="$1" pattern="$2"; shift 2
  if "$@" 2>&1 | grep -q "$pattern"; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc — output lacks '$pattern' (command: $*)" >&2
    failures=$((failures + 1))
  fi
}

# --- usage covers every command, and usage errors exit 2 -------------------
for cmd in info dot verify exhaustive run count stats serve \
           record replay search deploy; do
  check_output "usage mentions '$cmd'" "cnet_cli $cmd" "$CLI"
done
check_rc "no arguments is a usage error" 2 "$CLI"
check_rc "unknown command is a usage error" 2 "$CLI" frobnicate bitonic 8
check_rc "malformed spec exits 2" 2 "$CLI" run "bogus:bitonic:8"
check_rc "degenerate width exits 2" 2 "$CLI" run "rt:bitonic:1"
check_rc "unknown workload key exits 2" 2 "$CLI" run "rt:bitonic:8" banana=1
check_rc "non-finite rate exits 2" 2 \
  timeout 20 "$CLI" run "sim:bitonic:8" arrival=poisson rate=nan ops=10
check_rc "non-finite delayed fraction exits 2" 2 \
  timeout 20 "$CLI" run "rt:bitonic:8" threads=4 ops=1000 f=nan wait=100
check_rc "infinite burst gap exits 2" 2 \
  timeout 20 "$CLI" run "sim:bitonic:8" arrival=burst gap=inf ops=10
check_output "non-finite diagnostic names the key" "workload key 'f' needs a finite number" \
  timeout 20 "$CLI" run "rt:bitonic:8" threads=4 ops=1000 f=nan wait=100
check_output "spec diagnostics echo the spec" "bogus:bitonic:8" \
  "$CLI" run "bogus:bitonic:8"

# --- spec-driven run on every family ---------------------------------------
for spec in "sim:bitonic:8" "psim:bitonic:8" "rt:bitonic:8" "mp:bitonic:8?actors=2"; do
  check "run $spec" "$CLI" run "$spec" threads=2 ops=200 seed=5
done
check_output "run report prints the canonical spec" "rt:bitonic:8?metrics=on" \
  "$CLI" run "rt:bitonic:8?metrics" threads=2 ops=100
check "run with poisson arrivals" "$CLI" run "sim:bitonic:8" arrival=poisson rate=2 ops=100
check_rc "psim rejects open-loop arrivals" 2 "$CLI" run "psim:bitonic:8" arrival=poisson rate=2
for spec in "rt:bitonic:8?engine=walk" "rt:bitonic:8?engine=plan" \
            "mp:bitonic:8?engine=locked" "mp:bitonic:8?engine=lockfree" \
            "psim:bitonic:8?engine=walk" "sim:bitonic:8?engine=walk"; do
  check_rc "removed engine option exits 2: $spec" 2 "$CLI" run "$spec"
done
check_output "removed engine option names the one executor" \
  "option 'engine' was removed: rt always runs the compiled plan, mp the lock-free actors" \
  "$CLI" run "mp:bitonic:8?engine=locked"
check "mp accepts per-node delay injection" \
  "$CLI" run "mp:bitonic:8?actors=2" threads=4 ops=200 f=0.5 wait=200 seed=5

# --- fault plans and degraded mode -----------------------------------------
check_output "fault spec round-trips into the report" \
  "rt:bitonic:8?fault=stall:0.1:20000" \
  "$CLI" run "rt:bitonic:8?fault=stall:0.1:20000" threads=2 ops=200 seed=5
check_output "fault run reports injected stalls" "faults" \
  "$CLI" run "rt:bitonic:8?fault=stall:0.5:20000" threads=2 ops=200 seed=5
check "mp fault plan with deaths runs" \
  "$CLI" run "mp:bitonic:8?actors=2&fault=die:50,seed:3" threads=2 ops=200 seed=5
check_output "deaths downgrade the guarantee" "counting-only" \
  "$CLI" run "mp:bitonic:8?actors=2&fault=die:50,seed:3" threads=2 ops=200 seed=5
check_rc "malformed fault plan exits 2" 2 "$CLI" run "rt:bitonic:8?fault=stall:2:100"
check "psim stall plan runs as cycle debits" \
  "$CLI" run "psim:bitonic:8?fault=stall:0.5:2000,seed:3" threads=4 ops=200 seed=5
check_rc "pause on psim exits 2" 2 "$CLI" run "psim:bitonic:8?fault=pause:0.1:100"
check_rc "die on psim exits 2" 2 "$CLI" run "psim:bitonic:8?fault=die:10"
check_rc "mp-only clause on rt exits 2" 2 "$CLI" run "rt:bitonic:8?fault=die:10"
check_rc "degrade without metrics exits 2" 2 "$CLI" run "rt:bitonic:8?degrade=report"
check_output "a faulted run with Def 2.4 violations names its claim falsified" \
  "guarantee: linearizable claim FALSIFIED" \
  "$CLI" run "psim:bitonic:8?fault=stall:0.3:5000,seed:3" threads=8 ops=2000
check_rc "pad on rt exits 2" 2 "$CLI" run "rt:bitonic:8?pad=3"
check_output "pad on rt names its reason" "cross pass-through nodes in no time" \
  "$CLI" run "rt:bitonic:8?pad=3"
check_rc "degrade=pad exits 2" 2 "$CLI" run "rt:bitonic:8?metrics&degrade=pad"
check_output "degrade=pad names its reason" "Cor 3.12 padding needs a known bound" \
  "$CLI" run "rt:bitonic:8?metrics&degrade=pad"
check_rc "diffraction on rt exits 2" 2 "$CLI" count "rt:tree:8?diffraction=on" 1 10
check_output "diffraction on rt names its reason" "a prism ran 7-68x slower than the toggle" \
  "$CLI" count "rt:tree:8?diffraction=on" 1 10
check_output "diffraction on rt points at psim" "psim:tree:W?diffraction=on" \
  "$CLI" count "rt:tree:8?diffraction=on" 1 10
check_rc "prism on rt exits 2" 2 "$CLI" count "rt:bitonic:8?prism=4" 1 10
check_rc "mcs on psim exits 2" 2 "$CLI" run "psim:tree:64?mcs&procs=128" ops=10
check_output "mcs on psim names its reason" "psim's toggle balancers are always MCS-locked" \
  "$CLI" run "psim:tree:64?mcs&procs=128" ops=10
check_rc "mcs on rt exits 2" 2 "$CLI" count "rt:bitonic:8?mcs" 2 10
check_output "mcs on rt names its reason" "MCS-locked balancers were never faster" \
  "$CLI" count "rt:bitonic:8?mcs" 2 10
check_output "mcs on rt points at psim" "psim:bitonic:W" "$CLI" count "rt:bitonic:8?mcs" 2 10
# Keys that select nothing without another key are refused, not dropped.
check_rc "prism without diffraction on psim exits 2" 2 \
  "$CLI" run "psim:bitonic:8?prism=4" threads=4 ops=100
check_output "prism without diffraction names its reason" "requires diffraction=on" \
  "$CLI" run "psim:bitonic:8?prism=4" threads=4 ops=100
check_rc "c2 under model=fixed exits 2" 2 \
  "$CLI" run "sim:tree:8?model=fixed&c2=9" threads=2 ops=100
check_output "c2 under model=fixed names its reason" "does not apply to model=fixed" \
  "$CLI" run "sim:tree:8?model=fixed&c2=9" threads=2 ops=100
# ws=, tiles= and pipeline= shape a deployment: in-process commands refuse
# them before any issuer or loop starts (under timeout, in case one ran).
check_rc "count refuses a deployment spec" 2 \
  timeout 20 "$CLI" count "rt:bitonic:8?ws=x&tiles=2&pipeline=1" 2 1000
check_output "count names cnet_cli deploy" "cnet_cli deploy" \
  timeout 20 "$CLI" count "rt:bitonic:8?ws=x&tiles=2&pipeline=1" 2 1000
check_rc "serve refuses a workspace spec" 2 \
  timeout 20 "$CLI" serve "rt:bitonic:8?ws=x" --port 0 --loops 1
check_output "serve names cnet_cli deploy" "cnet_cli deploy" \
  timeout 20 "$CLI" serve "rt:bitonic:8?ws=x" --port 0 --loops 1

# --- schedule capture, replay, and search -----------------------------------
trace_file=/tmp/cnet_cli_test.$$.trace
check_output "record captures and names the trace" "schedule : captured to" \
  "$CLI" record "rt:bitonic:4?fault=stall:0.3:5000,seed:7" "$trace_file" threads=2 ops=64
check_output "replay prints a history digest" "digest" "$CLI" replay "$trace_file"
rm -f "$trace_file"
check_rc "replay of a missing trace exits 2" 2 "$CLI" replay "$trace_file"
check_output "search finds the section-4 schedule" '"magnitude": 3' \
  "$CLI" search "psim:bitonic:4" --procs 5 --ops 1 --stalls 2 --budget 2000
check_rc "search on a live family exits 2" 2 "$CLI" search "rt:bitonic:4"
# Numeric flags parse strictly (under timeout: a flag that slipped through
# would start a search instead of exiting).
for flags in "--ops 1x" "--procs 0" "--stalls -1" "--budget abc" "--stall-cycles 5k"; do
  check_rc "search rejects $flags" 2 \
    timeout 20 "$CLI" search "psim:bitonic:4" --procs 5 --ops 1 --stalls 2 --budget 10 $flags
done
check_output "search diagnostic names the flag" "search --ops needs an integer" \
  timeout 20 "$CLI" search "psim:bitonic:4" --procs 5 --ops 1x --stalls 2 --budget 10

# --- SIGINT drains and exits 130 -------------------------------------------
# A closed-loop run big enough to outlive the sleep; the handler must wind
# the issuers down, drain, print the partial report, and exit 130.
"$CLI" run "rt:bitonic:8" threads=2 ops=200000000 > /tmp/cnet_sigint_report.$$ 2>&1 &
cli_pid=$!
sleep 1
kill -INT "$cli_pid"
wait "$cli_pid"
sigint_rc=$?
if [ "$sigint_rc" -eq 130 ]; then
  echo "ok: SIGINT run exits 130"
else
  echo "FAIL: SIGINT run — expected exit 130, got $sigint_rc" >&2
  failures=$((failures + 1))
fi
if grep -q "INTERRUPTED" /tmp/cnet_sigint_report.$$; then
  echo "ok: SIGINT run prints the partial report"
else
  echo "FAIL: SIGINT run — report lacks INTERRUPTED status" >&2
  failures=$((failures + 1))
fi
rm -f /tmp/cnet_sigint_report.$$

# --- serve: wind-down contract matches run's --------------------------------
check_rc "serve rejects unknown options" 2 "$CLI" serve "mp:tree:8" --turbo
check_rc "serve rejects simulated families" 2 "$CLI" serve "sim:bitonic:8"
check_output "serve diagnostic names the live requirement" "live" \
  "$CLI" serve "sim:bitonic:8"

# --- serve --loops: the sharding contract ------------------------------------
check_output "serve usage mentions --loops" "loops" "$CLI" serve
check_rc "serve rejects --loops 0" 2 "$CLI" serve "mp:tree:8" --loops 0
check_output "serve --loops 0 diagnostic explains the bound" "must be >= 1" \
  "$CLI" serve "mp:tree:8" --loops 0
check_rc "serve rejects rt thread space smaller than loops" 2 \
  "$CLI" serve "rt:bitonic:8?threads=2" --loops 4
check_output "rt/loops diagnostic names the slice requirement" "thread-id slice" \
  "$CLI" serve "rt:bitonic:8?threads=2" --loops 4
# Numeric flags parse strictly (under timeout: a flag that slipped through
# would start serving instead of exiting).
for flags in "--port 70000x" "--port 70000" "--port -1" "--loops 2x" "--max-batch abc" \
             "--max-batch 0" "--max-pending 0" "--max-pending 9x"; do
  check_rc "serve rejects $flags" 2 timeout 20 "$CLI" serve "mp:tree:8" $flags
done
check_output "serve diagnostic names the flag" "serve --port needs an integer in \[0, 65535\]" \
  timeout 20 "$CLI" serve "mp:tree:8" --port 70000x
check_output "serve diagnostic names --max-batch" "serve --max-batch needs an integer" \
  timeout 20 "$CLI" serve "mp:tree:8" --max-batch abc

# cnet_loadgen parses its flags as strictly. Each bad flag comes before
# --port 0: a lenient parser would read past it and stop at usage (exit 2
# as well), so the echoed value is what shows the strict parser refused it.
for flags in "--port 70000x" "--ops abc" "--rate nan" "--deadline-fraction 2" \
             "--connections 1025"; do
  check_rc "loadgen rejects $flags" 2 timeout 20 "$LOADGEN" $flags --port 0
  check_output "loadgen echoes the value of $flags" "(got '${flags#* }')" \
    timeout 20 "$LOADGEN" $flags --port 0
done

# A two-loop server on an ephemeral port; SIGINT must stop accepting, drain
# every loop, print the merged serving stats, and exit 130 — the same
# contract as an interrupted run.
"$CLI" serve "mp:tree:8?actors=1" --port 0 --loops 2 > /tmp/cnet_serve_report.$$ 2>&1 &
serve_pid=$!
sleep 1
kill -INT "$serve_pid"
wait "$serve_pid"
serve_rc=$?
if [ "$serve_rc" -eq 130 ]; then
  echo "ok: SIGINT serve exits 130"
else
  echo "FAIL: SIGINT serve — expected exit 130, got $serve_rc" >&2
  failures=$((failures + 1))
fi
if grep -q "serving mp:tree:8" /tmp/cnet_serve_report.$$ \
    && grep -q "2 loops" /tmp/cnet_serve_report.$$ \
    && grep -q "shut down:" /tmp/cnet_serve_report.$$; then
  echo "ok: SIGINT serve prints the wind-down stats"
else
  echo "FAIL: SIGINT serve — report lacks serving/shut down lines" >&2
  failures=$((failures + 1))
fi
rm -f /tmp/cnet_serve_report.$$

# --- deploy: bad specs and options exit 2 before anything forks ------------
# Every case here is rejected before the runner forks a tile: this script
# also runs under ASan, which cannot follow fork + SIGKILL.
dspec='rt:bitonic:4?ws=cli-deploy&tiles=1&threads=4'
check_rc "deploy rejects a non-rt spec" 2 "$CLI" deploy "mp:bitonic:8" --ops 1000
check_output "deploy names the rt requirement" "only the rt family deploys" \
  "$CLI" deploy "mp:bitonic:8" --ops 1000
check_rc "deploy rejects --timeout -1" 2 "$CLI" deploy "$dspec" --ops 1000 --timeout -1
check_output "--timeout -1 is a usage error" "needs a non-negative number of seconds" \
  "$CLI" deploy "$dspec" --ops 1000 --timeout -1
for timeout in 0 1e30; do
  check_rc "deploy rejects --timeout $timeout" 2 \
    "$CLI" deploy "$dspec" --ops 1000 --timeout "$timeout"
  check_output "--timeout $timeout names the bound" "timeout_s must be" \
    "$CLI" deploy "$dspec" --ops 1000 --timeout "$timeout"
done
check_rc "deploy rejects --batch -1" 2 "$CLI" deploy "$dspec" --ops 1000 --batch -1
check_output "--batch -1 is a usage error" "needs an integer in" \
  "$CLI" deploy "$dspec" --ops 1000 --batch -1
check_output "--batch past one frag names the bound" "batch must be in \[1, 8188\]" \
  "$CLI" deploy "$dspec" --ops 1000 --batch 8189
check_rc "deploy rejects the obs knobs its tiles would drop" 2 \
  "$CLI" deploy "$dspec&metrics&degrade=report" --ops 1000
check_output "dropped degrade knob is named" "degrade does not deploy" \
  "$CLI" deploy "$dspec&metrics&degrade=report" --ops 1000
check_rc "deploy rejects --pipeline --threads 2" 2 \
  "$CLI" deploy "$dspec" --pipeline --threads 2 --ops 1000
check_output "pipeline tiles are single-threaded" "threads_per_tile must be 1" \
  "$CLI" deploy "$dspec" --pipeline --threads 2 --ops 1000
for flag in --pipeline-sock "--link-depth 64"; do
  # $flag is split on purpose: the flag and, where present, its value.
  check_rc "removed deploy option exits 2: $flag" 2 "$CLI" deploy "$dspec" $flag
  check_output "removed deploy option is unknown: $flag" "unknown deploy option" \
    "$CLI" deploy "$dspec" $flag
done

# --- every network is a spec ----------------------------------------------
# The positional `<kind> <width>` forms are gone: before, a bad width
# aborted inside topo::builders (exit 134) and `workload`/`simulate` took
# hostile numbers through atoi.
check "count, spec form" "$CLI" count "rt:bitonic:8?threads=8" 2 1000
check "verify, spec form" "$CLI" verify "sim:periodic:8" 50
check_rc "count, spec form, with an argument after batch exits 2" 2 \
  "$CLI" count "rt:bitonic:8" 2 1000 8 walk
check_rc "info with a positional network exits 2" 2 "$CLI" info bitonic 3
check_rc "dot with a positional network exits 2" 2 "$CLI" dot tree 6
check_rc "exhaustive with a positional network exits 2" 2 "$CLI" exhaustive bitonic 3 2 3
check_rc "the removed workload command exits 2" 2 "$CLI" workload bitonic 0 25 100 50
check_rc "the removed simulate command exits 2" 2 "$CLI" simulate bitonic 8 -5 3
check_rc "info on a degenerate width exits 2" 2 "$CLI" info "sim:bitonic:3"
check_output "info, spec form" "depth (links)    : 6" "$CLI" info "sim:bitonic:8"
check_output "dot, spec form" "digraph" "$CLI" dot "rt:tree:8"
check_output "exhaustive, spec form, finds nothing at c2 = 2c1" "no violating schedule" \
  "$CLI" exhaustive "sim:balancer:2" 3
check_rc "exhaustive, spec form, exits 1 on a violation at c2 = 3c1" 1 \
  "$CLI" exhaustive "sim:balancer:2?c2=3" 3
check_rc "exhaustive rejects a live family" 2 "$CLI" exhaustive "rt:bitonic:4" 2
check_rc "exhaustive rejects tokens past its bound" 2 "$CLI" exhaustive "sim:bitonic:4" 9
check_rc "exhaustive rejects a non-numeric step" 2 "$CLI" exhaustive "sim:bitonic:4" 2 8 abc
check_rc "exhaustive rejects a network too deep to enumerate" 2 \
  "$CLI" exhaustive "sim:bitonic:64" 2
check_rc "verify rejects non-numeric trials" 2 "$CLI" verify "sim:bitonic:8" abc

# --- hostile numbers: a sign, a non-digit or an out-of-range value exits 2 --
# None of these forks. Before the strict parser, -1 wrapped to 2^32-1
# threads or batch (std::bad_alloc, exit 134) and 'abc' read as 0 ops.
check_rc "count rejects threads -1" 2 "$CLI" count "mp:bitonic:4" -1 100
check_rc "count rejects batch -5" 2 "$CLI" count "rt:bitonic:4" 4 1000 -5
check_rc "stats rejects non-numeric ops" 2 "$CLI" stats "rt:bitonic:4" 2 abc
check_rc "count rejects ops past 2^64-1" 2 "$CLI" count "rt:bitonic:4" 2 18446744073709551616
for arg in threads=-1 batch=-1 ops=-1 threads=4294967296 seed=+1; do
  check_rc "run rejects $arg" 2 "$CLI" run "mp:bitonic:4" "$arg"
done
check_rc "record rejects ops=-1" 2 "$CLI" record "rt:bitonic:4" /tmp/cnet_cli_hostile.$$ ops=-1
check_output "a hostile number names its key and bound" \
  "workload key 'threads' needs an integer in \[0, 4294967295\]" \
  "$CLI" run "mp:bitonic:4" threads=-1
check_output "a hostile positional number names its bound" "ops needs an integer in" \
  "$CLI" stats "rt:bitonic:4" 2 abc

# --- no input starts more than 1024 OS threads ------------------------------
# Each site refuses 1025 where it validates the input, before any thread
# (or tile process) starts; under timeout, in case one slipped through.
check_output "actors= names the OS-thread cap" "capped at 1024 OS threads" \
  timeout 20 "$CLI" info "mp:tree:8?actors=1025"
check_rc "run refuses 1025 mp issuers" 2 timeout 20 "$CLI" run "mp:tree:8" threads=1025 ops=2000
check_output "run names the OS-thread cap" "exceeds the cap of 1024 OS threads" \
  timeout 20 "$CLI" run "mp:tree:8" threads=1025 ops=2000
check_rc "serve refuses 1025 loops" 2 timeout 20 "$CLI" serve "mp:tree:8" --port 0 --loops 1025
check_output "serve names the OS-thread cap" "exceeds the cap of 1024 OS threads" \
  timeout 20 "$CLI" serve "mp:tree:8" --port 0 --loops 1025
check_rc "deploy refuses 25 tiles x 41 threads" 2 timeout 20 \
  "$CLI" deploy "rt:bitonic:8?ws=cli-cap&tiles=25&threads=4096" --threads 41 --ops 2000
check_output "deploy names the OS-thread cap" "exceeds the cap of 1024 OS threads" \
  timeout 20 "$CLI" deploy "rt:bitonic:8?ws=cli-cap&tiles=25&threads=4096" --threads 41 \
  --ops 2000
check_output "loadgen names the --connections cap" "needs an integer in \[1, 1024\]" \
  timeout 20 "$LOADGEN" --connections 1025 --port 0

# --- stats: every build carries the rt obs sink -----------------------------
check_rc "stats runs" 0 timeout 60 "$CLI" stats "rt:bitonic:8" 2 2000
check_output "stats prints the online c2/c1 estimate" "online c2/c1 estimate" \
  timeout 60 "$CLI" stats "rt:bitonic:8" 2 2000

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed" >&2
  exit 1
fi
echo "all cnet_cli shell checks passed"
