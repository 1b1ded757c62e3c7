#!/bin/sh
# Tier-1 CI gate: build, run the test suite, and make sure no build
# artifacts ever sneak back into version control.
set -eu
cd "$(dirname "$0")"

if git ls-files -- _build | grep -q .; then
  echo "ci: _build/ artifacts are tracked in git; run 'git rm -r --cached _build'" >&2
  exit 1
fi

dune build
dune runtest

# Simulator outputs are pinned: each sim chaos/traffic score JSON below
# must equal its committed copy under test/golden/ byte for byte.  A
# deliberate behaviour change regenerates the file in the same commit.
golden() {
  cmp "$1" "$2" || {
    echo "ci: $1 differs from $2; regenerate it only for a deliberate behaviour change" >&2
    exit 1
  }
}

# Bench smoke: the quick scaling sweep on 2 domains exercises the
# calendar-queue engine, the parallel sweep runner and the JSON writer
# end to end (the oracle run inside it must report zero violations).
# Its n=49 and n=144 rows must then match BENCH_core.json exactly on the
# fields a seed fixes (routing bytes, recommendation latency, events,
# max_pending, drops); check_core.py names any row and field that moved.
dune exec bench/main.exe -- --only micro --quick --jobs 2 --json /tmp/apor-bench-smoke.json
python3 bench/check_core.py /tmp/apor-bench-smoke.json BENCH_core.json
rm -f /tmp/apor-bench-smoke.json

# Benchmark determinism: run both simulator workloads of the repository
# benchmark (perfbench/) twice at one seed in traced mode and fail unless
# the deterministic fingerprint (events, bytes, datagrams, joins, per-class
# calls and minor words) repeats exactly, and unless BENCHMARK.json lists
# the metrics run.py prints.  Builds the worker in .bench_build/.
python3 perfbench/test_fingerprint.py

# Sim-vs-core golden trace: record one sim-hosted node's inputs/outputs
# through a churn run and replay them through the bare sans-IO core
# (test/test_node_core.ml, also part of `dune runtest` above). Run it
# explicitly so a failure here is unambiguous in CI logs.
dune exec test/test_node_core.exe -- test core

# Deploy smoke: the same Node_core over real loopback UDP, with the
# trace oracle attached live. The binary detects socket-less sandboxes
# itself and exits 0 with a skip notice in that case.
dune exec bin/apor.exe -- deploy-local --n 9 --quick

# Chaos smoke (sim): replay the smoke scenario with the oracle attached
# and fail on any out-of-grace violation or unrecovered pair. Run it
# twice and diff the score JSONs: same scenario + seed must be
# byte-identical (the determinism regression from test_chaos, end to
# end through the CLI).
dune exec bin/apor.exe -- chaos --scenario examples/chaos/smoke.scn \
  --runtime sim --json /tmp/apor-chaos-a.json
dune exec bin/apor.exe -- chaos --scenario examples/chaos/smoke.scn \
  --runtime sim --json /tmp/apor-chaos-b.json > /dev/null
cmp /tmp/apor-chaos-a.json /tmp/apor-chaos-b.json || {
  echo "ci: chaos score JSON is not deterministic across identical runs" >&2
  exit 1
}
golden /tmp/apor-chaos-a.json test/golden/chaos_smoke.json
rm -f /tmp/apor-chaos-a.json /tmp/apor-chaos-b.json

# Chaos smoke (udp): the same scenario replayed over real loopback
# sockets at the compressed deploy timescale (~8 s of wall clock,
# includes a real node crash + restart-with-rejoin). Like deploy-local,
# the binary exits 0 with a skip notice in socket-less sandboxes.
dune exec bin/apor.exe -- chaos --scenario examples/chaos/smoke.scn \
  --runtime udp --base-port 9500

# Decentralized membership gate: kill node 0 permanently at t=30 (the
# node a centralized design would depend on), then admit two fresh
# joiners through the quorum-write protocol. The command exits 1 on any
# out-of-grace violation (including view agreement at the horizon) or a
# refused join. Sim runs twice and the score JSONs must be
# byte-identical; the udp replay does the same with real socket
# closures and real joins (skips itself in socket-less sandboxes).
dune exec bin/apor.exe -- chaos --scenario examples/chaos/coordinator_kill_forever.scn \
  --runtime sim --json /tmp/apor-chaos-m-a.json > /dev/null
dune exec bin/apor.exe -- chaos --scenario examples/chaos/coordinator_kill_forever.scn \
  --runtime sim --json /tmp/apor-chaos-m-b.json > /dev/null
cmp /tmp/apor-chaos-m-a.json /tmp/apor-chaos-m-b.json || {
  echo "ci: membership chaos score JSON is not deterministic across identical runs" >&2
  exit 1
}
golden /tmp/apor-chaos-m-a.json test/golden/chaos_coordinator_kill_forever.json
rm -f /tmp/apor-chaos-m-a.json /tmp/apor-chaos-m-b.json
dune exec bin/apor.exe -- chaos --scenario examples/chaos/coordinator_kill_forever.scn \
  --runtime udp --base-port 9900

# Data-plane smoke (sim): a short churn run with the oracle attached;
# the command itself exits 1 on any traffic- or datagram-conservation
# violation. Run twice and diff the report JSONs: same seed must be
# byte-identical (workload, metrics and oracle are all deterministic).
dune exec bin/apor.exe -- traffic --runtime sim --n 24 --duration 60 --churn \
  --json /tmp/apor-traffic-a.json > /dev/null
dune exec bin/apor.exe -- traffic --runtime sim --n 24 --duration 60 --churn \
  --json /tmp/apor-traffic-b.json > /dev/null
cmp /tmp/apor-traffic-a.json /tmp/apor-traffic-b.json || {
  echo "ci: traffic report JSON is not deterministic across identical runs" >&2
  exit 1
}
golden /tmp/apor-traffic-a.json test/golden/traffic_churn.json
rm -f /tmp/apor-traffic-a.json /tmp/apor-traffic-b.json

# Closed-loop data plane (sim): each flow waits for its datagram's
# delivery or flow timeout before it thinks and sends again; churn makes
# some of them time out. Run twice and diff the report JSONs.
dune exec bin/apor.exe -- traffic --runtime sim --n 24 --duration 60 --churn \
  --closed --window 32 --think 0.01 --json /tmp/apor-closed-a.json > /dev/null
dune exec bin/apor.exe -- traffic --runtime sim --n 24 --duration 60 --churn \
  --closed --window 32 --think 0.01 --json /tmp/apor-closed-b.json > /dev/null
cmp /tmp/apor-closed-a.json /tmp/apor-closed-b.json || {
  echo "ci: closed-loop traffic report JSON is not deterministic across identical runs" >&2
  exit 1
}
golden /tmp/apor-closed-a.json test/golden/traffic_churn_closed.json
rm -f /tmp/apor-closed-a.json /tmp/apor-closed-b.json

# Data-plane smoke (udp), open and closed loop: real datagrams over
# loopback sockets; the command exits 1 on conservation violations or
# zero goodput, and exits 0 with a skip notice in socket-less sandboxes.
dune exec bin/apor.exe -- traffic --runtime udp --n 8 --duration 4 --base-port 9700
dune exec bin/apor.exe -- traffic --runtime udp --n 8 --duration 4 --closed --base-port 9800

# Documentation build (odoc). The libraries are private, so the pages live
# under @doc-private. Skipped when odoc isn't installed (offline images).
if command -v odoc >/dev/null 2>&1; then
  dune build @doc-private
else
  echo "ci: odoc not installed; skipping documentation build" >&2
fi
