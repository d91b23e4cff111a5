#!/usr/bin/env bash
# End-to-end smoke test of the piperisk CLI: generate -> tune -> fit ->
# evaluate -> riskmap -> plan -> diagnose, all in a scratch directory.
# Registered with ctest by tools/CMakeLists.txt; $1 is the binary path.
set -euo pipefail

BIN="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "== generate"
"$BIN" generate --region tiny --pipes 1200 --seed 9 --out smoke
test -f smoke_pipes.csv
test -f smoke_segments.csv
test -f smoke_failures.csv

echo "== fit"
"$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 --out scores.csv
test -f scores.csv
head -1 scores.csv | grep -q "pipe_id,score"

echo "== evaluate"
"$BIN" evaluate --data smoke --scores scores.csv | grep -q "AUC(100%)"

echo "== riskmap"
"$BIN" riskmap --data smoke --scores scores.csv --out map.geojson
grep -q FeatureCollection map.geojson

echo "== plan"
"$BIN" plan --data smoke --scores scores.csv --budget 40000 --horizon 6 \
    --out plan.csv | grep -q "net benefit"

echo "== fit multi-chain"
"$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 \
    --chains 2 --threads 2 --out scores_mc.csv
test -f scores_mc.csv
# Same seed and chain count on one thread must give byte-identical scores.
"$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 \
    --chains 2 --threads 1 --out scores_mc_t1.csv
cmp scores_mc.csv scores_mc_t1.csv

echo "== fit with within-chain partitioning"
# Partitioning a sweep across the pool must not change a single byte of the
# scores, at any --sweep-threads setting.
"$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 \
    --sweep-threads 4 --out scores_st4.csv
cmp scores.csv scores_st4.csv

echo "== telemetry exports"
# Attaching every exporter must not perturb the model: scores stay
# byte-identical to the uninstrumented run above.
"$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 \
    --chains 2 --threads 2 --out scores_tel.csv \
    --metrics-out metrics.json --trace-out trace.json --log-level debug
cmp scores_mc.csv scores_tel.csv
test -s metrics.json
test -s trace.json
python3 - <<'EOF'
import json
with open("metrics.json") as f:
    m = json.load(f)
assert m["schema_version"] == 1, m
assert m["run"]["command"] == "fit", m["run"]
assert m["run"]["chains"] == 2, m["run"]
assert all(v >= 0 for v in m["counters"].values()), m["counters"]
assert m["counters"]["mcmc.chain.0.sweeps"] == 30, m["counters"]
assert 0.0 <= m["gauges"]["mcmc.acceptance_rate"] <= 1.0, m["gauges"]
assert "threadpool.queue_wait_us" in m["histograms"], sorted(m["histograms"])
# core.sweep.* is registered eagerly, so the keys exist (and this serial fit
# lands on the serial path) even though no partitioning was requested.
assert m["counters"]["core.sweep.serial_sweeps"] > 0, m["counters"]
assert "core.sweep.parallel_sweeps" in m["counters"], sorted(m["counters"])
with open("trace.json") as f:
    t = json.load(f)
names = {e["name"] for e in t["traceEvents"]}
assert "cli.command" in names and "mcmc.chain" in names, sorted(names)
print("telemetry exports valid:",
      len(m["counters"]), "counters,", len(t["traceEvents"]), "spans")
EOF

echo "== fit heartbeats"
# The heartbeat monitor observes the fit from the outside: enabling it must
# not change a single byte of the scores.
"$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 \
    --heartbeat-file hb_cmp.json --heartbeat-every 0.2 --out scores_hb.csv
cmp scores.csv scores_hb.csv
test -s hb_cmp.json

# A background fit with a short cadence must surface the heartbeat file
# mid-run (not only at exit), and the file must always parse as a complete
# schema-v1 document because replacement is write-tmp-then-rename.
"$BIN" fit --data smoke --model dpmhbp --burn 300 --samples 600 --chains 2 \
    --heartbeat-file hb_live.json --heartbeat-every 0.1 \
    --out scores_hb_live.csv &
HB_PID=$!
MIDFIT_SEEN=0
for _ in $(seq 1 200); do
  if [ -f hb_live.json ] && kill -0 "$HB_PID" 2>/dev/null; then
    MIDFIT_SEEN=1
    break
  fi
  sleep 0.1
done
test "$MIDFIT_SEEN" = 1
# `piperisk top` is the canonical reader; one plain-mode frame must render.
"$BIN" top --heartbeat hb_live.json --plain --iterations 1 | grep -q "chain 0"
wait "$HB_PID"
python3 - <<'EOF'
import json
with open("hb_live.json") as f:
    hb = json.load(f)
assert hb["schema_version"] == 1, hb
assert hb["num_chains"] == 2, hb
assert len(hb["chains"]) == 2, hb["chains"]
for chain in hb["chains"]:
    assert 0 <= chain["sweeps"] <= chain["total"], chain
    assert not chain["failed"], chain
assert hb["sweeps_done"] == sum(c["sweeps"] for c in hb["chains"]), hb
assert hb["monitored_draws"] > 0, hb
assert hb["rhat"] is None or hb["rhat"] > 0, hb
assert hb["peak_rss_bytes"] > 0, hb
print("heartbeat schema valid:", hb["sweeps_done"], "sweeps,",
      hb["monitored_draws"], "monitored draws")
EOF

# Streaming (out-of-core) fits report shard progress through the same file.
"$BIN" convert --data smoke --out-dir hb_shards
"$BIN" fit --data-dir hb_shards --model hbp --burn 10 --samples 20 \
    --shard-window 1 --heartbeat-file hb_stream.json --heartbeat-every 0.1 \
    --out scores_hb_stream.csv
python3 - <<'EOF'
import json
with open("hb_stream.json") as f:
    hb = json.load(f)
assert hb["schema_version"] == 1, hb
assert "shards" in hb, sorted(hb)
assert hb["shards"]["total"] > 0, hb["shards"]
assert hb["shards"]["done"] == hb["shards"]["total"], hb["shards"]
print("streaming heartbeat valid:", hb["shards"]["done"], "shards")
EOF

echo "== evaluate with metrics"
"$BIN" evaluate --data smoke --scores scores.csv \
    --metrics-out eval_metrics.json | grep -q "AUC(100%)"
python3 - <<'EOF'
import json
with open("eval_metrics.json") as f:
    m = json.load(f)
assert m["run"]["command"] == "evaluate", m["run"]
assert m["counters"]["eval.pipes_ranked"] > 0, m["counters"]
assert "eval.rank_build_us" in m["histograms"], sorted(m["histograms"])
EOF

echo "== sharded data substrate"
# CSV -> shard -> CSV round-trips the whole bundle byte-identically.
"$BIN" convert --data smoke --out-dir shards
test -f shards/manifest.csv
test -f shards/shard-00000.prk
"$BIN" convert --data-dir shards --shard 0 --out smoke_rt
for part in meta pipes segments failures; do
  cmp "smoke_${part}.csv" "smoke_rt_${part}.csv"
done

# Streaming evaluate over the shard must reproduce the in-memory artefacts
# byte-for-byte: same metric lines, same per-pipe and top-K bytes.
"$BIN" evaluate --data smoke --scores scores.csv \
    --per-pipe pp_mem.csv --topk 25 --topk-out tk_mem.csv > eval_mem.txt
"$BIN" evaluate --data-dir shards --scores scores.csv --shard-window 2 \
    --per-pipe pp_str.csv --topk 25 --topk-out tk_str.csv > eval_str.txt
cmp pp_mem.csv pp_str.csv
cmp tk_mem.csv tk_str.csv
diff <(grep -E 'AUC|detect|test year' eval_mem.txt) \
     <(grep -E 'AUC|detect|test year' eval_str.txt)

# Out-of-core fit is shard-window invariant and exports data.shard.*
# telemetry with a hard zero on integrity-failure counters.
"$BIN" fit --data-dir shards --model hbp --burn 10 --samples 20 \
    --shard-window 1 --out scores_str_w1.csv
"$BIN" fit --data-dir shards --model hbp --burn 10 --samples 20 \
    --shard-window 4 --out scores_str_w4.csv --metrics-out shard_metrics.json
cmp scores_str_w1.csv scores_str_w4.csv
python3 - <<'EOF'
import json
with open("shard_metrics.json") as f:
    m = json.load(f)
c = m["counters"]
assert c["data.shard.loads"] > 0, c
assert c["data.shard.bytes_mapped"] > 0, c
assert c.get("data.shard.load_failures", 0) == 0, c
assert c.get("data.shard.checksum_failures", 0) == 0, c
assert "data.shard.load_us" in m["histograms"], sorted(m["histograms"])
print("shard telemetry valid:", c["data.shard.loads"], "loads,",
      c["data.shard.bytes_mapped"], "bytes mapped")
# The streaming fit runs the checkpointed chains: 1 chain, 10 + 20 sweeps.
assert c["mcmc.draws_collected"] == 20, c
assert c["mcmc.chain.0.sweeps"] == 30, c
rate = m["gauges"]["mcmc.acceptance_rate"]
assert 0 < rate < 1, m["gauges"]
print("streaming sampler telemetry valid: acceptance", rate)
EOF

# Out-of-core checkpoints: a halted fit leaves both chains' snapshots in a
# directory it creates itself, and resuming them is byte-identical to an
# uninterrupted fit.
"$BIN" fit --data-dir shards --model hbp --burn 10 --samples 20 --chains 2 \
    --out scores_str_c2.csv
if "$BIN" fit --data-dir shards --model hbp --burn 10 --samples 20 \
    --chains 2 --checkpoint-dir ckpt_str/new --checkpoint-every 2 \
    --checkpoint-halt-after 3 --out scores_str_halt.csv 2>/dev/null; then
  echo "expected interrupted streaming fit to exit non-zero" >&2
  exit 1
fi
test -f ckpt_str/new/streaming_hbp_material.chain0.ckpt
test -f ckpt_str/new/streaming_hbp_material.chain1.ckpt
"$BIN" fit --data-dir shards --model hbp --burn 10 --samples 20 --chains 2 \
    --checkpoint-dir ckpt_str/new --checkpoint-every 2 --resume \
    --out scores_str_resumed.csv
cmp scores_str_c2.csv scores_str_resumed.csv
# Chains and sweep evaluations spread over threads without moving a byte.
"$BIN" fit --data-dir shards --model hbp --burn 10 --samples 20 --chains 3 \
    --threads 1 --out scores_str_t1.csv
"$BIN" fit --data-dir shards --model hbp --burn 10 --samples 20 --chains 3 \
    --threads 3 --sweep-threads 4 --out scores_str_t3.csv
cmp scores_str_t1.csv scores_str_t3.csv

# Sharded generation is a pure function of the seed: the thread count must
# not change a byte of any shard or the manifest.
"$BIN" generate --regions 2 --pipes 400 --seed 5 --out-dir shards_gen
"$BIN" generate --regions 2 --pipes 400 --seed 5 --threads 1 \
    --out-dir shards_gen_t1
for f in manifest.csv shard-00000.prk shard-00001.prk; do
  cmp "shards_gen/$f" "shards_gen_t1/$f"
done

echo "== checkpoint / resume"
# Keystone guarantee: a fit killed mid-run and resumed produces scores
# byte-identical to an uninterrupted run.
"$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 --chains 2 \
    --out scores_ck_base.csv
# Crash simulation: the hidden halt hook stops every chain after 15 of 30
# sweeps and exits non-zero, leaving the snapshots a kill -9 would leave.
# The fit creates the checkpoint directory itself.
if "$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 --chains 2 \
    --checkpoint-dir ckpt --checkpoint-every 5 --checkpoint-halt-after 15 \
    --out scores_ck_halt.csv 2>/dev/null; then
  echo "expected interrupted fit to exit non-zero" >&2
  exit 1
fi
test -f ckpt/dpmhbp.chain0.ckpt
test -f ckpt/dpmhbp.chain1.ckpt
"$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 --chains 2 \
    --checkpoint-dir ckpt --checkpoint-every 5 --resume \
    --out scores_ck_resumed.csv --metrics-out ck_metrics.json
cmp scores_ck_base.csv scores_ck_resumed.csv
python3 - <<'EOF'
import json
with open("ck_metrics.json") as f:
    m = json.load(f)
assert m["counters"]["checkpoint.restores"] >= 2, m["counters"]
assert m["counters"]["checkpoint.writes"] >= 2, m["counters"]
assert "checkpoint.write_us" in m["histograms"], sorted(m["histograms"])
print("checkpoint telemetry valid:",
      m["counters"]["checkpoint.restores"], "restores,",
      m["counters"]["checkpoint.writes"], "writes")
EOF

# A real kill -9 mid-fit must leave resumable snapshots too.
rm -f ckpt/*.ckpt
"$BIN" fit --data smoke --model dpmhbp --burn 200 --samples 400 --chains 2 \
    --checkpoint-dir ckpt --checkpoint-every 5 --out scores_ck_killed.csv &
FIT_PID=$!
for _ in $(seq 1 200); do
  [ -f ckpt/dpmhbp.chain0.ckpt ] && break
  sleep 0.1
done
kill -9 "$FIT_PID" 2>/dev/null || true
wait "$FIT_PID" 2>/dev/null || true
test -f ckpt/dpmhbp.chain0.ckpt
# The long killed run has a different sweep count, so resuming it with the
# short config must be rejected with a fingerprint error, not mispooled.
if "$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 --chains 2 \
    --checkpoint-dir ckpt --resume --out scores_ck_bad.csv 2>resume_err.txt; then
  echo "expected resume with mismatched config to fail" >&2
  exit 1
fi
grep -q fingerprint resume_err.txt
# Resuming with the original config finishes the killed run cleanly.
"$BIN" fit --data smoke --model dpmhbp --burn 200 --samples 400 --chains 2 \
    --checkpoint-dir ckpt --checkpoint-every 5 --resume --out scores_ck_killed.csv
test -f scores_ck_killed.csv
if "$BIN" fit --data smoke --model dpmhbp --resume --out x.csv 2>/dev/null; then
  echo "expected --resume without --checkpoint-dir to fail" >&2
  exit 1
fi

echo "== serve golden equivalence"
# The serving path must answer with the batch path's exact bytes: start a
# server on an ephemeral port, pull the full per-pipe table and the top-K
# list through the wire protocol, and cmp them against `evaluate` output.
"$BIN" evaluate --data smoke --scores scores.csv \
    --per-pipe batch_per_pipe.csv --topk 25 --topk-out batch_topk.csv \
    | grep -q "AUC(100%)"
"$BIN" serve --data smoke --scores scores.csv --port 0 --port-file port.txt &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -f port.txt ] && break
  sleep 0.1
done
test -f port.txt
PORT="$(cat port.txt)"

"$BIN" query --port "$PORT" --verb ping | grep -q pong
"$BIN" query --port "$PORT" --verb dump --out serve_per_pipe.csv
"$BIN" query --port "$PORT" --verb topk --k 25 --out serve_topk.csv
cmp batch_per_pipe.csv serve_per_pipe.csv
cmp batch_topk.csv serve_topk.csv

# Point queries and what-if answer without error.
FIRST_PIPE="$(sed -n 2p batch_per_pipe.csv | cut -d, -f1)"
"$BIN" query --port "$PORT" --verb score --pipe "$FIRST_PIPE" | grep -q "rank"
"$BIN" query --port "$PORT" --verb whatif --pipe "$FIRST_PIPE" \
    --mode scale --value 10 | grep -q "what-if"
"$BIN" query --port "$PORT" --verb topk --k 5 --budget 100000 \
    --out serve_topk_budget.csv
test -s serve_topk_budget.csv

# Reload re-reads the score file and swaps generations; the re-served table
# must still match the batch bytes (same artifact, new snapshot).
"$BIN" query --port "$PORT" --verb reload | grep -q "generation 2"
"$BIN" query --port "$PORT" --verb dump --out serve_per_pipe_g2.csv
cmp batch_per_pipe.csv serve_per_pipe_g2.csv

# Metrics verb exports valid JSON with zero protocol errors.
"$BIN" query --port "$PORT" --verb metrics --out serve_metrics.json
python3 - <<'EOF'
import json
with open("serve_metrics.json") as f:
    m = json.load(f)
assert m["schema_version"] == 1, m
assert m["run"]["command"] == "serve", m["run"]
assert m["counters"]["serve.requests"] > 0, m["counters"]
assert m["counters"]["serve.reloads"] == 1, m["counters"]
assert m["counters"].get("serve.protocol_errors", 0) == 0, m["counters"]
assert m["gauges"]["serve.snapshot_generation"] == 2, m["gauges"]
assert "serve.request_us" in m["histograms"], sorted(m["histograms"])
print("serve metrics valid:", int(m["counters"]["serve.requests"]),
      "requests, generation", int(m["gauges"]["serve.snapshot_generation"]))
EOF

# Unknown pipe id is a typed error (non-zero exit), not a dropped server.
if "$BIN" query --port "$PORT" --verb score --pipe 999999999 2>/dev/null; then
  echo "expected NOT_FOUND for unknown pipe id" >&2
  exit 1
fi
"$BIN" query --port "$PORT" --verb ping | grep -q pong

# Clean shutdown: the verb acknowledges, the server process exits 0.
"$BIN" query --port "$PORT" --verb shutdown | grep -q "acknowledged"
wait "$SERVE_PID"

echo "== log-level validation"
if "$BIN" generate --region tiny --out loglevel_bad --log-level frobnicate \
    2>/dev/null; then
  echo "expected failure on bad --log-level" >&2
  exit 1
fi

echo "== diagnose"
"$BIN" diagnose --data smoke --burn 10 --samples 30 | grep -q "alpha"
"$BIN" diagnose --data smoke --burn 10 --samples 30 --chains 2 | grep -q "Rhat"
"$BIN" diagnose --data smoke --model hbp --burn 10 --samples 30 --chains 2 \
    | grep -q "Rhat"

echo "== fit baseline models"
for model in cox weibull svm logistic hbp rsf gbt; do
  "$BIN" fit --data smoke --model "$model" --out "scores_$model.csv"
done
# Tree ensembles promise bit-identical scores for every fit thread count.
for model in rsf gbt; do
  "$BIN" fit --data smoke --model "$model" --threads 4 \
      --out "scores_${model}_t4.csv"
  cmp "scores_$model.csv" "scores_${model}_t4.csv"
done

echo "== rolling"
"$BIN" rolling --data smoke --first-year 2008 --last-year 2009 \
    --burn 10 --samples 20 > rolling_cold.txt
grep -q "rolling cold over 2 years" rolling_cold.txt
for model in DPMHBP Cox SVMrank Weibull RSF GBT; do
  grep -q "$model" rolling_cold.txt
done

echo "== error handling"
if "$BIN" fit --data /nonexistent --model dpmhbp --out x.csv 2>/dev/null; then
  echo "expected failure on missing data" >&2
  exit 1
fi
if "$BIN" frobnicate 2>/dev/null; then
  echo "expected usage error on unknown command" >&2
  exit 1
fi
# Integer flags are range-checked, never truncated to int.
if "$BIN" generate --region tiny --pipes 4294967297 --out trunc \
    2>/dev/null; then
  echo "expected --pipes beyond int range to fail" >&2
  exit 1
fi
if "$BIN" generate --regions 4294967298 --out-dir trunc_shards 2>/dev/null; then
  echo "expected --regions beyond int range to fail" >&2
  exit 1
fi
for bad in -1 1.5 nan inf; do
  if "$BIN" generate --region tiny --connect "$bad" --out connect_bad \
      2>/dev/null; then
    echo "expected --connect $bad to fail" >&2
    exit 1
  fi
  if "$BIN" generate --regions 1 --pipes 100 --connect "$bad" \
      --out-dir connect_bad_shards 2>/dev/null; then
    echo "expected sharded --connect $bad to fail" >&2
    exit 1
  fi
done
# A negative burn-in is rejected by every hierarchical fit, in memory and
# out of core, instead of silently shortening the run.
for model in dpmhbp hbp; do
  if "$BIN" fit --data smoke --model "$model" --burn -5 --samples 20 \
      --out burn_bad.csv 2>/dev/null; then
    echo "expected --burn -5 to fail for --model $model" >&2
    exit 1
  fi
done
if "$BIN" fit --data-dir shards --model hbp --burn -100 --samples 20 \
    --out burn_bad_stream.csv 2>/dev/null; then
  echo "expected out-of-core --burn -100 to fail" >&2
  exit 1
fi
# MCMC commands reject unknown flags with exit code 2 and name the flag, so
# a typo or a removed flag never silently fits with the defaults.
for flags in "--bogus-flag 7" "--fast-sweeps" "--simd off"; do
  rc=0
  # shellcheck disable=SC2086
  "$BIN" fit --data smoke --model dpmhbp --burn 10 --samples 20 $flags \
      --out flag_bad.csv 2>flag_err.txt || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "expected exit 2 for fit $flags, got $rc" >&2
    exit 1
  fi
  grep -q "unknown flag ${flags%% *}" flag_err.txt
done
rc=0
"$BIN" fit --data-dir shards --model hbp --bogus-flag 7 --out flag_bad.csv \
    2>/dev/null || rc=$?
test "$rc" -eq 2
# So does every other command, in each of its forms, before it reads a
# file or opens a socket. Each case is: the flag to be named, then the
# command line. Every rolling fit is cold, so the flag that once asked for
# a warm one is unknown too.
while read -r flag args; do
  rc=0
  # shellcheck disable=SC2086
  "$BIN" $args </dev/null 2>flag_err.txt || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "expected exit 2 for $args, got $rc" >&2
    exit 1
  fi
  grep -q "^${args%% *}: unknown flag --$flag" flag_err.txt
done <<'CASES'
sed generate --region tiny --out flag_bad --sed 3
sed generate --regions 1 --pipes 100 --out-dir flag_bad_shards --sed 3
bogus convert --data smoke --out-dir flag_bad_shards --bogus 2
bogus evaluate --data smoke --scores scores.csv --bogus 1
bogus evaluate --data-dir shards --scores scores.csv --bogus 1
bogus riskmap --data smoke --scores scores.csv --bogus 1
budgt plan --data smoke --scores scores.csv --budgt 5
bogus serve --data smoke --scores scores.csv --port 0 --bogus 1
bogus serve --data-dir shards --scores scores.csv --port 0 --bogus 1
bogus query --port 1 --verb ping --bogus 1
bogus top --heartbeat flag_bad.json --plain --iterations 1 --bogus 1
warm-start rolling --data smoke --burn 10 --samples 20 --warm-start
CASES
test ! -e flag_bad_pipes.csv
test ! -e flag_bad_shards

echo "CLI smoke test passed"
