# Golden byte-identity runs: the one list of commands and outputs behind
# tests/golden/sha256sums.txt. Sourced (POSIX sh) by scripts/check.sh,
# which hashes the outputs against the manifest, and by
# scripts/regen_golden.sh, which rewrites the manifest from them.
#
#   . scripts/golden_runs.sh
#   golden_runs "$dir"                           # run every command into $dir
#   (cd "$dir" && sha256sum $golden_files)       # hash in manifest order
#
# Run from the repository root against a default-preset ./build.

# Hashed outputs, in manifest order.
golden_files="fig5_capacity.csv fig11_success.csv attack_rate.csv \
ddpsim_short.csv ddpsim_short.jsonl ddpsim_cheat.csv ddpsim_cheat.jsonl \
ddpsim_fairshare.csv ddpsim_fairshare.jsonl ddpsim_priority.csv \
ddpsim_priority.jsonl"

golden_runs() {
  # Laptop-scale runs of the figure benches plus a short traced ddpsim
  # scenario.
  env -u DDP_FULL -u DDP_SEED ./build/bench/bench_fig5_capacity \
      --out-dir "$1" > /dev/null
  env -u DDP_FULL -u DDP_SEED DDP_TRIALS=1 ./build/bench/bench_fig11_success \
      --out-dir "$1" > /dev/null
  env -u DDP_FULL -u DDP_SEED DDP_TRIALS=1 ./build/bench/bench_attack_rate \
      --out-dir "$1" > /dev/null
  ./build/examples/ddpsim peers=300 agents=20 minutes=8 seed=7 \
      trace="$1/ddpsim_short.jsonl" csv="$1/ddpsim_short.csv" > /dev/null
  # The same scenario with colluding reporters, fabricated neighbour lists
  # and a lossy, corrupting control channel: the default run above never
  # calls a ReportPolicy or ListPolicy and never touches the faulty
  # transport, so it cannot see a change to those paths.
  ./build/examples/ddpsim peers=300 agents=20 minutes=8 seed=7 \
      cheat=collude lists=fabricate loss=0.05 corrupt=0.02 \
      trace="$1/ddpsim_cheat.jsonl" csv="$1/ddpsim_cheat.csv" > /dev/null
  # Two runs through the flow engine's other service branches, on lossy,
  # duplicating data links (link_reliability < 1): max-min fair share, and
  # priority admission. The runs above only reach pooled class-blind
  # service on perfect links.
  ./build/examples/ddpsim peers=300 agents=20 minutes=8 seed=7 \
      defense=fair-share data_faults=1 loss=0.05 dup=0.02 \
      trace="$1/ddpsim_fairshare.jsonl" csv="$1/ddpsim_fairshare.csv" \
      > /dev/null
  ./build/examples/ddpsim peers=300 agents=20 minutes=8 seed=7 \
      admission=priority data_faults=1 loss=0.05 dup=0.02 \
      trace="$1/ddpsim_priority.jsonl" csv="$1/ddpsim_priority.csv" \
      > /dev/null
}
