#!/bin/sh
# CI gate: tier-1 build + tests (which include the parallel QCheck
# parity suite and row-order determinism checks), then the morsel-driven
# parallel executor assertions on the EXP-A operator mix at n_docs=3200:
#
#   - zero result-set divergence between the parallel executor
#     (jobs in {2,4}), the serial compiled executor, the tuple-at-a-time
#     interpreter, the list-based Naive oracle (structural joins) and
#     the logical reference evaluator (worked EXP-A query);
#   - the jobs=1 dispatch stays on the block driver: zero morsels in
#     its per-node stats and no helper domain spawned (counter-based;
#     its wall-clock ratio to the plain block drain is only reported);
#   - median ns/row speedup >= 1.8x at --jobs 4 over --jobs 1.  The
#     speedup bound needs hardware: it is enforced only when the host
#     reports >= 4 cores (Domain.recommended_domain_count); on smaller
#     hosts the bench prints SKIP with the measured number and the JSON
#     records "speedup_gate_enforced": false.
#
# Writes BENCH_parallel.json (same schema family as BENCH_exec.json).
# Exit code is non-zero on any enforced-bound failure.
#
# Pass --seed N (default 42) to regenerate the database from another
# Datagen seed; the flag is shared by all bench executables.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest
dune exec bench/parallel.exe -- --assert --docs 3200 --json BENCH_parallel.json "$@"
