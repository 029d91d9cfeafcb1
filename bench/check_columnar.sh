#!/bin/sh
# CI gate for the columnar storage-to-kernel hot path: tier-1 build +
# tests, then the columnar bench assertions on the scan/filter/map
# subset of the EXP-A operator mix at n_docs=800 —
#
#   * columnar decode (Store.scan_columns, only the referenced columns)
#     must run >= 2x faster (median ns/row, normalized by extent size)
#     than the row-page decode (Store.scan, whole-record codec), both
#     followed by the same compiled plan of fused select/map/project
#     kernels;
#   * a selective scan of one dictionary-encoded string column
#     (Document.author) must read >= 3x fewer bytes_read than the row
#     full scan of the same class;
#   * zero result divergence across interpreted / compiled serial /
#     compiled morsel-parallel executors.
#
# Both timed pipelines are serial, so the gates are single-core safe;
# the parallel fused speedup in the JSON is informational only.  Writes
# BENCH_columnar.json (with the Datagen seed and host core count in the
# header) next to this script's parent directory.  Exit code is non-zero
# on any failure.
#
# Pass --seed N (default 42) to regenerate the database from another
# Datagen seed; the flag is shared by all bench executables.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest
dune exec bench/columnar.exe -- --assert --docs 800 --json BENCH_columnar.json "$@"
