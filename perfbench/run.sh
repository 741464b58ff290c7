#!/usr/bin/env bash
# Builds and runs the benchmark; run it from the repository root.  The
# arguments go to perfbench/main.exe (see perfbench/WORKLOADS.md), e.g.
#   bash perfbench/run.sh --workload web-failover --seed 1 --seconds 30 --trace 0
set -euo pipefail
exec dune exec --root . --display quiet perfbench/main.exe -- "$@"
