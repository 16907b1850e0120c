# Default microbench filter, sourced by bench_snapshot.sh and
# bench_compare.sh so the recorded snapshot and the compared run cover
# the same benchmarks: the precompute/refsim kernels (the refsim tile
# walk and its bit-plane form included), the search inner loop (mapper
# sample, nest analysis, evaluate, whole searches), and the
# obs/dse/layout benches. Override per run with FILTER.
BENCH_DEFAULT_FILTER="Precompute|RefSim|TileWalk|BitWalk|SliceMixture|Evaluate|Fault|Obs|Dse|BankConflict|CoSearch|Search|MapperSample|NestAnalysis"

# Runs per benchmark. The snapshot records, and the gate compares, the
# median aggregate over them, which one outlying run cannot move.
BENCH_REPETITIONS=5
