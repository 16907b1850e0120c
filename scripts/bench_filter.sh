# Default microbench filter, sourced by bench_snapshot.sh and
# bench_compare.sh so the recorded snapshot and the compared run cover
# the same benchmarks: the precompute/refsim kernels, the search inner
# loop (mapper sample, nest analysis, evaluate, whole searches), and the
# obs/dse/layout benches. Override per run with FILTER.
BENCH_DEFAULT_FILTER="Convolve|Precompute|RefSim|Gnorm|Arena|SliceMixture|Evaluate|Fault|Obs|Dse|BankConflict|CoSearch|Search|MapperSample|NestAnalysis"
