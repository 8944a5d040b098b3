# Bench harness: one binary per paper table/figure plus ablations and
# google-benchmark performance suites. Binaries land directly in
# ${CMAKE_BINARY_DIR}/bench so `for b in build/bench/*; do $b; done`
# runs exactly the harness and nothing else.
function(fcdpm_add_bench name)
  add_executable(${name} ${CMAKE_CURRENT_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE fcdpm)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(fcdpm_add_perf_bench name)
  fcdpm_add_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()

# One binary per paper figure/table.
fcdpm_add_bench(fig2_stack_curves)
fcdpm_add_bench(fig3_system_efficiency)
fcdpm_add_bench(fig4_motivational)
fcdpm_add_bench(fig7_profiles)
fcdpm_add_bench(table2_experiment1)
fcdpm_add_bench(table3_experiment2)

# Headline lifetime measurement.
fcdpm_add_bench(headline_lifetime)

# Ablations (DESIGN.md A1-A5, A8-A9).
fcdpm_add_bench(abl_predictors)
fcdpm_add_bench(abl_rho_sweep)
fcdpm_add_bench(abl_capacity_sweep)
fcdpm_add_bench(abl_beta_sweep)
fcdpm_add_bench(abl_overhead)
fcdpm_add_bench(abl_dvs)
fcdpm_add_bench(abl_battery_recovery)
fcdpm_add_bench(abl_quantized_levels)
fcdpm_add_bench(abl_aggregation)
fcdpm_add_bench(abl_fc_shutdown)
fcdpm_add_bench(abl_dpm_policies)
fcdpm_add_bench(abl_model_mismatch)
fcdpm_add_bench(abl_seed_sensitivity)
fcdpm_add_bench(abl_physical_source)
fcdpm_add_bench(abl_multi_device)
fcdpm_add_bench(abl_trace_fidelity)
fcdpm_add_bench(abl_buffer_technology)

# google-benchmark performance suites (A6-A7).
fcdpm_add_perf_bench(perf_solvers)
fcdpm_add_perf_bench(perf_simulator)

# Self-checking overhead budget: exits 1 when the null-sink tracing
# path costs >= 2 % over observability disabled.
fcdpm_add_bench(perf_tracing_overhead)

# Cap-governor budget: exits 1 when an attached-but-idle governor costs
# >= 2 % over no governor, throttles a healthy run, or perturbs its
# output.
fcdpm_add_bench(perf_cap)

# Regression-gated single-run bench (batched engine at B = 1): writes
# BENCH_core.json, exits 1 on any batched-vs-reference bit divergence
# (and on --min-speedup misses).
fcdpm_add_bench(perf_harness)

# Regression-gated batched-sweep bench: writes BENCH_batch.json, exits 1
# on any batched-vs-reference bit divergence at either job count (and on
# --min-speedup misses; CI gates at 4x).
fcdpm_add_bench(perf_batch)

# Bench-history ledger: appends BENCH_*.json rows to
# BENCH_HISTORY.jsonl; --check exits 2 when a headline metric
# regressed past tolerance against the trailing-window median.
fcdpm_add_bench(bench_history)
