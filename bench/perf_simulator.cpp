// Performance A7: simulator throughput — slots per second for the exact
// slot simulator under each policy, the batched engine (one-lane batch)
// on the same runs, and the dt-stepped simulator for comparison. Bounds
// how large a trace the harness can sweep.
//
// The binary is also the allocation regression gate for both slot
// loops: main() proves the steady-state loops of batch::simulate and
// sim::simulate are free of heap traffic (exit 1 on regression, see
// below).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "batch/engine.hpp"
#include "sim/compiled_trace.hpp"
#include "sim/experiments.hpp"
#include "sim/slot_simulator.hpp"
#include "sim/timed_simulator.hpp"
#include "workload/camcorder.hpp"
#include "workload/trace.hpp"

// Global allocation counter: the steady-state slot loop must be free of
// heap traffic, and this binary proves it (see main below).
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC pairs the replaced operator new with the in-class free() and
// warns at inlined call sites; the pairing is in fact consistent
// (malloc in, free out) across all replacements below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace fcdpm;

const sim::ExperimentConfig& config1() {
  static const sim::ExperimentConfig config = sim::experiment1_config();
  return config;
}

const sim::CompiledTrace& compiled1() {
  static const sim::CompiledTrace compiled(config1().trace,
                                           config1().device);
  return compiled;
}

void run_slot_sim(benchmark::State& state, sim::PolicyKind kind) {
  const sim::ExperimentConfig& config = config1();
  std::size_t slots = 0;
  for (auto _ : state) {
    dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
    const std::unique_ptr<core::FcOutputPolicy> fc =
        sim::make_fc_policy(kind, config);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);
    sim::SimulationOptions options = config.simulation;
    const sim::SimulationResult r =
        sim::simulate(config.trace, dpm_policy, *fc, hybrid, options);
    benchmark::DoNotOptimize(r.totals.fuel);
    slots += r.slots;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
  state.SetLabel("items = task slots");
}

void BM_SlotSim_Conv(benchmark::State& state) {
  run_slot_sim(state, sim::PolicyKind::Conv);
}
BENCHMARK(BM_SlotSim_Conv);

void BM_SlotSim_Asap(benchmark::State& state) {
  run_slot_sim(state, sim::PolicyKind::Asap);
}
BENCHMARK(BM_SlotSim_Asap);

void BM_SlotSim_FcDpm(benchmark::State& state) {
  run_slot_sim(state, sim::PolicyKind::FcDpm);
}
BENCHMARK(BM_SlotSim_FcDpm);

// Same runs through the batched engine at B = 1 (bit-identical
// results); the ratio against BM_SlotSim_* is the single-run speedup
// tracked by perf_harness / BENCH_core.json.
void run_batched_sim(benchmark::State& state, sim::PolicyKind kind) {
  const sim::ExperimentConfig& config = config1();
  const sim::CompiledTrace& compiled = compiled1();
  std::size_t slots = 0;
  for (auto _ : state) {
    dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
    const std::unique_ptr<core::FcOutputPolicy> fc =
        sim::make_fc_policy(kind, config);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);
    sim::SimulationOptions options = config.simulation;
    const sim::SimulationResult r =
        batch::simulate(compiled, dpm_policy, *fc, hybrid, options);
    benchmark::DoNotOptimize(r.totals.fuel);
    slots += r.slots;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
  state.SetLabel("items = task slots");
}

void BM_BatchedSim_Conv(benchmark::State& state) {
  run_batched_sim(state, sim::PolicyKind::Conv);
}
BENCHMARK(BM_BatchedSim_Conv);

void BM_BatchedSim_Asap(benchmark::State& state) {
  run_batched_sim(state, sim::PolicyKind::Asap);
}
BENCHMARK(BM_BatchedSim_Asap);

void BM_BatchedSim_FcDpm(benchmark::State& state) {
  run_batched_sim(state, sim::PolicyKind::FcDpm);
}
BENCHMARK(BM_BatchedSim_FcDpm);

void BM_TimedSim_FcDpm_10ms(benchmark::State& state) {
  const sim::ExperimentConfig& config = config1();
  std::size_t slots = 0;
  for (auto _ : state) {
    dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
    const std::unique_ptr<core::FcOutputPolicy> fc =
        sim::make_fc_policy(sim::PolicyKind::FcDpm, config);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);
    sim::TimedOptions options;
    options.initial_storage = config.initial_storage;
    const sim::SimulationResult r = sim::simulate_timed(
        config.trace, dpm_policy, *fc, hybrid, options);
    benchmark::DoNotOptimize(r.totals.fuel);
    slots += r.slots;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
  state.SetLabel("items = task slots (dt = 10 ms)");
}
BENCHMARK(BM_TimedSim_FcDpm_10ms);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl::paper_camcorder_trace());
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_TraceCompilation(benchmark::State& state) {
  const sim::ExperimentConfig& config = config1();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::CompiledTrace(config.trace, config.device));
  }
}
BENCHMARK(BM_TraceCompilation);

/// Allocations performed by one FC-DPM run over `ct` on the batched
/// engine or, with `reference`, on sim::simulate (policies and hybrid
/// are built outside the counted window).
std::size_t allocations_per_run(const sim::CompiledTrace& ct,
                                bool reference) {
  const sim::ExperimentConfig& config = config1();
  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      sim::make_fc_policy(sim::PolicyKind::FcDpm, config);
  power::HybridPowerSource hybrid = sim::make_hybrid(config);
  const sim::SimulationOptions options = config.simulation;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const sim::SimulationResult r =
      reference
          ? sim::simulate(ct.trace(), dpm_policy, *fc, hybrid, options)
          : batch::simulate(ct, dpm_policy, *fc, hybrid, options);
  benchmark::DoNotOptimize(r.totals.fuel);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Self-check (exit 1 on regression): the steady-state slot loops of
  // batch::simulate and sim::simulate must not allocate. Per-run setup
  // (result strings, the lane and state columns) may cost a fixed number
  // of allocations, so the gate compares a 1x trace against a 10x tiling
  // of the same slots under identical names: any per-slot heap traffic
  // shows up as a higher count on the long run.
  using namespace fcdpm;
  const std::vector<wl::TaskSlot>& slots = config1().trace.slots();
  std::vector<wl::TaskSlot> tiled;
  tiled.reserve(slots.size() * 10);
  for (int repeat = 0; repeat < 10; ++repeat) {
    tiled.insert(tiled.end(), slots.begin(), slots.end());
  }
  const wl::Trace short_trace("alloc-check", slots);
  const wl::Trace long_trace("alloc-check", std::move(tiled));
  const sim::CompiledTrace short_compiled(short_trace, config1().device);
  const sim::CompiledTrace long_compiled(long_trace, config1().device);

  int status = 0;
  for (const bool reference : {false, true}) {
    const char* engine = reference ? "sim::simulate" : "batch::simulate";
    (void)allocations_per_run(short_compiled, reference);  // warm lazy init
    (void)allocations_per_run(long_compiled, reference);
    const std::size_t short_allocs =
        allocations_per_run(short_compiled, reference);
    const std::size_t long_allocs =
        allocations_per_run(long_compiled, reference);
    if (long_allocs != short_allocs) {
      std::fprintf(stderr,
                   "FAIL: %s allocated %zu times over %zu slots but %zu "
                   "times over %zu slots — the steady-state slot loop is "
                   "no longer allocation-free\n",
                   engine, short_allocs, short_trace.size(), long_allocs,
                   long_trace.size());
      status = 1;
      continue;
    }
    std::printf(
        "%s steady-state loop allocation-free (%zu fixed allocations per "
        "run at both %zu and %zu slots)\n",
        engine, short_allocs, short_trace.size(), long_trace.size());
  }
  return status;
}
