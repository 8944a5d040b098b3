// Tracing overhead: simulate() wall time with observability disabled,
// with an attached-but-discarding NullTraceSink, and with the JSONL
// serializer. The null-sink path is the cost ceiling for leaving the
// pipeline wired into sweeps; this bench FAILS (exit 1) when it exceeds
// the 2 % budget over the disabled path.
//
// Second section: sweep-scale telemetry. run_sweep wall time with no
// telemetry vs with shards attached and a null aggregator (no sampler
// thread, snapshots never pulled during the run) — the cost ceiling
// for leaving shards wired into every sweep. Same 2 % budget, same
// exit-1 gate, plus a hard bit-identity assertion between the
// telemetry-on and telemetry-off results.
//
// Third section: runtime auditing. run_sweep wall time audit-off vs
// sample-mode (the always-on candidate) under the same 2 % budget and
// exit-1 gate; strict mode is reported for information only. Bit
// identity between audited and unaudited sweeps is asserted first.
//
// Method. One simulate() or sweep lasts 0.03-0.3 ms, and on a shared
// host two back-to-back 20 ms stretches of the same work differ by
// several percent, so a gate never times one variant's block against
// the other's. A pair interleaves the baseline and the observed variant
// run by run, alternating which goes first, and times every run on its
// own; the pair lasts until each side has summed at least 20 ms, and
// its ratio is observed/baseline total time. Load that changes over
// milliseconds then hits both sides alike. A gate takes the median of
// the pairs' ratios. The single-threaded gates run pinned to one CPU;
// the telemetry gate runs on kSweepJobs CPUs, so its workers still
// write their shards at the same time and a shard sharing a cache line
// with another still costs what it would in a sweep. Every
// gate also times a negative control: the observed variant doing 5 %
// more work. The control must exceed the budget; when it does not, the
// measurement cannot see a 5 % slowdown, let alone a 2 % one, and the
// bench exits 1 instead of passing blind.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "obs/context.hpp"
#include "par/sweep.hpp"
#include "par/worker_pool.hpp"
#include "sim/experiments.hpp"
#include "sim/slot_simulator.hpp"
#include "telemetry/sweep_telemetry.hpp"

namespace {

using namespace fcdpm;
using Clock = std::chrono::steady_clock;

constexpr double kBudgetPct = 2.0;
constexpr double kMinSampleMs = 20.0;  // least time per side of a pair
constexpr int kPairs = 41;             // timed pairs per comparison
// Run counts are 20 * 2^k, so one extra run in every 20 is exactly +5 %.
constexpr int kBaseRuns = 20;
constexpr int kControlDivisor = 20;

// Every run stores a result here: defeats dead-code elimination without
// perturbing the timing.
volatile double sink_value;

/// One run of a measured operation: a simulate() or a run_sweep().
using Run = std::function<void()>;

double time_ms(const Run& run) {
  const Clock::time_point start = Clock::now();
  run();
  const std::chrono::duration<double, std::milli> elapsed =
      Clock::now() - start;
  return elapsed.count();
}

void simulate_once(const sim::ExperimentConfig& config,
                   obs::Context* observer) {
  sim::SimulationOptions options = config.simulation;
  options.observer = observer;
  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      sim::make_fc_policy(sim::PolicyKind::FcDpm, config);
  power::HybridPowerSource hybrid = sim::make_hybrid(config);
  const sim::SimulationResult r =
      sim::simulate(config.trace, dpm_policy, *fc, hybrid, options);
  sink_value = r.fuel().value();
}

/// Discards everything written: measures serialization without growing
/// a buffer across the runs.
class DiscardBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

/// While alive, restricts the calling thread, and every thread it
/// starts (the sweep workers), to `cpus` of the CPUs it may run on,
/// starting with the one it is on. Unpinned, the workers land on
/// different vCPUs from run to run, and on a shared host vCPUs differ
/// in speed.
class Pinned {
 public:
  explicit Pinned(std::size_t cpus) {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) {
      std::perror("sched_getaffinity (measuring unpinned)");
      return;
    }
    cpu_set_t mask;
    CPU_ZERO(&mask);
    const int here = sched_getcpu();
    CPU_SET(here, &mask);
    for (int cpu = 0;
         cpu < CPU_SETSIZE && static_cast<std::size_t>(CPU_COUNT(&mask)) < cpus;
         ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) {
        CPU_SET(cpu, &mask);
      }
    }
    pinned_ = sched_setaffinity(0, sizeof mask, &mask) == 0;
    if (!pinned_) {
      std::perror("sched_setaffinity (measuring unpinned)");
    }
  }
  ~Pinned() {
    if (pinned_) {
      sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
  }
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;

 private:
  cpu_set_t allowed_;
  bool pinned_ = false;
};

/// Runs of `run` that sum to at least kMinSampleMs (the first pass also
/// warms caches and the allocator), and the time they took.
std::pair<int, double> calibrate(const Run& run) {
  for (int runs = kBaseRuns;; runs *= 2) {
    double total_ms = 0.0;
    for (int k = 0; k < runs; ++k) {
      total_ms += time_ms(run);
    }
    if (total_ms >= kMinSampleMs) {
      return {runs, total_ms};
    }
  }
}

/// One pair: `runs` runs each of `base` and `variant`, interleaved run
/// by run and alternating which goes first. With `control`, `variant`
/// runs once more every kControlDivisor runs (5 % more work). Returns
/// variant/base total time.
double pair_ratio(const Run& base, const Run& variant, int runs,
                  bool control) {
  double base_ms = 0.0;
  double variant_ms = 0.0;
  for (int k = 0; k < runs; ++k) {
    if (k % 2 == 0) {
      base_ms += time_ms(base);
      variant_ms += time_ms(variant);
    } else {
      variant_ms += time_ms(variant);
      base_ms += time_ms(base);
    }
    if (control && k % kControlDivisor == 0) {
      variant_ms += time_ms(variant);
    }
  }
  return variant_ms / base_ms;
}

/// Overhead of `variant` over `base`, in percent: the median of the
/// pair ratios over kPairs pairs; the median discards the pairs a load
/// spike hit.
double overhead_pct(const Run& base, const Run& variant, int runs,
                    bool control = false) {
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    ratios.push_back(pair_ratio(base, variant, runs, control));
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2,
                   ratios.end());
  return 100.0 * (ratios[kPairs / 2] - 1.0);
}

/// One budget gate: `observed` must cost less than kBudgetPct over
/// `base`, and the negative control (`observed` doing 5 % more work)
/// must not. Prints both figures; returns false with a FAIL line.
bool gate(const char* what, const Run& base, const Run& observed,
          int runs) {
  const double observed_pct = overhead_pct(base, observed, runs);
  const double control_pct = overhead_pct(base, observed, runs, true);
  std::printf("  %-22s %+8.2f%%  (negative control, +5 %% work: %+.2f%%)\n",
              what, observed_pct, control_pct);
  if (observed_pct >= kBudgetPct) {
    std::fprintf(stderr, "FAIL: %s overhead %.2f%% exceeds the 2%% budget\n",
                 what, observed_pct);
    return false;
  }
  if (control_pct < kBudgetPct) {
    std::fprintf(stderr,
                 "FAIL: %s gate is blind: a 5%% slowdown read %.2f%%, under "
                 "the 2%% budget\n",
                 what, control_pct);
    return false;
  }
  std::printf("PASS: %s overhead %.2f%% < 2%%\n", what, observed_pct);
  return true;
}

// --- sweep-scale telemetry overhead ---------------------------------

constexpr std::size_t kSweepJobs = 2;

par::SweepGrid sweep_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.rhos = {0.5, 0.7};
  grid.capacities = {Coulomb(300.0), Coulomb(600.0)};
  return grid;
}

void sweep_once(const sim::ExperimentConfig& config,
                const par::SweepGrid& grid,
                telemetry::SweepTelemetry* telemetry, std::size_t jobs) {
  par::SweepOptions options;
  options.jobs = jobs;
  options.telemetry = telemetry;
  const par::SweepResult result = par::run_sweep(config, grid, options);
  sink_value = static_cast<double>(result.points.size());
}

/// Bitwise equality of every per-point result field the reports carry.
bool identical_results(const par::SweepResult& a, const par::SweepResult& b) {
  if (a.points.size() != b.points.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    const sim::SimulationResult& x = a.points[k].result;
    const sim::SimulationResult& y = b.points[k].result;
    if (x.totals.fuel.value() != y.totals.fuel.value() ||
        x.totals.bled.value() != y.totals.bled.value() ||
        x.totals.unserved.value() != y.totals.unserved.value() ||
        x.totals.duration.value() != y.totals.duration.value() ||
        x.storage_end.value() != y.storage_end.value() ||
        x.latency_added.value() != y.latency_added.value() ||
        x.slots != y.slots || x.sleeps != y.sleeps) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const sim::ExperimentConfig config = sim::experiment1_config();

  obs::NullTraceSink null_sink;
  obs::Context null_context(&null_sink, nullptr);
  DiscardBuffer discard;
  std::ostream jsonl_out(&discard);
  obs::JsonlTraceSink jsonl_sink(jsonl_out);
  obs::Context jsonl_context(&jsonl_sink, nullptr);
  const Run disabled = [&] { simulate_once(config, nullptr); };
  const Run null_traced = [&] { simulate_once(config, &null_context); };
  const Run jsonl_traced = [&] { simulate_once(config, &jsonl_context); };
  bool pass = true;

  std::optional<Pinned> pinned(std::in_place, 1);
  const auto [sim_runs, disabled_ms] = calibrate(disabled);
  // The JSONL sink is ~100x the disabled run: reported, not gated, from
  // one sample of its own length.
  const auto [jsonl_runs, jsonl_ms] = calibrate(jsonl_traced);
  const double disabled_per_run = disabled_ms / sim_runs;
  const double jsonl_per_run = jsonl_ms / jsonl_runs;
  std::printf("tracing overhead (%d x simulate per side, median of %d "
              "pairs)\n",
              sim_runs, kPairs);
  std::printf("  %-22s %8.4f ms/run\n", "disabled (nullptr)",
              disabled_per_run);
  std::printf("  %-22s %8.4f ms/run  (%+.2f%%, info)\n", "jsonl sink",
              jsonl_per_run,
              100.0 * (jsonl_per_run - disabled_per_run) / disabled_per_run);
  pass = gate("null-sink", disabled, null_traced, sim_runs) && pass;

  // --- sweep-scale telemetry ----------------------------------------
  const par::SweepGrid grid = sweep_grid();

  // Bit-identity first: telemetry must be observation-only.
  {
    par::SweepOptions plain;
    plain.jobs = kSweepJobs;
    const par::SweepResult without = par::run_sweep(config, grid, plain);
    telemetry::TelemetryConfig tconfig;
    tconfig.workers = par::WorkerPool::resolve(kSweepJobs);
    tconfig.total_points = grid.points(config).size();
    telemetry::SweepTelemetry telemetry(tconfig);
    par::SweepOptions shielded;
    shielded.jobs = kSweepJobs;
    shielded.telemetry = &telemetry;
    const par::SweepResult with = par::run_sweep(config, grid, shielded);
    if (!identical_results(without, with)) {
      std::fprintf(stderr,
                   "FAIL: sweep results changed with telemetry attached\n");
      return 1;
    }
  }

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = par::WorkerPool::resolve(kSweepJobs);
  tconfig.total_points = grid.points(config).size();
  telemetry::SweepTelemetry telemetry(tconfig);
  const Run telemetry_off = [&] {
    sweep_once(config, grid, nullptr, kSweepJobs);
  };
  const Run telemetry_on = [&] {
    sweep_once(config, grid, &telemetry, kSweepJobs);
  };
  pinned.emplace(kSweepJobs);  // both workers run side by side
  const int sweep_runs = calibrate(telemetry_off).first;
  std::printf("sweep telemetry overhead (%zu-point grid x %d per side, %zu "
              "jobs, median of %d pairs)\n",
              grid.points(config).size(), sweep_runs, kSweepJobs, kPairs);
  pass = gate("telemetry shard", telemetry_off, telemetry_on, sweep_runs) &&
         pass;
  std::printf("PASS: sweep results bit-identical with telemetry attached\n");

  // --- runtime auditing ---------------------------------------------
  sim::ExperimentConfig sampled = config;
  sampled.audit.mode = audit::Mode::Sample;
  sim::ExperimentConfig strict = config;
  strict.audit.mode = audit::Mode::Strict;

  // Bit-identity first: the auditor must be observation-only.
  {
    par::SweepOptions plain;
    plain.jobs = kSweepJobs;
    const par::SweepResult without = par::run_sweep(config, grid, plain);
    const par::SweepResult with = par::run_sweep(strict, grid, plain);
    if (!identical_results(without, with)) {
      std::fprintf(stderr,
                   "FAIL: sweep results changed with strict audit on\n");
      return 1;
    }
  }

  // Audit cost is per-point CPU work, so it is measured single-worker:
  // worker-pool scheduling noise would otherwise dominate the budget on
  // a loaded host (cross-job bit-identity is asserted by the tests).
  const Run audit_off = [&] { sweep_once(config, grid, nullptr, 1); };
  const Run audit_sample = [&] { sweep_once(sampled, grid, nullptr, 1); };
  const Run audit_strict = [&] { sweep_once(strict, grid, nullptr, 1); };
  pinned.emplace(1);
  const int audit_runs = calibrate(audit_off).first;
  std::printf("audit overhead (%zu-point grid x %d per side, 1 job, "
              "median of %d pairs)\n",
              grid.points(config).size(), audit_runs, kPairs);
  std::printf("  %-22s %+8.2f%%  (info)\n", "audit strict",
              overhead_pct(audit_off, audit_strict, audit_runs));
  pass = gate("sample-audit", audit_off, audit_sample, audit_runs) && pass;
  std::printf("PASS: sweep results bit-identical with strict audit on\n");
  return pass ? 0 : 1;
}
