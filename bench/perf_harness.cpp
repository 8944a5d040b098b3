// Regression-gated perf bench for the batched engine at B = 1:
// BENCH_core.json.
//
// Measures the headline single-thread runs (camcorder trace, FC-DPM
// policy) on the reference loop and on batch::simulate (a one-lane
// batch) — min-of-N wall clock with warmup — plus a capture of the
// build environment, and writes the lot atomically as JSON.
//
// Two gates, both exit 1:
//   * bit-identity: the batched engine must reproduce the reference run
//     and the reference lifetime measurement to the last bit;
//   * --min-speedup X (default 0 = report only): the measured batched
//     lifetime speedup must reach X. CI runs with --min-speedup 1.2.
//
//   perf_harness [--out BENCH_core.json] [--repeats N] [--min-speedup X]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "batch/engine.hpp"
#include "batch/lifetime.hpp"
#include "common/atomic_file.hpp"
#include "sim/compiled_trace.hpp"
#include "sim/experiments.hpp"
#include "sim/lifetime.hpp"
#include "sim/slot_simulator.hpp"

namespace {

using namespace fcdpm;
using Clock = std::chrono::steady_clock;

constexpr double kTankAs = 36000.0;

struct Policies {
  dpm::PredictiveDpmPolicy dpm;
  std::unique_ptr<core::FcOutputPolicy> fc;
  power::HybridPowerSource hybrid;

  explicit Policies(const sim::ExperimentConfig& config)
      : dpm(sim::make_dpm_policy(config)),
        fc(sim::make_fc_policy(sim::PolicyKind::FcDpm, config)),
        hybrid(sim::make_hybrid(config)) {}
};

sim::LifetimeOptions lifetime_options(const sim::ExperimentConfig& config) {
  sim::LifetimeOptions options;
  options.tank = Coulomb(kTankAs);
  options.simulation = config.simulation;
  return options;
}

/// Best-of-`repeats` wall-clock seconds for one call of `body`, after
/// `warmup` unmeasured calls.
template <typename Body>
double best_of(int repeats, int warmup, Body&& body) {
  for (int k = 0; k < warmup; ++k) {
    body();
  }
  double best = 1e300;
  for (int k = 0; k < repeats; ++k) {
    const auto start = Clock::now();
    body();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed < best) {
      best = elapsed;
    }
  }
  return best;
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  int repeats = 9;
  double min_speedup = 0.0;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    const auto value = [&]() -> std::string {
      if (k + 1 >= argc) {
        std::fprintf(stderr, "dangling option: %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++k];
    };
    if (arg == "--out") {
      out_path = value();
    } else if (arg == "--repeats") {
      repeats = std::atoi(value().c_str());
    } else if (arg == "--min-speedup") {
      min_speedup = std::atof(value().c_str());
    } else {
      std::fprintf(stderr,
                   "usage: perf_harness [--out FILE] [--repeats N] "
                   "[--min-speedup X]\n");
      return 1;
    }
  }
  if (repeats < 1) {
    repeats = 1;
  }

  const sim::ExperimentConfig config = sim::experiment1_config();
  const sim::CompiledTrace compiled(config.trace, config.device);

  // ---- Gate 1: bit-identity, single run and lifetime. -----------------
  Policies ref(config);
  const sim::SimulationResult ref_run = sim::simulate(
      config.trace, ref.dpm, *ref.fc, ref.hybrid, config.simulation);
  Policies fast(config);
  const sim::SimulationResult fast_run = batch::simulate(
      compiled, fast.dpm, *fast.fc, fast.hybrid, config.simulation);
  const bool run_identical =
      std::memcmp(&ref_run.totals, &fast_run.totals,
                  sizeof ref_run.totals) == 0 &&
      ref_run.storage_end == fast_run.storage_end &&
      ref_run.storage_min == fast_run.storage_min &&
      ref_run.storage_max == fast_run.storage_max &&
      ref_run.sleeps == fast_run.sleeps &&
      ref_run.latency_added == fast_run.latency_added &&
      ref_run.slots == fast_run.slots;
  if (!run_identical) {
    fail("batch::simulate diverged from sim::simulate (single run)");
  }

  Policies ref_l(config);
  const sim::LifetimeResult ref_life =
      sim::measure_lifetime(config.trace, ref_l.dpm, *ref_l.fc,
                            ref_l.hybrid, lifetime_options(config));
  Policies fast_l(config);
  const sim::LifetimeResult fast_life =
      batch::measure_lifetime(compiled, fast_l.dpm, *fast_l.fc,
                              fast_l.hybrid, lifetime_options(config));
  const bool life_identical =
      ref_life.lifetime == fast_life.lifetime &&
      ref_life.passes == fast_life.passes &&
      ref_life.slots_completed == fast_life.slots_completed &&
      ref_life.tank_emptied == fast_life.tank_emptied &&
      ref_life.average_fuel_current == fast_life.average_fuel_current;
  if (!life_identical) {
    fail("batch::measure_lifetime diverged from sim::measure_lifetime");
  }
  std::printf("bit-identity: OK (fuel %.17g A-s, lifetime %.17g s, "
              "%zu passes)\n",
              ref_run.totals.fuel.value(), ref_life.lifetime.value(),
              ref_life.passes);

  // ---- Timing: min-of-N with warmup. ----------------------------------
  // Single run is tens of microseconds, so each sample times an inner
  // batch; the lifetime run (~44 workload passes) is long enough to
  // sample directly.
  constexpr int kBatch = 200;
  volatile double sink = 0.0;
  const double ref_single =
      best_of(repeats, 2, [&] {
        for (int k = 0; k < kBatch; ++k) {
          Policies p(config);
          const sim::SimulationResult r = sim::simulate(
              config.trace, p.dpm, *p.fc, p.hybrid, config.simulation);
          sink = sink + r.totals.fuel.value();
        }
      }) /
      kBatch;
  const double batched_single =
      best_of(repeats, 2, [&] {
        for (int k = 0; k < kBatch; ++k) {
          Policies p(config);
          const sim::SimulationResult r = batch::simulate(
              compiled, p.dpm, *p.fc, p.hybrid, config.simulation);
          sink = sink + r.totals.fuel.value();
        }
      }) /
      kBatch;
  const double ref_lifetime_s = best_of(repeats, 2, [&] {
    Policies p(config);
    const sim::LifetimeResult r = sim::measure_lifetime(
        config.trace, p.dpm, *p.fc, p.hybrid, lifetime_options(config));
    sink = sink + r.lifetime.value();
  });
  const double batched_lifetime_s = best_of(repeats, 2, [&] {
    Policies p(config);
    const sim::LifetimeResult r = batch::measure_lifetime(
        compiled, p.dpm, *p.fc, p.hybrid, lifetime_options(config));
    sink = sink + r.lifetime.value();
  });
  const double single_speedup =
      batched_single > 0.0 ? ref_single / batched_single : 0.0;
  const double lifetime_speedup =
      batched_lifetime_s > 0.0 ? ref_lifetime_s / batched_lifetime_s : 0.0;
  std::printf("single run: ref %.1f us, batched %.1f us (%.2fx)\n",
              ref_single * 1e6, batched_single * 1e6, single_speedup);
  std::printf("lifetime  : ref %.2f ms, batched %.2f ms (%.2fx)\n",
              ref_lifetime_s * 1e3, batched_lifetime_s * 1e3,
              lifetime_speedup);

  // ---- BENCH_core.json. -----------------------------------------------
  const bool speedup_ok = lifetime_speedup >= min_speedup;
  std::ostringstream json;
  json << "{\n"
       << "  \"schema\": \"fcdpm.bench.core.v2\",\n"
       << "  \"generated_by\": \"bench/perf_harness\",\n"
       << "  \"env\": {\n"
       << "    \"compiler\": \"" << __VERSION__ << "\",\n"
       << "    \"cpp_standard\": " << __cplusplus << ",\n"
#ifdef NDEBUG
       << "    \"assertions\": \"off\",\n"
#else
       << "    \"assertions\": \"on\",\n"
#endif
       << "    \"pointer_bits\": " << 8 * sizeof(void*) << "\n"
       << "  },\n"
       << "  \"workload\": {\n"
       << "    \"trace\": \"" << config.trace.name() << "\",\n"
       << "    \"slots\": " << config.trace.size() << ",\n"
       << "    \"policy\": \"fcdpm\",\n"
       << "    \"tank_As\": " << json_number(kTankAs) << "\n"
       << "  },\n"
       << "  \"identity\": {\n"
       << "    \"single_run_bit_identical\": true,\n"
       << "    \"lifetime_bit_identical\": true,\n"
       << "    \"fuel_As\": " << json_number(ref_run.totals.fuel.value())
       << ",\n"
       << "    \"lifetime_s\": " << json_number(ref_life.lifetime.value())
       << ",\n"
       << "    \"passes\": " << ref_life.passes << "\n"
       << "  },\n"
       << "  \"timing\": {\n"
       << "    \"repeats\": " << repeats << ",\n"
       << "    \"batch\": " << kBatch << ",\n"
       << "    \"single_run\": {\n"
       << "      \"reference_us\": " << json_number(ref_single * 1e6)
       << ",\n"
       << "      \"batched_us\": " << json_number(batched_single * 1e6)
       << ",\n"
       << "      \"speedup\": " << json_number(single_speedup) << "\n"
       << "    },\n"
       << "    \"lifetime\": {\n"
       << "      \"reference_ms\": " << json_number(ref_lifetime_s * 1e3)
       << ",\n"
       << "      \"batched_ms\": " << json_number(batched_lifetime_s * 1e3)
       << ",\n"
       << "      \"speedup\": " << json_number(lifetime_speedup) << "\n"
       << "    }\n"
       << "  },\n"
       << "  \"gates\": {\n"
       << "    \"min_speedup\": " << json_number(min_speedup) << ",\n"
       << "    \"passed\": " << (speedup_ok ? "true" : "false") << "\n"
       << "  }\n"
       << "}\n";
  write_file_atomic(out_path, json.str());
  std::printf("wrote %s\n", out_path.c_str());

  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: lifetime speedup %.2fx below the --min-speedup "
                 "%.2fx gate\n",
                 lifetime_speedup, min_speedup);
    return 1;
  }
  return 0;
}
