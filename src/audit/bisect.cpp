#include "audit/bisect.hpp"

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "batch/engine.hpp"
#include "common/atomic_file.hpp"
#include "common/contracts.hpp"
#include "common/text.hpp"
#include "workload/trace_io.hpp"

namespace fcdpm::audit {

namespace {

[[nodiscard]] std::uint64_t bits(double value) noexcept {
  return std::bit_cast<std::uint64_t>(value);
}

/// First `prefix` slots of `trace`; the perturbed slot (if inside the
/// prefix) gets its active duration scaled by (1 + 2^-30).
[[nodiscard]] wl::Trace prefix_trace(const wl::Trace& trace,
                                     std::size_t prefix,
                                     std::size_t perturb_slot) {
  std::vector<wl::TaskSlot> slots(trace.slots().begin(),
                                  trace.slots().begin() +
                                      static_cast<std::ptrdiff_t>(prefix));
  if (perturb_slot < prefix) {
    slots[perturb_slot].active =
        slots[perturb_slot].active * (1.0 + 0x1p-30);
  }
  return wl::Trace(trace.name() + "[:" + std::to_string(prefix) + "]",
                   std::move(slots));
}

/// One fresh engine run over a trace prefix: fresh policies and
/// hybrid, no faults, no observers, no governor.
[[nodiscard]] sim::SimulationResult run_prefix(
    const sim::ExperimentConfig& config, sim::PolicyKind policy,
    std::size_t prefix, sim::Engine engine, std::size_t perturb_slot) {
  sim::ExperimentConfig local = config;
  local.trace = prefix_trace(config.trace, prefix, perturb_slot);
  local.simulation.observer = nullptr;
  local.simulation.faults = nullptr;
  local.simulation.governor = nullptr;
  local.simulation.auditor = nullptr;
  local.simulation.engine = engine;

  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(local);
  const std::unique_ptr<core::FcOutputPolicy> fc_policy =
      sim::make_fc_policy(policy, local);
  power::HybridPowerSource hybrid = sim::make_hybrid(local);

  sim::SimulationOptions options = local.simulation;
  options.initial_storage = local.initial_storage;
  if (engine == sim::Engine::Batched) {
    const sim::CompiledTrace compiled(local.trace, local.device);
    return batch::simulate(compiled, dpm_policy, *fc_policy, hybrid,
                           options);
  }
  return sim::simulate(local.trace, dpm_policy, *fc_policy, hybrid, options);
}

[[nodiscard]] std::string hex64(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, bits(value));
  return buffer;
}

void emit_engine_block(std::string& out, const char* label,
                       const sim::SimulationResult& r) {
  out += "  \"";
  out += label;
  out += "\": {\n";
  out += "    \"fuel_as\": " + format_general(r.totals.fuel.value(), 17) +
         ",\n";
  out += "    \"fuel_bits\": \"" + hex64(r.totals.fuel.value()) + "\",\n";
  out += "    \"delivered_j\": " +
         format_general(r.totals.delivered_energy.value(), 17) + ",\n";
  out += "    \"delivered_bits\": \"" +
         hex64(r.totals.delivered_energy.value()) + "\",\n";
  out += "    \"storage_end_as\": " +
         format_general(r.storage_end.value(), 17) + ",\n";
  out += "    \"storage_end_bits\": \"" + hex64(r.storage_end.value()) +
         "\",\n";
  out += "    \"unserved_as\": " +
         format_general(r.totals.unserved.value(), 17) + ",\n";
  out += "    \"sleeps\": " + std::to_string(r.sleeps) + "\n";
  out += "  }";
}

}  // namespace

bool same_run_bits(const sim::SimulationResult& a,
                   const sim::SimulationResult& b) noexcept {
  return bits(a.totals.fuel.value()) == bits(b.totals.fuel.value()) &&
         bits(a.totals.delivered_energy.value()) ==
             bits(b.totals.delivered_energy.value()) &&
         bits(a.totals.load_energy.value()) ==
             bits(b.totals.load_energy.value()) &&
         bits(a.totals.bled.value()) == bits(b.totals.bled.value()) &&
         bits(a.totals.unserved.value()) == bits(b.totals.unserved.value()) &&
         bits(a.totals.duration.value()) == bits(b.totals.duration.value()) &&
         bits(a.storage_end.value()) == bits(b.storage_end.value()) &&
         bits(a.storage_min.value()) == bits(b.storage_min.value()) &&
         bits(a.storage_max.value()) == bits(b.storage_max.value()) &&
         bits(a.latency_added.value()) == bits(b.latency_added.value()) &&
         a.sleeps == b.sleeps;
}

BisectReport bisect_point(const sim::ExperimentConfig& config,
                          sim::PolicyKind policy,
                          const BisectOptions& options) {
  FCDPM_EXPECTS(!config.trace.empty(), "bisect needs a non-empty trace");
  // A governed run never reaches the batch loop, so both sides would be
  // the reference loop and the search could not find anything.
  FCDPM_EXPECTS(!config.cap.enabled,
                "bisect compares the batch loop, which runs no governor");
  const std::size_t n = config.trace.size();

  BisectReport report;
  const auto diverges = [&](std::size_t prefix) {
    report.reference = run_prefix(config, policy, prefix,
                                  sim::Engine::Reference, npos);
    report.batched = run_prefix(config, policy, prefix,
                                sim::Engine::Batched, options.perturb_slot);
    ++report.runs;
    return !same_run_bits(report.reference, report.batched);
  };

  if (!diverges(n)) {
    return report;  // full runs agree; nothing to bisect
  }
  report.diverged = true;

  // Invariant: prefixes < lo agree, prefix hi diverges.
  std::size_t lo = 1;
  std::size_t hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (diverges(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // Re-run the minimal divergent prefix so the report carries its
  // results (the loop may have ended on an agreeing mid).
  (void)diverges(lo);
  report.first_divergent_slot = lo - 1;

  // Entry state: the reference engine at the end of the last agreeing
  // prefix (empty prefix = the configured initial state).
  if (lo > 1) {
    const sim::SimulationResult entry =
        run_prefix(config, policy, lo - 1, sim::Engine::Reference, npos);
    ++report.runs;
    report.entry_fuel_as = entry.totals.fuel.value();
    report.entry_storage_as = entry.storage_end.value();
  } else {
    report.entry_fuel_as = 0.0;
    report.entry_storage_as = min(config.initial_storage,
                                  config.storage_capacity)
                                  .value();
  }
  return report;
}

void write_repro(const std::string& path_prefix,
                 const sim::ExperimentConfig& config, sim::PolicyKind policy,
                 const BisectReport& report) {
  std::string out = "{\n";
  out += "  \"trace\": \"" + config.trace.name() + "\",\n";
  out += "  \"policy\": \"" + std::string(sim::to_string(policy)) + "\",\n";
  out += "  \"slots\": " + std::to_string(config.trace.size()) + ",\n";
  out += "  \"diverged\": ";
  out += report.diverged ? "true" : "false";
  out += ",\n";
  if (report.diverged) {
    out += "  \"first_divergent_slot\": " +
           std::to_string(report.first_divergent_slot) + ",\n";
  }
  out += "  \"runs\": " + std::to_string(report.runs) + ",\n";
  out += "  \"entry\": {\n";
  out += "    \"fuel_as\": " + format_general(report.entry_fuel_as, 17) + ",\n";
  out += "    \"storage_as\": " +
         format_general(report.entry_storage_as, 17) + "\n";
  out += "  },\n";
  emit_engine_block(out, "reference", report.reference);
  out += ",\n";
  emit_engine_block(out, "batched", report.batched);
  out += "\n}\n";
  write_file_atomic(path_prefix + ".json", out);

  // A runnable trace window around the divergence (whole trace when it
  // never diverged, so the artifact is still useful).
  const std::size_t n = config.trace.size();
  std::size_t begin = 0;
  std::size_t end = n;
  if (report.diverged) {
    const std::size_t k = report.first_divergent_slot;
    begin = k >= 4 ? k - 4 : 0;
    end = k + 4 < n ? k + 4 : n;
  }
  std::vector<wl::TaskSlot> window(
      config.trace.slots().begin() + static_cast<std::ptrdiff_t>(begin),
      config.trace.slots().begin() + static_cast<std::ptrdiff_t>(end));
  const wl::Trace window_trace(
      config.trace.name() + "[" + std::to_string(begin) + ":" +
          std::to_string(end) + "]",
      std::move(window));
  wl::save_trace_file(path_prefix + "_window.csv", window_trace);
}

}  // namespace fcdpm::audit
