// fcdpm_cli — command-line front end to the library.
//
//   fcdpm_cli gen      --kind camcorder|synthetic --out trace.csv [--seed N]
//   fcdpm_cli analyze  --trace trace.csv
//   fcdpm_cli run      --policy conv|asap|fcdpm|oracle
//                      [--trace trace.csv | --kind camcorder|synthetic]
//                      [--rho R] [--capacity A-s] [--initial A-s]
//   fcdpm_cli compare  [--trace ... | --kind ...] (all policies, one table)
//   fcdpm_cli lifetime --tank A-s [--policy ...] [--kind ...]
//   fcdpm_cli sweep    [--jobs N] [--policies ...] [--rhos ...]
//                      [--capacities ...] [--storm-seeds ...]
//                      [--out BENCH_sweep.json]
//                      [--journal J] [--resume J] [--max-retries N]
//                      [--point-deadline SLOTS] [--watchdog-stall-ms MS]
//   fcdpm_cli bisect   [--policy ...] [--trace ... | --kind ...]
//                      [--perturb-slot K] [--repro-out prefix]
//
// run/compare/lifetime accept --trace-out / --metrics-out to capture
// a Perfetto trace and a metrics dump of the run (see
// docs/ARCHITECTURE.md, "Observability"), and
// --faults <spec|file|storm:SEED[:N]> to inject a fault schedule (see
// "Fault model & graceful degradation"). Every
// sweep runs through one scheduler under a per-point execution
// contract (see "Crash-safe sweeps & failure quarantine"); sweep's
// resilience flags set the contract, the journal and the watchdog, and
// add a status column and a `resilience` report block.
//
// Every command rejects an option it does not read, naming the option
// and its argv position.
//
// Exit code 0 on success, 1 on CLI errors, 2 on runtime errors. With a
// resilience flag, a quarantined grid point is *not* a sweep failure:
// the point is reported with its typed error and the exit code stays
// 0. Without one, a quarantined point is reported the same way and the
// sweep exits 2.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "audit/bisect.hpp"
#include "cap/governor.hpp"
#include "common/atomic_file.hpp"
#include "common/text.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "batch/engine.hpp"
#include "batch/lifetime.hpp"
#include "obs/context.hpp"
#include "par/sweep.hpp"
#include "par/worker_pool.hpp"
#include "report/obs_export.hpp"
#include "resilience/journal.hpp"
#include "resilience/retry.hpp"
#include "report/sweep_export.hpp"
#include "telemetry/lanes.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/sweep_telemetry.hpp"
#include "report/table.hpp"
#include "sim/experiments.hpp"
#include "sim/lifetime.hpp"
#include "stacks/multi_stack.hpp"
#include "workload/aggregation.hpp"
#include "workload/analysis.hpp"
#include "workload/camcorder.hpp"
#include "workload/merge.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace fcdpm;

/// "--key value" / "--key=value" pairs after the subcommand.
using Options = std::map<std::string, std::string>;

/// Parse the options after the subcommand, rejecting any key not in
/// `accepted` — a command must never silently ignore a flag (a typo, or
/// one that another command reads) and run something other than asked.
Options parse_options(int argc, char** argv, int start,
                      const std::string& command,
                      const std::vector<std::string_view>& accepted) {
  Options options;
  for (int k = start; k < argc; ++k) {
    const std::string arg = argv[k];
    if (arg.rfind("--", 0) != 0) {
      throw std::runtime_error("expected --option, got: " + arg);
    }
    const std::size_t equals = arg.find('=');
    const std::string key = arg.substr(
        2, equals == std::string::npos ? std::string::npos : equals - 2);
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      throw std::runtime_error(command + ": unknown option --" + key +
                               " at argv[" + std::to_string(k) + "]");
    }
    if (equals != std::string::npos) {
      options[key] = arg.substr(equals + 1);
      continue;
    }
    if (k + 1 >= argc) {
      throw std::runtime_error("dangling option: " + arg);
    }
    options[key] = argv[++k];
  }
  return options;
}

std::string option_or(const Options& options, const std::string& key,
                      const std::string& fallback) {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

/// Strict number option: a value that does not parse as a number is a
/// CLI error, not silently 0.
double checked_number_or(const Options& options, const std::string& key,
                         double fallback) {
  const auto it = options.find(key);
  if (it == options.end()) {
    return fallback;
  }
  double value = 0.0;
  if (!parse_double(it->second, value)) {
    throw std::runtime_error("--" + key + ": invalid number '" +
                             it->second + "'");
  }
  return value;
}

/// checked_number_or plus a range: `in_range` must accept the value
/// (NaN fails every range here), else an error naming the flag, its
/// text and `range`. A library precondition would otherwise reject it
/// later without naming the flag, or not at all.
double ranged_number_or(const Options& options, const std::string& key,
                        double fallback, bool (*in_range)(double),
                        const char* range) {
  const double value = checked_number_or(options, key, fallback);
  if (!in_range(value)) {
    throw std::runtime_error("--" + key + ": '" +
                             option_or(options, key, "") +
                             "' out of range (need " + range + ")");
  }
  return value;
}

bool is_fraction(double v) { return v >= 0.0 && v <= 1.0; }
bool is_positive(double v) { return v > 0.0 && std::isfinite(v); }
bool is_non_negative(double v) { return v >= 0.0 && std::isfinite(v); }

/// Strict non-negative integer: decimal digits only (no sign, no
/// blanks) and in range, else an error naming `flag` and `what`.
std::uint64_t parse_unsigned(const std::string& flag, const std::string& what,
                             const std::string& text) {
  const bool digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  errno = 0;
  const unsigned long long value =
      digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE) {
    throw std::runtime_error(flag + ": invalid " + what + " '" + text + "'");
  }
  return static_cast<std::uint64_t>(value);
}

/// Strict non-negative integer option (counts, slot indices, seeds).
std::size_t checked_index_or(const Options& options, const std::string& key,
                             std::size_t fallback,
                             const std::string& what = "count") {
  const auto it = options.find(key);
  if (it == options.end()) {
    return fallback;
  }
  return static_cast<std::size_t>(
      parse_unsigned("--" + key, what, it->second));
}

/// Strict comma-separated list option. Items are trimmed; an empty
/// item ("0.5,,0.7", a trailing comma, or an empty value) and a
/// duplicate item are rejected with the 1-based position — a sweep grid
/// with silently dropped or doubled points reports misleading results.
/// Absent option (or absent with empty fallback semantics) returns {}.
std::vector<std::string> parse_list(const Options& options,
                                    const std::string& key) {
  const auto it = options.find(key);
  if (it == options.end()) {
    return {};
  }
  const std::vector<std::string> raw = split(it->second, ',');
  std::vector<std::string> items;
  items.reserve(raw.size());
  for (std::size_t k = 0; k < raw.size(); ++k) {
    const std::string item{trim(raw[k])};
    if (item.empty()) {
      throw std::runtime_error("--" + key + ": empty value at position " +
                               std::to_string(k + 1));
    }
    items.push_back(item);
  }
  return items;
}

/// Report a duplicate grid value: "--rhos: duplicate value '0.5' at
/// position 2 (first at position 1)".
[[noreturn]] void duplicate_error(const std::string& key,
                                  const std::string& item, std::size_t at,
                                  std::size_t first) {
  throw std::runtime_error("--" + key + ": duplicate value '" + item +
                           "' at position " + std::to_string(at + 1) +
                           " (first at position " +
                           std::to_string(first + 1) + ")");
}

/// Reject duplicates by *parsed* value, so "0.5,0.50" is caught too.
template <typename T>
void check_unique(const std::string& key,
                  const std::vector<std::string>& items,
                  const std::vector<T>& values) {
  for (std::size_t k = 0; k < values.size(); ++k) {
    for (std::size_t j = 0; j < k; ++j) {
      if (values[j] == values[k]) {
        duplicate_error(key, items[k], k, j);
      }
    }
  }
}

std::vector<double> parse_number_list(const Options& options,
                                      const std::string& key) {
  const std::vector<std::string> items = parse_list(options, key);
  std::vector<double> values;
  values.reserve(items.size());
  for (std::size_t k = 0; k < items.size(); ++k) {
    double value = 0.0;
    if (!parse_double(items[k], value)) {
      throw std::runtime_error("--" + key + ": invalid number '" +
                               items[k] + "' at position " +
                               std::to_string(k + 1));
    }
    values.push_back(value);
  }
  check_unique(key, items, values);
  return values;
}

/// Strict list of non-negative integers (seeds, stack counts): every
/// item goes through parse_unsigned, so a sign, a fraction, an exponent
/// or an out-of-range value is an error rather than a wrapped or
/// truncated count.
std::vector<std::uint64_t> parse_count_list(const Options& options,
                                            const std::string& key,
                                            const std::string& what) {
  const std::vector<std::string> items = parse_list(options, key);
  std::vector<std::uint64_t> values;
  values.reserve(items.size());
  for (const std::string& item : items) {
    values.push_back(parse_unsigned("--" + key, what, item));
  }
  check_unique(key, items, values);
  return values;
}

wl::Trace load_workload(const Options& options) {
  const auto trace_it = options.find("trace");
  if (trace_it != options.end()) {
    return wl::load_trace_file(trace_it->second);
  }
  const std::string kind = option_or(options, "kind", "camcorder");
  const std::uint64_t seed = checked_index_or(options, "seed", 0, "seed");
  if (kind == "camcorder") {
    wl::CamcorderConfig config;
    if (seed != 0) {
      config.seed = seed;
    }
    return wl::generate_camcorder_trace(config);
  }
  if (kind == "synthetic") {
    wl::SyntheticConfig config;
    if (seed != 0) {
      config.seed = seed;
    }
    return wl::generate_synthetic_trace(config);
  }
  throw std::runtime_error("unknown workload kind: " + kind);
}

/// `stack_axis` is set by sweep, whose --stacks may list several counts
/// (its grid axis); every other command runs one configuration and
/// takes a single count.
sim::ExperimentConfig build_config(const Options& options,
                                   bool stack_axis = false) {
  const std::string kind = option_or(options, "kind", "camcorder");
  sim::ExperimentConfig config = (kind == "synthetic")
                                     ? sim::experiment2_config()
                                     : sim::experiment1_config();
  config.trace = load_workload(options);
  config.rho = ranged_number_or(options, "rho", config.rho, is_fraction,
                                "a weight in [0, 1]");
  config.sigma = ranged_number_or(options, "sigma", config.sigma,
                                  is_fraction, "a weight in [0, 1]");
  config.storage_capacity = Coulomb(
      ranged_number_or(options, "capacity", config.storage_capacity.value(),
                       is_positive, "a positive finite charge in A-s"));
  config.initial_storage = Coulomb(ranged_number_or(
      options, "initial", config.initial_storage.value(), is_non_negative,
      "a non-negative finite charge in A-s"));
  config.simulation.initial_storage = config.initial_storage;
  const std::string engine = option_or(options, "engine", "reference");
  if (engine == "batched") {
    config.simulation.engine = sim::Engine::Batched;
  } else if (engine != "reference") {
    throw std::runtime_error("unknown engine: " + engine +
                             " (use reference|batched)");
  }
  const std::string cap = option_or(options, "cap", "off");
  if (cap == "on") {
    config.cap.enabled = true;
  } else if (cap != "off") {
    throw std::runtime_error("unknown --cap value: " + cap +
                             " (use on|off)");
  }
  config.cap.table_csv = option_or(options, "cap-table", "");
  config.cap.hysteresis_slots = checked_index_or(
      options, "cap-hysteresis", config.cap.hysteresis_slots, "slot count");
  if (config.cap.hysteresis_slots == 0) {
    throw std::runtime_error(
        "--cap-hysteresis: must be a positive slot count");
  }
  config.cap.storage_draw_fraction = ranged_number_or(
      options, "cap-draw-fraction", config.cap.storage_draw_fraction,
      [](double v) { return v > 0.0 && v <= 1.0; }, "a fraction in (0, 1]");
  // Runtime invariant auditing (opt-in; results stay bit-identical).
  const std::string audit_mode = option_or(options, "audit", "off");
  if (!audit::parse_mode(audit_mode, config.audit.mode)) {
    throw std::runtime_error("unknown --audit value: '" + audit_mode +
                             "' (use off|sample|strict)");
  }
  config.audit.sample_period = checked_index_or(
      options, "audit-sample-period", config.audit.sample_period);
  if (config.audit.sample_period == 0) {
    throw std::runtime_error(
        "--audit-sample-period: must be a positive slot count");
  }
  config.audit.tamper_slot = checked_index_or(
      options, "audit-tamper-slot", config.audit.tamper_slot);
  // The batched engine refuses combinations it would otherwise have to
  // silently degrade on, instead of quietly running something else.
  if (config.simulation.engine == sim::Engine::Batched) {
    if (options.find("faults") != options.end()) {
      throw std::runtime_error(
          "--engine batched: incompatible with --faults (fault injection "
          "is not modelled by the batch loop; use --engine reference)");
    }
    if (config.cap.enabled) {
      throw std::runtime_error(
          "--engine batched: incompatible with --cap on (the batch loop "
          "runs no power-cap governor; use --engine reference)");
    }
    if (config.audit.mode == audit::Mode::Strict) {
      throw std::runtime_error(
          "--engine batched: incompatible with --audit strict (strict "
          "violations must propagate, but batched lanes self-heal onto "
          "the reference engine; use --audit sample or --engine "
          "reference)");
    }
  }
  // Multi-stack source: --stacks N (>= 1) enables it; sweeps may pass a
  // comma list here, in which case its first count seeds the base
  // config and the grid axis overrides every point.
  const std::vector<std::uint64_t> stack_counts =
      parse_count_list(options, "stacks", "stack count");
  if (stack_counts.size() > 1 && !stack_axis) {
    throw std::runtime_error(
        "--stacks: a list of counts is a sweep axis; this command runs "
        "one stack count");
  }
  const auto stack_count = static_cast<std::size_t>(
      stack_counts.empty() ? 0 : stack_counts.front());
  config.stacks.config_csv = option_or(options, "stacks-config", "");
  if (stack_count > 0 || !config.stacks.config_csv.empty()) {
    config.stacks.enabled = true;
    config.stacks.count = stack_count > 0 ? stack_count : 1;
  }
  const std::string distribution = option_or(options, "distribution", "");
  if (!distribution.empty()) {
    config.stacks.distribution = stacks::parse_distribution(distribution);
  }
  config.stacks.charge_fade_per_as = ranged_number_or(
      options, "stack-charge-fade", config.stacks.charge_fade_per_as,
      is_non_negative, "a non-negative finite fade rate");
  config.stacks.cycle_fade = ranged_number_or(
      options, "stack-cycle-fade", config.stacks.cycle_fade, is_non_negative,
      "a non-negative finite fade rate");
  return config;
}

/// Observed runs execute on the reference loop (the batch loop carries
/// no observer plumbing), so the single-run commands refuse
/// `--engine batched` with an observability flag instead of silently
/// switching engines. sweep never attaches its observer to a run.
void reject_observed_batched(const Options& options,
                             const sim::ExperimentConfig& config) {
  if (config.simulation.engine != sim::Engine::Batched) {
    return;
  }
  for (const char* flag : {"trace-out", "metrics-out"}) {
    if (options.find(flag) != options.end()) {
      throw std::runtime_error(
          std::string("--engine batched: incompatible with --") + flag +
          " (observed runs execute on the reference loop; use --engine "
          "reference)");
    }
  }
}

/// sim::run_policy with the engine honoured: `--engine batched`
/// compiles the trace and runs batch::simulate (a B = 1 batch,
/// bit-identical to the reference). With `--audit` on, the batched run
/// carries a fail-fast auditor; a violation self-heals by replaying the
/// run on the reference engine (tamper hook cleared — it models a
/// batched-engine defect) and recording an engine_fallback in the
/// result's AuditStats.
sim::SimulationResult run_policy_with_engine(
    sim::PolicyKind kind, const sim::ExperimentConfig& config) {
  if (config.simulation.engine != sim::Engine::Batched) {
    return sim::run_policy(kind, config);
  }
  std::optional<audit::AuditStats> failed_stats;
  const auto run_batched = [&]() {
    dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
    const std::unique_ptr<core::FcOutputPolicy> fc_policy =
        sim::make_fc_policy(kind, config);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);
    sim::SimulationOptions sim_options = config.simulation;
    sim_options.initial_storage = config.initial_storage;
    std::optional<audit::Auditor> auditor;
    if (config.audit.enabled() && sim_options.auditor == nullptr) {
      auditor.emplace(config.audit, /*fail_fast=*/true);
      sim_options.auditor = &*auditor;
    }
    const sim::CompiledTrace compiled(config.trace, config.device);
    try {
      return batch::simulate(compiled, dpm_policy, *fc_policy, hybrid,
                             sim_options);
    } catch (const audit::AuditError&) {
      if (auditor.has_value()) {
        failed_stats = auditor->stats();
      }
      throw;
    }
  };
  try {
    return run_batched();
  } catch (const audit::AuditError&) {
    // Self-heal: replay on the reference engine. The simulators reset
    // any attached fault injector at run start, so the shared pointers
    // in config.simulation replay cleanly.
    sim::ExperimentConfig reference = config;
    reference.simulation.engine = sim::Engine::Reference;
    reference.audit.tamper_slot = audit::npos;
    sim::SimulationResult result = sim::run_policy(kind, reference);
    if (!result.audit.has_value()) {
      result.audit.emplace();
      result.audit->mode = static_cast<int>(config.audit.mode);
    }
    audit::record_engine_fallback(*result.audit,
                                  failed_stats.value_or(audit::AuditStats{}));
    return result;
  }
}

/// Observability wiring behind --trace-out / --metrics-out: owns the
/// sink and registry for one command and writes the requested files
/// when the command finishes. With neither flag given, context() is
/// nullptr and the simulation runs the untouched fast path.
class ObsSession {
 public:
  explicit ObsSession(const Options& options)
      : trace_path_(option_or(options, "trace-out", "")),
        metrics_path_(option_or(options, "metrics-out", "")) {
    if (!trace_path_.empty()) {
      // Stream into the atomic-write staging sibling; finish() renames
      // it over the destination, so a killed run never leaves a
      // truncated trace behind.
      stream_.open(atomic_temp_path(trace_path_));
      if (!stream_) {
        throw std::runtime_error("cannot create trace file: " + trace_path_);
      }
      const bool jsonl =
          trace_path_.size() >= 6 &&
          trace_path_.compare(trace_path_.size() - 6, 6, ".jsonl") == 0;
      if (jsonl) {
        sink_ = std::make_unique<obs::JsonlTraceSink>(stream_);
      } else {
        sink_ = std::make_unique<obs::ChromeTraceSink>(stream_);
      }
      context_.set_sink(sink_.get());
    }
    if (!metrics_path_.empty()) {
      context_.set_metrics(&metrics_);
    }
  }

  /// nullptr when no observability flag was given.
  [[nodiscard]] obs::Context* context() {
    return enabled() ? &context_ : nullptr;
  }

  /// The attached trace sink (nullptr without --trace-out). Valid until
  /// finish(); the sweep commands drain telemetry lanes into it first.
  [[nodiscard]] obs::TraceSink* sink() { return sink_.get(); }

  /// Rewind the simulated clock and switch tracks; one track per run
  /// keeps sequential runs side by side in the trace viewer.
  void start_run(int track) {
    context_.set_track(track);
    context_.set_now(Seconds(0.0));
  }

  /// Close the sink (Chrome traces need their closing bracket) and
  /// write the metrics file.
  void finish() {
    if (sink_ != nullptr) {
      sink_->flush();
      sink_.reset();
      stream_.close();
      commit_file(atomic_temp_path(trace_path_), trace_path_);
      std::printf("wrote trace to %s\n", trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      report::write_metrics_file(metrics_path_, metrics_);
      std::printf("wrote metrics to %s\n", metrics_path_.c_str());
    }
  }

 private:
  [[nodiscard]] bool enabled() const {
    return !trace_path_.empty() || !metrics_path_.empty();
  }

  std::string trace_path_;
  std::string metrics_path_;
  std::ofstream stream_;
  std::unique_ptr<obs::TraceSink> sink_;
  obs::MetricsRegistry metrics_;
  obs::Context context_;
};

/// Longest sampler period --progress-interval-ms accepts: one day. A
/// period beyond it is a typo, and a far larger one would overflow the
/// sampler's clock arithmetic.
constexpr std::size_t kMaxProgressIntervalMs = 86'400'000;

/// The --progress-interval-ms sampler period; 0 means the 200 ms
/// default.
std::chrono::milliseconds progress_interval(const Options& options) {
  const std::size_t ms =
      checked_index_or(options, "progress-interval-ms", 200);
  if (ms > kMaxProgressIntervalMs) {
    throw std::runtime_error("--progress-interval-ms: at most " +
                             std::to_string(kMaxProgressIntervalMs) +
                             " (one day)");
  }
  return std::chrono::milliseconds(ms == 0 ? 200 : ms);
}

/// Sweep telemetry wiring behind --progress / --progress-out /
/// --progress-interval-ms (and lane recording when --trace-out is
/// given). Owns the SweepTelemetry shards, the JSONL progress stream
/// and the background sampler for one sweep; disabled (telemetry() ==
/// nullptr) when none of the flags ask for it, which leaves the sweep
/// hot path byte-for-byte as before.
class TelemetrySession {
 public:
  TelemetrySession(const Options& options, std::chrono::milliseconds interval,
                   std::size_t jobs, std::size_t total_points,
                   bool record_lanes)
      : progress_path_(option_or(options, "progress-out", "")),
        live_(option_or(options, "progress", "off") == "on"),
        record_lanes_(record_lanes) {
    if (!live_ && progress_path_.empty() && !record_lanes_) {
      return;
    }
    telemetry::TelemetryConfig config;
    config.workers = par::WorkerPool::resolve(jobs);
    config.total_points = total_points;
    config.record_lanes = record_lanes_;
    telemetry_.emplace(config);
    if (!progress_path_.empty()) {
      progress_stream_.open(progress_path_);
      if (!progress_stream_) {
        throw std::runtime_error("cannot create progress file: " +
                                 progress_path_);
      }
    }
    if (live_ || !progress_path_.empty()) {
      sampler_.emplace(*telemetry_, interval,
                       [this](const telemetry::SweepSnapshot& snap) {
                         emit(snap);
                       });
    }
  }

  /// nullptr when no telemetry flag was given.
  [[nodiscard]] telemetry::SweepTelemetry* telemetry() {
    return telemetry_.has_value() ? &*telemetry_ : nullptr;
  }

  /// Stop the sampler, take the final authoritative snapshot (its
  /// totals equal the sweep report — the last JSONL line is the whole
  /// run), emit it, drain recorded lanes into the trace sink, and fill
  /// `bench.telemetry`.
  void finish(report::SweepBenchReport& bench, obs::TraceSink* sink) {
    if (!telemetry_.has_value()) {
      return;
    }
    std::uint64_t sampled = 0;
    if (sampler_.has_value()) {
      sampler_->stop();
      sampled = sampler_->emitted();
    }
    const telemetry::SweepSnapshot snap = telemetry_->snapshot();
    emit(snap);
    if (live_) {
      std::fprintf(stderr, "\n");
    }
    if (progress_stream_.is_open()) {
      progress_stream_.flush();
      std::printf("wrote progress stream to %s\n", progress_path_.c_str());
    }
    if (record_lanes_ && sink != nullptr &&
        telemetry_->lanes() != nullptr) {
      telemetry::emit_lanes(*telemetry_->lanes(), telemetry_->total_points(),
                            *sink);
    }

    report::TelemetryReport& t = bench.telemetry;
    t.enabled = true;
    t.snapshots = sampled + 1;
    t.done = snap.done;
    t.retried = snap.retried;
    t.quarantined = snap.quarantined;
    t.reference_dispatches = snap.reference_dispatches;
    t.batched_dispatches = snap.batched_dispatches;
    t.heartbeats = snap.heartbeats;
    t.slots = snap.slots;
    t.capped_slots = snap.capped_slots;
    t.audited_slots = snap.audited_slots;
    t.audit_violations = snap.audit_violations;
    t.engine_fallbacks = snap.engine_fallbacks;
    t.throughput_points_per_s = snap.throughput_points_per_s;
    t.wall_p50_us = snap.wall_p50_us;
    t.wall_p95_us = snap.wall_p95_us;
    t.wall_p99_us = snap.wall_p99_us;
    t.wall_max_us = snap.wall_max_us;
    t.worker_skew = snap.worker_skew;
    for (const telemetry::WorkerSnapshot& w : snap.workers) {
      report::TelemetryWorkerRow row;
      row.worker = w.worker;
      row.done = w.done;
      row.retried = w.retried;
      row.quarantined = w.quarantined;
      row.reference_dispatches = w.reference_dispatches;
      row.batched_dispatches = w.batched_dispatches;
      row.heartbeats = w.heartbeats;
      row.slots = w.slots;
      row.capped_slots = w.capped_slots;
      row.audited_slots = w.audited_slots;
      row.audit_violations = w.audit_violations;
      row.engine_fallbacks = w.engine_fallbacks;
      row.busy_seconds = w.busy_seconds;
      t.workers.push_back(row);
    }
  }

 private:
  /// Called from the sampler thread while running and once more from
  /// finish() after stop() — never concurrently.
  void emit(const telemetry::SweepSnapshot& snap) {
    if (progress_stream_.is_open()) {
      progress_stream_ << telemetry::snapshot_to_json(snap) << '\n';
      progress_stream_.flush();
    }
    if (live_) {
      std::fprintf(stderr, "\r%s", telemetry::progress_line(snap).c_str());
      std::fflush(stderr);
    }
  }

  std::string progress_path_;
  bool live_ = false;
  bool record_lanes_ = false;
  std::ofstream progress_stream_;
  std::optional<telemetry::SweepTelemetry> telemetry_;
  std::optional<telemetry::Sampler> sampler_;
};

/// --faults wiring. Three argument forms:
///   spec with '@'        inline schedule, e.g. converter_dropout@120:30
///   storm:SEED[:COUNT]   seeded random storm over the trace duration
///   anything else        CSV schedule file (kind,start_s,duration_s,...)
/// Returns nullptr when --faults was not given.
std::unique_ptr<fault::FaultInjector> make_fault_injector(
    const Options& options, const wl::Trace& trace) {
  const auto it = options.find("faults");
  if (it == options.end()) {
    return nullptr;
  }
  const std::string& value = it->second;
  fault::FaultSchedule schedule;
  if (value.rfind("storm:", 0) == 0) {
    const std::string rest = value.substr(6);
    const std::size_t colon = rest.find(':');
    const std::uint64_t seed =
        parse_unsigned("--faults", "storm seed", rest.substr(0, colon));
    const std::size_t count =
        colon == std::string::npos
            ? 12
            : static_cast<std::size_t>(parse_unsigned(
                  "--faults", "storm count", rest.substr(colon + 1)));
    schedule = fault::FaultSchedule::random_storm(
        seed, count, trace.stats().total_duration());
    std::printf("fault storm (seed %llu): %s\n",
                static_cast<unsigned long long>(seed),
                schedule.to_spec().c_str());
  } else if (value.find('@') != std::string::npos) {
    schedule = fault::FaultSchedule::parse(value);
  } else {
    schedule = fault::FaultSchedule::load_file(value);
  }
  return std::make_unique<fault::FaultInjector>(schedule);
}

void print_robustness(const fault::RobustnessStats& r) {
  std::printf("  robustness: %zu fault windows | %zu dropouts | "
              "%zu brownouts (%.2f A-s lost) | %zu clamped segments\n"
              "              %zu reprojections | %zu fallbacks | "
              "%zu solver failures | degraded %.1f s | recovery %.1f s\n",
              r.activations, r.dropouts, r.brownouts,
              r.brownout_lost.value(), r.fc_clamped_segments,
              r.reprojections, r.fallbacks, r.solver_failures,
              r.degraded_time.value(), r.recovery_time.value());
}

void print_cap(const cap::CapStats& c) {
  std::printf("  power cap : %zu/%zu slots capped | %zu reductions | "
              "%zu restorations | deferred %.1f J (%.1f s) | "
              "%zu budget violations\n",
              c.slots_capped, c.slots_seen, c.level_reductions,
              c.level_restorations, c.energy_deferred.value(),
              c.time_deferred.value(), c.budget_violations);
}

void print_stacks(const stacks::StacksStats& s) {
  std::printf("  stacks    : %zu x %s | startups %zu | max wear %.3g\n",
              s.stacks.size(), stacks::to_string(s.distribution),
              s.total_startups(), s.max_wear());
  for (std::size_t k = 0; k < s.stacks.size(); ++k) {
    const stacks::StackTotals& t = s.stacks[k];
    std::printf("    stack %zu : fuel %9.2f A-s | delivered %9.2f A-s | "
                "startups %zu | wear %.3g\n",
                k, t.fuel_as, t.delivered_as, t.startups, t.wear);
  }
}

void print_audit(const audit::AuditStats& a) {
  std::printf("  audit     : %s | %llu slots + %llu segments audited | "
              "%llu checks | %llu violations | %llu engine fallbacks\n",
              audit::to_string(static_cast<audit::Mode>(a.mode)),
              static_cast<unsigned long long>(a.slots_audited),
              static_cast<unsigned long long>(a.segments_audited),
              static_cast<unsigned long long>(a.checks_run),
              static_cast<unsigned long long>(a.violations),
              static_cast<unsigned long long>(a.engine_fallbacks));
  if (!a.first_violation.empty()) {
    std::printf("    first violation: %s at slot %zu\n",
                a.first_violation.c_str(), a.first_violation_slot);
  }
}

sim::PolicyKind parse_policy(const std::string& name) {
  if (name == "conv") {
    return sim::PolicyKind::Conv;
  }
  if (name == "asap") {
    return sim::PolicyKind::Asap;
  }
  if (name == "fcdpm") {
    return sim::PolicyKind::FcDpm;
  }
  if (name == "oracle") {
    return sim::PolicyKind::Oracle;
  }
  throw std::runtime_error("unknown policy: " + name +
                           " (use conv|asap|fcdpm|oracle)");
}

int cmd_gen(const Options& options) {
  const auto out_it = options.find("out");
  if (out_it == options.end()) {
    throw std::runtime_error("gen requires --out <file>");
  }
  const wl::Trace trace = load_workload(options);
  wl::save_trace_file(out_it->second, trace);
  std::printf("wrote %zu slots (%.1f min) to %s\n", trace.size(),
              trace.stats().total_duration().value() / 60.0,
              out_it->second.c_str());
  return 0;
}

int cmd_analyze(const Options& options) {
  const wl::Trace trace = load_workload(options);
  const wl::TraceStats stats = trace.stats();
  std::printf("trace: %s\n", trace.name().c_str());
  std::printf("  slots          : %zu\n", stats.slots);
  std::printf("  duration       : %.1f s (%.1f min)\n",
              stats.total_duration().value(),
              stats.total_duration().value() / 60.0);
  std::printf("  idle           : %.2f - %.2f s (mean %.2f)\n",
              stats.min_idle.value(), stats.max_idle.value(),
              stats.mean_idle.value());
  std::printf("  active         : %.2f - %.2f s (mean %.2f)\n",
              stats.min_active.value(), stats.max_active.value(),
              stats.mean_active.value());
  std::printf("  active power   : %.2f - %.2f W (mean %.2f)\n",
              stats.min_active_power.value(),
              stats.max_active_power.value(),
              stats.mean_active_power.value());
  std::printf("  duty cycle     : %.1f%%\n",
              100.0 * wl::duty_cycle(trace));
  if (trace.size() > 3) {
    std::printf("  idle lag-1 ac  : %.2f\n",
                wl::autocorrelation(wl::idle_durations(trace), 1));
  }
  std::printf("  avg load (slept idles) : %.3f A on 12 V\n",
              wl::average_load_current(trace, Volt(12.0), Ampere(0.2))
                  .value());
  return 0;
}

void print_result(const sim::SimulationResult& result) {
  std::printf("%-14s fuel %9.2f A-s | avg Ifc %6.3f A | sleeps %zu/%zu | "
              "bled %6.2f | unserved %6.2f\n",
              result.fc_policy.c_str(), result.fuel().value(),
              result.average_fuel_current().value(), result.sleeps,
              result.slots, result.totals.bled.value(),
              result.totals.unserved.value());
}

int cmd_run(const Options& options) {
  sim::ExperimentConfig config = build_config(options);
  reject_observed_batched(options, config);
  const sim::PolicyKind kind =
      parse_policy(option_or(options, "policy", "fcdpm"));
  ObsSession obs(options);
  config.simulation.observer = obs.context();
  const std::unique_ptr<fault::FaultInjector> faults =
      make_fault_injector(options, config.trace);
  config.simulation.faults = faults.get();
  const sim::SimulationResult result = run_policy_with_engine(kind, config);
  print_result(result);
  if (result.robustness.has_value()) {
    print_robustness(*result.robustness);
  }
  if (result.cap.has_value()) {
    print_cap(*result.cap);
  }
  if (result.stacks.has_value()) {
    print_stacks(*result.stacks);
  }
  if (result.audit.has_value()) {
    print_audit(*result.audit);
  }
  obs.finish();
  return 0;
}

int cmd_compare(const Options& options) {
  sim::ExperimentConfig config = build_config(options);
  reject_observed_batched(options, config);
  ObsSession obs(options);
  const std::unique_ptr<fault::FaultInjector> faults =
      make_fault_injector(options, config.trace);
  config.simulation.faults = faults.get();

  sim::PolicyComparison c;
  if (obs.context() != nullptr ||
      config.simulation.engine != sim::Engine::Reference) {
    // Re-run per policy so each lands on its own trace track (and so
    // the batched engine is honoured per run).
    config.simulation.observer = obs.context();
    sim::SimulationResult* const results[] = {&c.conv, &c.asap, &c.fcdpm};
    const sim::PolicyKind kinds[] = {sim::PolicyKind::Conv,
                                     sim::PolicyKind::Asap,
                                     sim::PolicyKind::FcDpm};
    for (int k = 0; k < 3; ++k) {
      obs.start_run(k);
      *results[k] = run_policy_with_engine(kinds[k], config);
    }
  } else {
    c = sim::compare_policies(config);
  }

  report::Table table("normalized fuel consumption",
                      {"DPM policy", "Conv-DPM", "ASAP-DPM", "FC-DPM"});
  table.add_row(
      {"compared to Conv-DPM", "100%",
       report::percent_cell(sim::normalized_fuel(c.asap, c.conv)),
       report::percent_cell(sim::normalized_fuel(c.fcdpm, c.conv))});
  std::printf("%s\n", table.to_ascii().c_str());
  print_result(c.conv);
  print_result(c.asap);
  print_result(c.fcdpm);
  if (c.fcdpm.robustness.has_value()) {
    std::printf("FC-DPM under faults:\n");
    print_robustness(*c.fcdpm.robustness);
  }
  if (c.fcdpm.cap.has_value()) {
    std::printf("FC-DPM under power cap:\n");
    print_cap(*c.fcdpm.cap);
  }
  if (c.fcdpm.stacks.has_value()) {
    std::printf("FC-DPM multi-stack split:\n");
    print_stacks(*c.fcdpm.stacks);
  }
  if (c.fcdpm.audit.has_value()) {
    std::printf("FC-DPM audit:\n");
    print_audit(*c.fcdpm.audit);
  }
  std::printf("\nFC-DPM vs ASAP-DPM: %.1f%% fuel saving, %.2fx lifetime\n",
              100.0 * sim::fuel_saving(c.fcdpm, c.asap),
              sim::lifetime_extension(c.fcdpm, c.asap));
  obs.finish();
  return 0;
}

int cmd_lifetime(const Options& options) {
  sim::ExperimentConfig config = build_config(options);
  reject_observed_batched(options, config);
  const sim::PolicyKind kind =
      parse_policy(option_or(options, "policy", "fcdpm"));
  const Coulomb tank(ranged_number_or(options, "tank", 10000.0, is_positive,
                                      "a positive finite charge in A-s"));

  ObsSession obs(options);
  config.simulation.observer = obs.context();
  const std::unique_ptr<fault::FaultInjector> faults =
      make_fault_injector(options, config.trace);
  config.simulation.faults = faults.get();

  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc_policy =
      sim::make_fc_policy(kind, config);
  power::HybridPowerSource hybrid = sim::make_hybrid(config);

  sim::LifetimeOptions lifetime_options;
  lifetime_options.tank = tank;
  lifetime_options.simulation = config.simulation;
  sim::LifetimeResult r;
  if (config.simulation.engine == sim::Engine::Batched) {
    const sim::CompiledTrace compiled(config.trace, config.device);
    r = batch::measure_lifetime(compiled, dpm_policy, *fc_policy, hybrid,
                                lifetime_options);
  } else {
    r = sim::measure_lifetime(config.trace, dpm_policy, *fc_policy, hybrid,
                              lifetime_options);
  }

  std::printf("%s on a %.0f A-s tank: ", sim::to_string(kind),
              tank.value());
  if (r.tank_emptied) {
    std::printf("%.1f min (%zu workload passes, avg Ifc %.3f A)\n",
                r.lifetime.value() / 60.0, r.passes,
                r.average_fuel_current.value());
  } else {
    std::printf("did not empty within %zu passes (%.1f min simulated)\n",
                r.passes, r.lifetime.value() / 60.0);
  }
  if (faults != nullptr) {
    // The injector accumulates across workload passes (the lifetime
    // loop preserves source state), so this is whole-life accounting.
    print_robustness(faults->stats());
  }
  obs.finish();
  return 0;
}

/// Bitwise comparison of two sweeps over every journaled result field.
bool identical_sweeps(const par::SweepResult& a, const par::SweepResult& b) {
  return std::ranges::equal(
      a.points, b.points,
      [](const par::SweepPointResult& x, const par::SweepPointResult& y) {
        return x.ok == y.ok &&
               resilience::same_observable(x.result, y.result);
      });
}

/// BENCH_sweep.json per-point row from a grid point and (when ok) its
/// observable result.
report::SweepPointRow make_point_row(const par::SweepPoint& point,
                                     const sim::SimulationResult& result) {
  report::SweepPointRow row;
  row.policy = sim::to_string(point.policy);
  row.rho = point.rho;
  row.capacity = point.capacity.value();
  row.storm_seed = point.storm_seed;
  row.fuel = result.totals.fuel.value();
  row.bled = result.totals.bled.value();
  row.unserved = result.totals.unserved.value();
  row.duration = result.totals.duration.value();
  row.storage_end = result.storage_end.value();
  row.latency = result.latency_added.value();
  row.slots = result.slots;
  row.sleeps = result.sleeps;
  if (result.cap.has_value()) {
    row.cap_enabled = true;
    row.capped_slots = result.cap->slots_capped;
    row.cap_violations = result.cap->budget_violations;
    row.cap_deferred_j = result.cap->energy_deferred.value();
    row.cap_deferred_s = result.cap->time_deferred.value();
  }
  if (result.stacks.has_value()) {
    row.stacks_enabled = true;
    row.stacks = result.stacks->stacks.size();
    row.distribution = stacks::to_string(result.stacks->distribution);
    row.stack_startups = result.stacks->total_startups();
    row.stack_max_wear = result.stacks->max_wear();
    row.stack_fuel.reserve(result.stacks->stacks.size());
    for (const stacks::StackTotals& t : result.stacks->stacks) {
      row.stack_fuel.push_back(t.fuel_as);
    }
  }
  if (result.audit.has_value()) {
    row.audit_enabled = true;
    row.audit_slots = result.audit->slots_audited;
    row.audit_checks = result.audit->checks_run;
    row.audit_violations = result.audit->violations;
    row.engine_fallbacks = result.audit->engine_fallbacks;
    row.audit_first = result.audit->first_violation;
  }
  return row;
}

/// Sweep-level cap rollup for BENCH_sweep.json; no-op when the point
/// carried no cap stats (cap off).
void accumulate_cap(report::SweepBenchReport& bench,
                    const sim::SimulationResult& result) {
  if (!result.cap.has_value()) {
    return;
  }
  bench.cap_enabled = true;
  bench.capped_slots += result.cap->slots_capped;
  if (result.cap->slots_capped > 0) {
    ++bench.capped_points;
  }
  bench.cap_violations += result.cap->budget_violations;
  bench.cap_deferred_j += result.cap->energy_deferred.value();
}

/// Sweep-level multi-stack rollup; no-op on single-stack points.
void accumulate_stacks(report::SweepBenchReport& bench,
                       const sim::SimulationResult& result) {
  if (!result.stacks.has_value()) {
    return;
  }
  bench.stacks_enabled = true;
  ++bench.stack_points;
  bench.stack_startups += result.stacks->total_startups();
  const double worst = result.stacks->max_wear();
  if (worst > bench.stack_max_wear) {
    bench.stack_max_wear = worst;
  }
}

/// Sweep-level runtime-audit rollup; no-op on unaudited points.
void accumulate_audit(report::SweepBenchReport& bench,
                      const sim::SimulationResult& result) {
  if (!result.audit.has_value()) {
    return;
  }
  bench.audit_enabled = true;
  bench.audit_mode =
      audit::to_string(static_cast<audit::Mode>(result.audit->mode));
  bench.audited_slots += result.audit->slots_audited;
  bench.audit_checks += result.audit->checks_run;
  bench.audit_violations += result.audit->violations;
  bench.engine_fallbacks += result.audit->engine_fallbacks;
  if (result.audit->engine_fallbacks > 0) {
    ++bench.fallback_points;
  }
}

void print_audit_rollup(const report::SweepBenchReport& bench) {
  if (!bench.audit_enabled) {
    return;
  }
  std::printf("audit (%s): %llu slots audited | %llu checks | "
              "%llu violations | %llu engine fallbacks (%zu points)\n",
              bench.audit_mode.c_str(),
              static_cast<unsigned long long>(bench.audited_slots),
              static_cast<unsigned long long>(bench.audit_checks),
              static_cast<unsigned long long>(bench.audit_violations),
              static_cast<unsigned long long>(bench.engine_fallbacks),
              bench.fallback_points);
}

par::SweepGrid parse_sweep_grid(const Options& options) {
  par::SweepGrid grid;
  const std::vector<std::string> policy_names =
      parse_list(options, "policies");
  for (const std::string& name : policy_names) {
    grid.policies.push_back(parse_policy(name));
  }
  check_unique("policies", policy_names, grid.policies);
  grid.rhos = parse_number_list(options, "rhos");
  for (const double value : parse_number_list(options, "capacities")) {
    grid.capacities.push_back(Coulomb(value));
  }
  grid.storm_seeds = parse_count_list(options, "storm-seeds", "seed");
  grid.storm_faults =
      checked_index_or(options, "storm-faults", grid.storm_faults);
  for (const std::uint64_t count :
       parse_count_list(options, "stacks", "stack count")) {
    grid.stack_counts.push_back(static_cast<std::size_t>(count));
  }
  const std::vector<std::string> dist_names =
      parse_list(options, "distributions");
  for (const std::string& name : dist_names) {
    grid.distributions.push_back(stacks::parse_distribution(name));
  }
  check_unique("distributions", dist_names, grid.distributions);
  if (!grid.distributions.empty() && grid.stack_counts.empty() &&
      option_or(options, "stacks-config", "").empty()) {
    throw std::runtime_error(
        "--distributions needs a multi-stack source (--stacks N or "
        "--stacks-config FILE)");
  }
  return grid;
}

/// The sweep's options from its flags. The resilience flags only fill
/// contract, journal and watchdog fields: every sweep runs under the
/// (default) contract through the one scheduler.
par::SweepOptions parse_sweep_options(const Options& options) {
  par::SweepOptions sweep;
  sweep.jobs = checked_index_or(options, "jobs", 1);
  resilience::ExecutionContract& contract = sweep.contract;
  contract.max_retries =
      checked_index_or(options, "max-retries", contract.max_retries);
  contract.point_deadline_slots = checked_index_or(
      options, "point-deadline", contract.point_deadline_slots);
  if (options.find("unserved-budget") != options.end()) {
    contract.unserved_budget_as =
        checked_number_or(options, "unserved-budget", 0.0);
    if (contract.unserved_budget_as < 0.0) {
      throw std::runtime_error(
          "--unserved-budget: '" +
          option_or(options, "unserved-budget", "") +
          "' out of range (need a non-negative charge in A-s)");
    }
  }
  contract.inject_fail_index =
      checked_index_or(options, "inject-fail", contract.inject_fail_index);
  sweep.journal_path = option_or(options, "journal", "");
  const std::string resume = option_or(options, "resume", "");
  if (!resume.empty()) {
    if (!sweep.journal_path.empty() && sweep.journal_path != resume) {
      throw std::runtime_error(
          "--journal and --resume name different files");
    }
    sweep.journal_path = resume;
    sweep.resume = true;
  }
  sweep.spot_checks =
      checked_index_or(options, "spot-checks", sweep.spot_checks);
  sweep.watchdog_stall = std::chrono::milliseconds(
      checked_index_or(options, "watchdog-stall-ms", 0));
  return sweep;
}

int cmd_sweep(const Options& options) {
  const sim::ExperimentConfig config = build_config(options, true);
  const par::SweepGrid grid = parse_sweep_grid(options);
  par::SweepOptions sweep_options = parse_sweep_options(options);
  const std::size_t jobs = sweep_options.jobs;
  const std::chrono::milliseconds progress_period = progress_interval(options);

  // A resilience flag adds the status column and the `resilience`
  // report block; the scheduler is the same either way.
  bool resilient = false;
  for (const char* flag :
       {"journal", "resume", "max-retries", "point-deadline",
        "watchdog-stall-ms", "spot-checks", "inject-fail",
        "unserved-budget"}) {
    resilient = resilient || options.find(flag) != options.end();
  }

  ObsSession obs(options);

  // Single-job reference first (same config): it provides the speedup
  // baseline and the bit-identity check. It runs under the default
  // contract, so sweeps with resilience flags (budgets, injected
  // failures, replayed points) skip it.
  par::SweepResult serial;
  bool have_serial = false;
  if (!resilient && jobs != 1 &&
      option_or(options, "serial-check", "on") != "off") {
    serial = par::run_sweep(config, grid);
    have_serial = true;
  }

  // The serial reference above runs without telemetry: shards observe
  // only the measured run, so snapshot totals equal its report.
  TelemetrySession tel(options, progress_period, jobs,
                       grid.points(config).size(),
                       !option_or(options, "trace-out", "").empty());

  sweep_options.observer = obs.context();
  sweep_options.telemetry = tel.telemetry();
  const par::SweepResult sweep = par::run_sweep(config, grid, sweep_options);
  const resilience::ResilienceStats& rs = sweep.resilience;

  std::vector<std::string> columns = {
      "policy", "rho", "capacity", "storm seed", "fuel (A-s)",
      "bled (A-s)", "unserved (A-s)", "sleeps"};
  if (config.cap.enabled) {
    columns.push_back("capped");
  }
  if (config.stacks.enabled) {
    columns.push_back("stacks");
    columns.push_back("dist");
  }
  if (resilient) {
    columns.push_back("status");
  }
  report::Table table("sweep: " + config.trace.name(), std::move(columns));
  for (const par::SweepPointResult& p : sweep.points) {
    const sim::SimulationResult& r = p.result;
    std::vector<std::string> cells = {
        sim::to_string(p.point.policy), report::cell(p.point.rho, 2),
        report::cell(p.point.capacity.value(), 1),
        std::to_string(p.point.storm_seed)};
    if (p.ok) {
      cells.push_back(report::cell(r.totals.fuel.value(), 2));
      cells.push_back(report::cell(r.totals.bled.value(), 2));
      cells.push_back(report::cell(r.totals.unserved.value(), 2));
      cells.push_back(std::to_string(r.sleeps));
    } else {
      cells.insert(cells.end(), 4, "-");
    }
    if (config.cap.enabled) {
      cells.push_back(p.ok && r.cap.has_value()
                          ? std::to_string(r.cap->slots_capped)
                          : "-");
    }
    if (config.stacks.enabled) {
      if (p.ok && r.stacks.has_value()) {
        cells.push_back(std::to_string(r.stacks->stacks.size()));
        cells.push_back(stacks::to_string(r.stacks->distribution));
      } else {
        cells.push_back("-");
        cells.push_back("-");
      }
    }
    if (resilient) {
      cells.push_back(p.ok ? (p.replayed ? "replayed" : "ok")
                           : std::string("quarantined: ") +
                                 resilience::to_string(p.error.kind));
    }
    table.add_row(std::move(cells));
  }
  std::printf("%s\n", table.to_ascii().c_str());

  report::SweepBenchReport bench;
  bench.trace_name = config.trace.name();
  bench.points = sweep.stats.points;
  bench.jobs = sweep.stats.jobs;
  bench.wall_seconds = sweep.stats.wall_seconds;
  bench.points_per_second = sweep.stats.points_per_second();
  bench.batched_points = sweep.stats.points_batched;
  bench.batch_merge_sets = sweep.stats.batch_merge_sets;
  bench.batch_merged_lane_slots = sweep.stats.batch_merged_lane_slots;
  bench.batch_splits = sweep.stats.batch_splits;
  for (const par::SweepPointResult& p : sweep.points) {
    report::SweepPointRow row = make_point_row(p.point, p.result);
    row.ok = p.ok;
    row.attempts = p.attempts;
    row.replayed = p.replayed;
    if (p.ok) {
      accumulate_cap(bench, p.result);
      accumulate_stacks(bench, p.result);
      accumulate_audit(bench, p.result);
    } else {
      row.error = resilience::to_string(p.error.kind);
    }
    bench.results.push_back(std::move(row));
  }
  if (resilient) {
    bench.resilience.enabled = true;
    bench.resilience.scheduled = rs.scheduled;
    bench.resilience.replayed = rs.replayed;
    bench.resilience.retries = rs.retries;
    bench.resilience.quarantined = rs.quarantined;
    bench.resilience.rounds = rs.rounds;
    bench.resilience.spot_checks = rs.spot_checks;
    bench.resilience.torn_tail_recovered = rs.torn_tail_recovered;
    bench.resilience.torn_bytes_dropped = rs.torn_bytes_dropped;
    bench.resilience.watchdog_stalls = rs.watchdog_stalls;
    bench.resilience.max_retries = sweep_options.contract.max_retries;
    bench.resilience.point_deadline_slots =
        sweep_options.contract.point_deadline_slots;
    bench.resilience.cap_enabled = config.cap.enabled;
    bench.resilience.capped_ok = rs.capped_ok;
  }

  std::printf("%zu points at %zu jobs: %.3f s wall (%.1f points/s)\n",
              bench.points, bench.jobs, bench.wall_seconds,
              bench.points_per_second);
  if (resilient) {
    std::printf(
        "resilience: %zu scheduled | %zu replayed | %zu retries | "
        "%zu quarantined | %zu rounds | %zu spot-checks | %zu stalls\n",
        rs.scheduled, rs.replayed, rs.retries, rs.quarantined, rs.rounds,
        rs.spot_checks, rs.watchdog_stalls);
  }
  if (bench.cap_enabled) {
    std::printf("power cap: %zu/%zu points throttled | %llu capped slots | "
                "%llu budget violations | %.1f J deferred\n",
                bench.capped_points, bench.points,
                static_cast<unsigned long long>(bench.capped_slots),
                static_cast<unsigned long long>(bench.cap_violations),
                bench.cap_deferred_j);
  }
  if (bench.stacks_enabled) {
    std::printf("stacks: %zu multi-stack points | %llu stack startups | "
                "max wear %.6g\n",
                bench.stack_points,
                static_cast<unsigned long long>(bench.stack_startups),
                bench.stack_max_wear);
  }
  if (bench.batched_points > 0) {
    std::printf("batched: %zu/%zu points | %zu merge sets | %zu merged "
                "lane-slots | %zu splits\n",
                bench.batched_points, bench.points, bench.batch_merge_sets,
                bench.batch_merged_lane_slots, bench.batch_splits);
  }
  print_audit_rollup(bench);
  if (rs.torn_tail_recovered) {
    std::printf("journal torn tail recovered (%zu bytes dropped)\n",
                rs.torn_bytes_dropped);
  }
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    const par::SweepPointResult& p = sweep.points[k];
    if (!p.ok) {
      std::printf("quarantined point %zu after %zu attempts: %s: %s\n", k,
                  p.attempts, resilience::to_string(p.error.kind),
                  p.error.detail.c_str());
    }
  }

  bool diverged = false;
  if (have_serial) {
    bench.serial_wall_seconds = serial.stats.wall_seconds;
    bench.speedup =
        bench.wall_seconds > 0.0
            ? bench.serial_wall_seconds / bench.wall_seconds
            : 0.0;
    const bool identical = identical_sweeps(serial, sweep);
    bench.bit_identical_to_serial = identical ? 1 : 0;
    diverged = !identical;
    std::printf("vs --jobs 1: %.3f s serial, speedup %.2fx, results %s\n",
                bench.serial_wall_seconds, bench.speedup,
                identical ? "bit-identical" : "DIVERGED");
  }

  tel.finish(bench, obs.sink());

  const std::string out = option_or(options, "out", "");
  if (!out.empty()) {
    report::write_sweep_bench_file(out, bench);
    std::printf("wrote sweep bench to %s\n", out.c_str());
  }
  obs.finish();
  if (diverged) {
    std::fprintf(stderr,
                 "error: parallel sweep diverged from the serial "
                 "reference (determinism bug)\n");
    return 2;
  }
  if (!resilient && rs.quarantined > 0) {
    // Without a resilience flag nobody asked for quarantine: a failed
    // point is the sweep's runtime error, reported after the table.
    std::fprintf(stderr, "error: sweep: %zu point(s) quarantined\n",
                 rs.quarantined);
    return 2;
  }
  return 0;
}

/// Divergence bisection: binary-search the first slot where the
/// batched engine disagrees with the reference and dump a minimized repro.
/// Exit 0 either way — finding (or excluding) a divergence is the
/// tool's successful outcome; tests and CI parse the report.
int cmd_bisect(const Options& options) {
  sim::ExperimentConfig config = build_config(options);
  const sim::PolicyKind kind =
      parse_policy(option_or(options, "policy", "fcdpm"));
  audit::BisectOptions bisect_options;
  bisect_options.perturb_slot =
      checked_index_or(options, "perturb-slot", audit::npos);
  const audit::BisectReport report =
      audit::bisect_point(config, kind, bisect_options);
  if (!report.diverged) {
    std::printf("engines agree: %s on %s is bit-identical over all "
                "%zu slots (%zu probe runs)\n",
                sim::to_string(kind), config.trace.name().c_str(),
                config.trace.size(), report.runs);
    return 0;
  }
  std::printf("first divergent slot: %zu of %zu (%zu probe runs)\n",
              report.first_divergent_slot, config.trace.size(),
              report.runs);
  std::printf("  entry state : fuel %.17g A-s | storage %.17g A-s\n",
              report.entry_fuel_as, report.entry_storage_as);
  std::printf("  reference   : fuel %.17g A-s | storage end %.17g A-s\n",
              report.reference.totals.fuel.value(),
              report.reference.storage_end.value());
  std::printf("  batched     : fuel %.17g A-s | storage end %.17g A-s\n",
              report.batched.totals.fuel.value(),
              report.batched.storage_end.value());
  const std::string out = option_or(options, "repro-out", "");
  if (!out.empty()) {
    audit::write_repro(out, config, kind, report);
    std::printf("wrote repro to %s.json and %s_window.csv\n", out.c_str(),
                out.c_str());
  }
  return 0;
}

int cmd_aggregate(const Options& options) {
  const auto out_it = options.find("out");
  if (out_it == options.end()) {
    throw std::runtime_error("aggregate requires --out <file>");
  }
  const wl::Trace trace = load_workload(options);
  const Seconds budget(ranged_number_or(options, "defer", 30.0,
                                        is_non_negative,
                                        "a non-negative finite time in s"));
  wl::AggregationReport report;
  const wl::Trace merged = wl::aggregate_trace(trace, budget, &report);
  wl::save_trace_file(out_it->second, merged);
  std::printf(
      "aggregated %zu slots into %zu (deferral budget %.1f s, worst "
      "deferral %.1f s) -> %s\n",
      report.original_slots, report.merged_slots, budget.value(),
      report.worst_deferral.value(), out_it->second.c_str());
  return 0;
}

int cmd_merge(int argc, char** argv) {
  // merge out.csv in1.csv in2.csv [...]
  if (argc < 5) {
    throw std::runtime_error(
        "merge requires: merge <out.csv> <in1.csv> <in2.csv> [...]");
  }
  std::vector<wl::Trace> traces;
  for (int k = 3; k < argc; ++k) {
    traces.push_back(wl::load_trace_file(argv[k]));
  }
  const wl::Trace merged = wl::merge_traces(traces, "merged");
  wl::save_trace_file(argv[2], merged);
  std::printf("merged %zu traces into %zu aggregate slots -> %s\n",
              traces.size(), merged.size(), argv[2]);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: fcdpm_cli <command> [--option value | --option=value ...]\n"
      "  gen      --kind camcorder|synthetic --out trace.csv [--seed N]\n"
      "  analyze  [--trace f.csv | --kind camcorder|synthetic]\n"
      "  run      --policy conv|asap|fcdpm|oracle [--trace f.csv |\n"
      "           --kind ...] [--rho R] [--capacity C] [--initial C]\n"
      "  compare  [--trace f.csv | --kind ...] [--rho R] ...\n"
      "  lifetime --tank A-s [--policy ...] [--kind ...]\n"
      "  sweep    [--jobs N] [--policies conv,asap,fcdpm,oracle]\n"
      "           [--rhos R1,R2,...] [--capacities C1,C2,...]\n"
      "           [--storm-seeds S1,S2,...] [--storm-faults N]\n"
      "           [--stacks N1,N2,...]  stack-count axis (0 = the\n"
      "                                 single-stack base source)\n"
      "           [--distributions proportional,waterfill,health]\n"
      "           [--out BENCH_sweep.json]\n"
      "           [--serial-check on|off] [--trace f.csv | --kind ...]\n"
      "           (--jobs 0 = all cores; with --jobs != 1 a --jobs 1\n"
      "           reference runs first for speedup and bit-identity)\n"
      "           resilience (every sweep runs under the default\n"
      "           contract; any flag adds a status column and a\n"
      "           resilience report block):\n"
      "           [--journal J.fcj]     result journal, one fsync per\n"
      "                                 finished task (batch or point)\n"
      "           [--resume J.fcj]      replay J, run only the remainder\n"
      "           [--max-retries N]     retries before quarantine (2)\n"
      "           [--point-deadline S]  per-point simulated-slot budget\n"
      "           [--watchdog-stall-ms MS]  hung-worker watchdog window\n"
      "           [--spot-checks N]     replayed points re-verified (1)\n"
      "           [--inject-fail K]     test hook: grid point K always\n"
      "                                 fails (exercises quarantine)\n"
      "           [--unserved-budget A-s]  quarantine a point whose\n"
      "                                 unserved charge exceeds this\n"
      "                                 (power_undeliverable)\n"
      "           telemetry (derived observation; results unchanged):\n"
      "           [--progress on]       live progress line on stderr\n"
      "           [--progress-out f.jsonl]  snapshot stream, one JSON\n"
      "                                 object per line; the final line\n"
      "                                 totals the whole sweep\n"
      "           [--progress-interval-ms MS]  sampler period (200;\n"
      "                                 0 = 200, at most one day)\n"
      "  bisect   [--policy ...] [--trace f.csv | --kind ...]\n"
      "           [--perturb-slot K]   synthetic batched-engine defect at\n"
      "                                 slot K (test hook / CI smoke)\n"
      "           [--repro-out prefix] write prefix.json (entry state +\n"
      "                                 bit patterns) and\n"
      "                                 prefix_window.csv (runnable\n"
      "                                 trace window)\n"
      "           binary-search the first slot where the batched\n"
      "           engine diverges from the reference\n"
      "  aggregate --out f.csv [--defer S] [--trace ... | --kind ...]\n"
      "  merge    <out.csv> <in1.csv> <in2.csv> [...]\n"
      "run/compare/lifetime/sweep also accept:\n"
      "  --engine reference|batched\n"
      "                        simulation engine (default reference;\n"
      "                        batched = compiled-trace SoA batch loop,\n"
      "                        one lane per run, prefix-sharing across\n"
      "                        capacities in sweeps; bit-identical\n"
      "                        results). batched rejects --faults,\n"
      "                        --cap on, --audit strict and, outside\n"
      "                        sweep, --trace-out/--metrics-out\n"
      "  --trace-out f.json    Chrome/Perfetto trace (f.jsonl for JSONL)\n"
      "  --metrics-out f.csv   metrics registry dump (f.json for JSON)\n"
      "  --faults SPEC         inject faults; SPEC is an inline schedule\n"
      "                        (kind@start[:dur][xmag], e.g.\n"
      "                        converter_dropout@120:30,brownout@400x0.5),\n"
      "                        storm:SEED[:COUNT] for a seeded random\n"
      "                        storm, or a CSV schedule file\n"
      "  --cap on|off          closed-loop power capping (default off):\n"
      "                        throttle DVS level when the plan exceeds\n"
      "                        the deliverable envelope instead of\n"
      "                        browning out\n"
      "  --cap-table f.csv     corecap table (min_budget_w,max_level);\n"
      "                        default derived from the DVS processor\n"
      "  --cap-hysteresis N    clean slots before stepping back up\n"
      "                        (4; at least 1)\n"
      "  --cap-draw-fraction F storage charge fraction spendable per\n"
      "                        slot when computing the envelope (0.5)\n"
      "  --stacks N            split the fuel cell into N parallel\n"
      "                        stacks (clones of the base curve) with\n"
      "                        per-stack degradation accounting; only\n"
      "                        sweep takes a list (its grid axis)\n"
      "  --distribution proportional|waterfill|health\n"
      "                        power split across stacks: by ceiling,\n"
      "                        efficiency-optimal water-filling, or\n"
      "                        health-aware (rest the most worn stack)\n"
      "  --stacks-config f.csv heterogeneous stacks, one per row\n"
      "                        (alpha,beta,if_min_a,if_max_a,\n"
      "                        charge_fade_per_as,cycle_fade)\n"
      "  --stack-charge-fade F efficiency fade per delivered A-s (0)\n"
      "  --stack-cycle-fade F  efficiency fade per on/off cycle (0)\n"
      "  --audit off|sample|strict\n"
      "                        runtime invariant auditing (default off;\n"
      "                        results stay bit-identical): fuel-burn\n"
      "                        integral reconciliation, storage bounds,\n"
      "                        cap budget, stack wear. A batched-engine\n"
      "                        violation self-heals: the run replays on\n"
      "                        the reference engine and records an\n"
      "                        engine_fallback\n"
      "  --audit-sample-period N\n"
      "                        sample mode checks every Nth slot (16)\n"
      "  --audit-tamper-slot K test hook: corrupt the auditor's observed\n"
      "                        integral at slot K on the batched lane\n"
      "                        (exercises the self-heal path)\n");
  return 1;
}

/// A subcommand and every option it reads: load_workload's keys for
/// all, build_config's for the simulating commands, ObsSession's where
/// the command owns one, plus the command's own.
struct Command {
  const char* name;
  int (*run)(const Options&);
  std::vector<std::string_view> options;
};

std::vector<Command> commands() {
  const std::vector<std::string_view> workload = {"trace", "kind", "seed"};
  const auto with = [&](std::initializer_list<std::vector<std::string_view>>
                            groups) {
    std::vector<std::string_view> keys = workload;
    for (const std::vector<std::string_view>& group : groups) {
      keys.insert(keys.end(), group.begin(), group.end());
    }
    return keys;
  };
  const std::vector<std::string_view> config = {
      "rho", "sigma", "capacity", "initial", "engine", "faults", "cap",
      "cap-table", "cap-hysteresis", "cap-draw-fraction", "audit",
      "audit-sample-period", "audit-tamper-slot", "stacks", "stacks-config",
      "distribution", "stack-charge-fade", "stack-cycle-fade"};
  const std::vector<std::string_view> obs = {"trace-out", "metrics-out"};
  const std::vector<std::string_view> sweep = {
      "jobs", "policies", "rhos", "capacities", "storm-seeds",
      "storm-faults", "distributions", "out", "serial-check", "journal",
      "resume", "max-retries", "point-deadline", "watchdog-stall-ms",
      "spot-checks", "inject-fail", "unserved-budget", "progress",
      "progress-out", "progress-interval-ms"};
  return {
      {"gen", cmd_gen, with({{"out"}})},
      {"analyze", cmd_analyze, with({})},
      {"run", cmd_run, with({config, obs, {"policy"}})},
      {"compare", cmd_compare, with({config, obs})},
      {"lifetime", cmd_lifetime, with({config, obs, {"policy", "tank"}})},
      {"sweep", cmd_sweep, with({config, obs, sweep})},
      {"bisect", cmd_bisect,
       with({config, {"policy", "perturb-slot", "repro-out"}})},
      {"aggregate", cmd_aggregate, with({{"out", "defer"}})},
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    if (command == "merge") {
      return cmd_merge(argc, argv);  // positional arguments
    }
    for (const Command& c : commands()) {
      if (command == c.name) {
        return c.run(parse_options(argc, argv, 2, command, c.options));
      }
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
