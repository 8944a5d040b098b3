// Layer probe for the traced benchmark run (perfbench/run.py --trace 1).
//
//   fcdpm_probe gen --seed S --slots N --out F
//       Generate a camcorder trace of N slots and save it.
//   fcdpm_probe layers --seed S --slots N --trace F --policies ..
//       --rhos .. --capacities .. [--storm-seeds ..]
//       --engine reference|batched --jobs N --out DIR
//       Time one call family per layer and write rows + spans to DIR.
//
// Probe rule: only public functions the planned refactors keep are
// called (trace generation and I/O, SlotOptimizer::solve, run_policy,
// run_sweep with default SweepOptions, Journal / load_journal,
// sweep_bench_to_json and Table). Nothing here names the solve cache,
// its wrappers, run_point or the hot engine, so the probe keeps
// compiling while those are deleted or reshaped.
//
// Spans (name, start, end, parent) are kept in memory and written to
// DIR/spans.json when the run ends; a span wraps a whole call into a
// layer, or a loop of calls when one call is too short to time without
// the clock dominating it (SlotOptimizer::solve).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/slot_optimizer.hpp"
#include "par/sweep.hpp"
#include "report/sweep_export.hpp"
#include "report/table.hpp"
#include "resilience/journal.hpp"
#include "sim/experiments.hpp"
#include "workload/camcorder.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace fcdpm;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span recorder for one thread; nesting follows scope.
class Spans {
 public:
  int begin(std::string name) {
    spans_.push_back({std::move(name), now_ns(), 0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  /// Ends span `id` and returns its duration in seconds.
  double end(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    open_ = span.parent;
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      out << (k == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << "}";
    }
    out << "\n]\n";
    if (!out) {
      throw std::runtime_error("cannot write " + path);
    }
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

Spans g_spans;

template <typename F>
double timed(const std::string& name, F&& body) {
  const int id = g_spans.begin(name);
  body();
  return g_spans.end(id);
}

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int k = 2; k < argc; ++k) {
    const std::string key = argv[k];
    if (key.rfind("--", 0) != 0 || k + 1 >= argc) {
      throw std::runtime_error("bad argument: " + key);
    }
    args[key.substr(2)] = argv[++k];
  }
  return args;
}

const std::string& need(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) {
    throw std::runtime_error("missing --" + key);
  }
  return it->second;
}

std::string get(const Args& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  return items;
}

std::size_t slot_count(const Args& args) {
  const long long slots = std::atoll(need(args, "slots").c_str());
  if (slots <= 0) {
    throw std::runtime_error("--slots must be a positive count");
  }
  return static_cast<std::size_t>(slots);
}

sim::PolicyKind parse_policy(const std::string& name) {
  if (name == "conv") return sim::PolicyKind::Conv;
  if (name == "asap") return sim::PolicyKind::Asap;
  if (name == "fcdpm") return sim::PolicyKind::FcDpm;
  if (name == "oracle") return sim::PolicyKind::Oracle;
  throw std::runtime_error("unknown policy: " + name);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// A camcorder (Experiment 1) trace of exactly `slots` slots, so every
/// seed gives the same amount of work per grid point.
wl::Trace generate(std::uint64_t seed, std::size_t slots) {
  wl::CamcorderConfig config;
  config.seed = seed;
  // Slots last 11-23 s, so this length always covers `slots` of them.
  config.recording_length = Seconds(25.0 * static_cast<double>(slots));
  const wl::Trace trace = wl::generate_camcorder_trace(config);
  if (trace.size() < slots) {
    throw std::runtime_error("generated trace is shorter than --slots");
  }
  std::vector<wl::TaskSlot> prefix(
      trace.slots().begin(),
      trace.slots().begin() + static_cast<std::ptrdiff_t>(slots));
  return wl::Trace(trace.name(), std::move(prefix));
}

int cmd_gen(const Args& args) {
  const auto seed = std::strtoull(need(args, "seed").c_str(), nullptr, 10);
  const wl::Trace trace = generate(seed, slot_count(args));
  wl::save_trace_file(need(args, "out"), trace);
  std::printf("{\"slots\":%zu}\n", trace.size());
  return 0;
}

report::SweepPointRow row_of(const par::SweepPoint& point,
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
  return row;
}

report::SweepBenchReport report_of(const std::string& trace_name,
                                   const par::SweepResult& sweep) {
  report::SweepBenchReport bench;
  bench.trace_name = trace_name;
  bench.points = sweep.stats.points;
  bench.jobs = sweep.stats.jobs;
  bench.wall_seconds = sweep.stats.wall_seconds;
  bench.points_per_second = sweep.stats.points_per_second();
  for (const par::SweepPointResult& p : sweep.points) {
    bench.results.push_back(row_of(p.point, p.result));
  }
  return bench;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

/// The per-point table `fcdpm_cli sweep` prints (cap and stacks off).
report::Table sweep_table(const std::string& trace_name,
                          const std::vector<report::SweepPointRow>& rows) {
  report::Table table("sweep: " + trace_name,
                      {"policy", "rho", "capacity", "storm seed",
                       "fuel (A-s)", "bled (A-s)", "unserved (A-s)",
                       "sleeps"});
  for (const report::SweepPointRow& r : rows) {
    table.add_row({r.policy, report::cell(r.rho, 2),
                   report::cell(r.capacity, 1), std::to_string(r.storm_seed),
                   report::cell(r.fuel, 2), report::cell(r.bled, 2),
                   report::cell(r.unserved, 2), std::to_string(r.sleeps)});
  }
  return table;
}

int cmd_layers(const Args& args) {
  const std::string trace_path = need(args, "trace");
  const std::string out_dir = need(args, "out");
  const auto seed = std::strtoull(need(args, "seed").c_str(), nullptr, 10);
  const std::size_t slots = slot_count(args);
  const auto jobs_n =
      static_cast<std::size_t>(std::atoi(need(args, "jobs").c_str()));
  const std::string engine = get(args, "engine", "reference");
  std::filesystem::create_directories(out_dir);
  const int root = g_spans.begin("probe");

  // ---- workload: generate + save, and load, each a median of 5 ----
  constexpr int kReps = 5;
  std::vector<double> gen_s;
  std::vector<double> load_s;
  wl::Trace trace;
  const std::string regen_path = out_dir + "/regenerated.csv";
  for (int rep = 0; rep < kReps; ++rep) {
    const int span = g_spans.begin("workload.generate_save");
    const wl::Trace fresh = generate(seed, slots);
    wl::save_trace_file(regen_path, fresh);
    gen_s.push_back(g_spans.end(span));
    load_s.push_back(timed(
        "workload.load", [&] { trace = wl::load_trace_file(trace_path); }));
  }
  {
    std::ifstream a(regen_path, std::ios::binary);
    std::ifstream b(trace_path, std::ios::binary);
    std::stringstream sa;
    std::stringstream sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    if (sa.str() != sb.str()) {
      throw std::runtime_error("regenerated trace differs from " + trace_path);
    }
  }

  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = trace;
  if (engine == "batched") {
    config.simulation.engine = sim::Engine::Batched;
  } else if (engine != "reference") {
    throw std::runtime_error("unknown --engine: " + engine);
  }

  par::SweepGrid grid;
  for (const std::string& name : split_list(need(args, "policies"))) {
    grid.policies.push_back(parse_policy(name));
  }
  for (const std::string& v : split_list(need(args, "rhos"))) {
    grid.rhos.push_back(std::strtod(v.c_str(), nullptr));
  }
  for (const std::string& v : split_list(need(args, "capacities"))) {
    grid.capacities.push_back(Coulomb(std::strtod(v.c_str(), nullptr)));
  }
  for (const std::string& v : split_list(get(args, "storm-seeds", ""))) {
    grid.storm_seeds.push_back(std::strtoull(v.c_str(), nullptr, 10));
  }
  // Fault-free projection of the grid: the points sim::run_policy can
  // run without a fault injector (storm seeds are a sweep-only axis).
  par::SweepGrid clean = grid;
  clean.storm_seeds.clear();
  const std::vector<par::SweepPoint> clean_points = clean.points(config);

  // ---- core: SlotOptimizer::solve over the trace's slot loads ----
  const core::SlotOptimizer optimizer(config.efficiency);
  const double volts = config.device.bus_voltage.value();
  const double capacity = grid.capacities.front().value();
  std::vector<core::SlotLoad> loads;
  std::vector<core::StorageBounds> bounds;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    core::SlotLoad load;
    load.idle = trace[k].idle;
    load.idle_current = Ampere(config.device.standby_power.value() / volts);
    load.active = trace[k].active;
    load.active_current = Ampere(trace[k].active_power.value() / volts);
    loads.push_back(load);
    const double initial =
        std::fmod(0.37 * static_cast<double>(k), capacity);
    bounds.push_back({Coulomb(initial), Coulomb(std::min(1.0, capacity)),
                      Coulomb(capacity)});
  }
  std::uint64_t solves = 0;
  double checksum = 0.0;
  const double solve_s = timed("core.solve_loop", [&] {
    const std::int64_t stop = now_ns() + 200'000'000;
    while (now_ns() < stop) {
      for (std::size_t k = 0; k < loads.size(); ++k) {
        checksum += optimizer.solve(loads[k], bounds[k]).fuel.value();
      }
      solves += loads.size();
    }
  });

  // ---- sim: run_policy per fault-free grid point (reference loop) ----
  sim::ExperimentConfig reference_config = config;
  reference_config.simulation.engine = sim::Engine::Reference;
  std::vector<double> sim_us;
  report::SweepBenchReport sim_rows;
  sim_rows.trace_name = trace.name();
  const int sim_span = g_spans.begin("sim.points");
  for (const par::SweepPoint& point : clean_points) {
    sim::ExperimentConfig point_config = reference_config;
    point_config.rho = point.rho;
    point_config.storage_capacity = point.capacity;
    point_config.initial_storage =
        min(point_config.initial_storage, point.capacity);
    sim::SimulationResult result;
    sim_us.push_back(1e6 * timed("sim.run_policy", [&] {
                       result = sim::run_policy(point.policy, point_config);
                     }));
    sim_rows.results.push_back(row_of(point, result));
  }
  g_spans.end(sim_span);
  sim_rows.points = sim_rows.results.size();
  write_text(out_dir + "/sim_rows.json", report::sweep_bench_to_json(sim_rows));

  // ---- batch: the batched engine at B = 1, one one-point sweep each ----
  // run_policy always runs the reference loop, so a one-point run_sweep
  // is the kept public route into the batched engine; its per-call
  // driver cost (a one-thread pool) is inside these numbers.
  std::vector<double> batch_us;
  std::size_t batch_ran = 0;
  report::SweepBenchReport batch_rows;
  batch_rows.trace_name = trace.name();
  sim::ExperimentConfig batched_config = config;
  batched_config.simulation.engine = sim::Engine::Batched;
  const int batch_span = g_spans.begin("batch.points");
  for (const par::SweepPoint& point : clean_points) {
    par::SweepGrid one;
    one.policies = {point.policy};
    one.rhos = {point.rho};
    one.capacities = {point.capacity};
    par::SweepResult result;
    batch_us.push_back(1e6 * timed("batch.one_point_sweep", [&] {
                         result = par::run_sweep(batched_config, one);
                       }));
    batch_ran += result.stats.points_batched;
    batch_rows.results.push_back(row_of(point, result.points[0].result));
  }
  g_spans.end(batch_span);
  batch_rows.points = batch_rows.results.size();
  write_text(out_dir + "/batch_rows.json",
             report::sweep_bench_to_json(batch_rows));

  // ---- par: uncached run_sweep at jobs 1 and jobs N; and the
  //      reference engine over the fault-free points sim timed, whose
  //      difference from those per-point runs is the driver's cost ----
  par::SweepResult jobs1;
  par::SweepResult jobsn;
  const double jobs1_s =
      timed("par.sweep_jobs1", [&] { jobs1 = par::run_sweep(config, grid); });
  par::SweepOptions n_jobs;
  n_jobs.jobs = jobs_n;
  const double jobsn_s = timed(
      "par.sweep_jobsN", [&] { jobsn = par::run_sweep(config, grid, n_jobs); });
  const double driver_sweep_s = timed("par.sweep_reference_clean", [&] {
    const par::SweepResult swept = par::run_sweep(reference_config, clean);
    if (swept.points.size() != clean_points.size()) {
      throw std::runtime_error("reference sweep lost points");
    }
  });
  const report::SweepBenchReport jobs1_report = report_of(trace.name(), jobs1);
  write_text(out_dir + "/par_jobs1_rows.json",
             report::sweep_bench_to_json(jobs1_report));
  write_text(out_dir + "/par_jobsN_rows.json",
             report::sweep_bench_to_json(report_of(trace.name(), jobsn)));

  // ---- resilience: create + append every point (fsync'd), then load
  //      the full journal and a copy cut at half its bytes ----
  const std::string journal_path = out_dir + "/probe.journal";
  std::filesystem::remove(journal_path);
  std::vector<double> append_us;
  resilience::JournalHeader header;
  header.trace_name = trace.name();
  header.points = jobs1.points.size();
  {
    std::optional<resilience::Journal> journal;
    timed("resilience.create", [&] {
      journal.emplace(resilience::Journal::create(journal_path, header));
    });
    for (std::size_t k = 0; k < jobs1.points.size(); ++k) {
      resilience::JournalRecord record;
      record.index = k;
      record.point = jobs1.points[k].point;
      record.result = jobs1.points[k].result;
      append_us.push_back(1e6 * timed("resilience.append",
                                      [&] { journal->append(record); }));
    }
  }
  const auto journal_bytes = std::filesystem::file_size(journal_path);
  const std::string cut_path = out_dir + "/probe_cut.journal";
  std::filesystem::copy_file(journal_path, cut_path,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(cut_path, journal_bytes / 2);
  resilience::JournalLoad full;
  resilience::JournalLoad cut;
  const double load_full_s = timed("resilience.load_full", [&] {
    full = resilience::load_journal(journal_path);
  });
  const double load_cut_s = timed("resilience.load_cut", [&] {
    cut = resilience::load_journal(cut_path);
  });
  if (full.records.size() != jobs1.points.size() || full.torn_tail ||
      cut.records.size() >= full.records.size() ||
      (cut.records.size() > 0 &&
       (cut.records.back().index >= jobs1.points.size() ||
        cut.records.back().result.totals.fuel.value() !=
            jobs1.points[cut.records.back().index]
                .result.totals.fuel.value()))) {
    throw std::runtime_error("journal probe: load did not round-trip");
  }

  // ---- report: BENCH JSON export and the ASCII table, median of 5 ----
  std::vector<double> json_s;
  std::vector<double> table_s;
  std::size_t json_bytes = 0;
  std::size_t table_bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    json_s.push_back(timed("report.json", [&] {
      json_bytes = report::sweep_bench_to_json(jobs1_report).size();
    }));
    table_s.push_back(timed("report.table", [&] {
      table_bytes =
          sweep_table(trace.name(), jobs1_report.results).to_ascii().size();
    }));
  }

  g_spans.end(root);
  g_spans.write(out_dir + "/spans.json");

  double sim_total_s = 0.0;
  for (const double us : sim_us) sim_total_s += us * 1e-6;
  double batch_total_s = 0.0;
  for (const double us : batch_us) batch_total_s += us * 1e-6;

  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  const std::vector<std::pair<const char*, double>> figures = {
      {"workload.gen_s", median(gen_s)},
      {"workload.load_s", median(load_s)},
      {"workload.slots", count(trace.size())},
      {"core.solve_ns", 1e9 * solve_s / static_cast<double>(solves)},
      {"core.loop_solves", static_cast<double>(solves)},
      {"core.checksum", checksum},
      {"sim.point_us_p50", percentile(sim_us, 0.5)},
      {"sim.point_us_p90", percentile(sim_us, 0.9)},
      {"sim.samples", count(sim_us.size())},
      {"sim.total_s", sim_total_s},
      {"batch.point_us_p50", percentile(batch_us, 0.5)},
      {"batch.point_us_p90", percentile(batch_us, 0.9)},
      {"batch.samples", count(batch_us.size())},
      {"batch.b1_batched", count(batch_ran)},
      {"batch.total_s", batch_total_s},
      {"par.jobs_n", count(jobs_n)},
      {"par.sweep_s_jobs1", jobs1_s},
      {"par.sweep_s_jobsN", jobsn_s},
      {"par.driver_sweep_s", driver_sweep_s},
      {"resilience.append_us", median(append_us)},
      {"resilience.append_us_p90", percentile(append_us, 0.9)},
      {"resilience.appends", count(append_us.size())},
      {"resilience.probe_bytes", static_cast<double>(journal_bytes)},
      {"resilience.load_s", load_full_s},
      {"resilience.load_cut_s", load_cut_s},
      {"resilience.cut_records", count(cut.records.size())},
      {"report.json_s", median(json_s)},
      {"report.json_bytes", count(json_bytes)},
      {"report.table_s", median(table_s)},
      {"report.table_bytes", count(table_bytes)},
  };
  std::string line = "{";
  char buffer[64];
  for (const auto& [name, value] : figures) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    line += (line.size() > 1 ? ",\"" : "\"") + std::string(name) + "\":" +
            buffer;
  }
  std::printf("%s}\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: fcdpm_probe gen|layers --key value ...\n");
    return 2;
  }
  try {
    const Args args = parse_args(argc, argv);
    const std::string command = argv[1];
    if (command == "gen") {
      return cmd_gen(args);
    }
    if (command == "layers") {
      return cmd_layers(args);
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fcdpm_probe: %s\n", e.what());
    return 1;
  }
}
