// Crash-safe append-only result journal for sweep execution.
//
// Layout of a journal file:
//
//   <header JSON>\n                 -- written via temp + atomic rename
//   R <len:8 hex> <fnv64:16 hex> <payload JSON>\n    -- appended
//   R ...
//
// The header lands atomically before any record, so a journal is never
// observed half-created. Each record is one length-prefixed, checksummed
// JSONL line describing one completed grid point (ok result or typed
// quarantine error). par::run_sweep commits each finished task's
// records as one group: one write, then one fsync. A crash therefore
// tears at most the groups in flight. The loader verifies prefix,
// length, checksum and terminator record by record and *truncates* a
// torn tail instead of failing: a SIGKILL'd sweep resumes from exactly
// the records that fully committed, including the leading records of a
// group cut short.
//
// Doubles round-trip bit-exactly: they are serialized as C99 hexfloats
// ("0x1.9a6p+9") inside JSON strings.
//
// The journal defines what a result's "observable" fields are. Each
// journaled block (the result core, and the optional cap, stacks and
// audit blocks) is declared once, as a field list in journal.cpp; the
// encoder, the decoder and same_observable all walk those lists, so
// journaling a new field is one line and it is then written, read and
// compared alike. A resume's spot-check holds replayed records to
// same_observable, so it covers every journaled block.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "par/sweep.hpp"
#include "resilience/retry.hpp"
#include "sim/metrics.hpp"

namespace fcdpm::resilience {

/// Identity of the sweep a journal belongs to. The fingerprint hashes
/// the base config's observable inputs (trace contents, predictor
/// seeds, initial storage) and every grid point, so resuming with a
/// different grid or workload is rejected instead of silently merging
/// incompatible results.
struct JournalHeader {
  std::string trace_name;
  std::size_t points = 0;
  std::uint64_t fingerprint = 0;
};

/// One journaled grid point. `ok` records carry the observable result
/// fields (everything the sweep table, BENCH export and bit-identity
/// checks read); failed records carry the typed error instead.
struct JournalRecord {
  std::size_t index = 0;  ///< grid index (grid order is canonical)
  par::SweepPoint point;
  std::size_t attempts = 1;
  bool ok = true;
  PointError error;            ///< valid when !ok
  sim::SimulationResult result;  ///< observable fields only, when ok
};

/// Bitwise equality over every journaled result field: the core
/// totals and each optional block (cap, stacks, audit), absent on both
/// sides or equal field by field. This is what a resume's spot-check
/// holds a replayed record to; it walks the same per-block field lists
/// the journal encodes and decodes with, so it compares exactly what
/// the journal carries.
[[nodiscard]] bool same_observable(const sim::SimulationResult& a,
                                   const sim::SimulationResult& b);

/// Fingerprint of (base config, grid points, storm size);
/// order-sensitive over the points.
[[nodiscard]] std::uint64_t grid_fingerprint(
    const sim::ExperimentConfig& base,
    const std::vector<par::SweepPoint>& points, std::size_t storm_faults);

/// Append-only journal writer. Thread-safe: workers append completed
/// tasks concurrently; each append is serialized and fsync'd.
class Journal {
 public:
  /// Create a fresh journal at `path`: the header is staged in a temp
  /// file and atomically renamed into place, then the file is opened
  /// for record appends. Throws CsvError on I/O failure.
  [[nodiscard]] static Journal create(const std::string& path,
                                      const JournalHeader& header);

  /// Open an existing journal for appending (resume). The caller is
  /// expected to have load_journal()'d it first; a torn tail found
  /// there is physically truncated here before appending.
  [[nodiscard]] static Journal open_for_append(const std::string& path,
                                               std::size_t valid_bytes);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Group commit: serialize, length-prefix and checksum every record,
  /// append them all in one write, then fsync once. Thread-safe.
  void append(std::span<const JournalRecord> records);
  /// The one-record group.
  void append(const JournalRecord& record);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  Journal(std::string path, int fd);

  void write_all(const std::string& bytes);

  std::string path_;
  int fd_ = -1;
  /// Serializes appends from worker threads (heap-held so the journal
  /// stays movable).
  std::unique_ptr<std::mutex> mutex_;
};

/// Result of loading a journal.
struct JournalLoad {
  JournalHeader header;
  std::vector<JournalRecord> records;  ///< valid records, file order
  bool torn_tail = false;   ///< trailing partial/corrupt record dropped
  std::size_t dropped_bytes = 0;  ///< bytes past the last valid record
  std::size_t valid_bytes = 0;    ///< offset of the first dropped byte
};

/// Load a journal, recovering from a torn tail (see file comment).
/// Throws CsvError when the file is missing or the header itself is
/// unreadable (a journal without a committed header never held data).
[[nodiscard]] JournalLoad load_journal(const std::string& path);

/// Serialization of one record (exposed for tests; the exact bytes
/// `append` writes, minus prefix/checksum framing).
[[nodiscard]] std::string record_to_json(const JournalRecord& record);

}  // namespace fcdpm::resilience
