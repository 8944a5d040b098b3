#include "resilience/journal.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "audit/audit.hpp"
#include "cap/stats.hpp"
#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "obs/trace_sink.hpp"
#include "stacks/multi_stack.hpp"

namespace fcdpm::resilience {

namespace {

// --- framing ----------------------------------------------------------------
// "R " + 8-hex payload length + " " + 16-hex FNV-1a 64 + " " ... "\n"
constexpr std::size_t kLenDigits = 8;
constexpr std::size_t kSumDigits = 16;
constexpr std::size_t kPrefixBytes = 2 + kLenDigits + 1 + kSumDigits + 1;

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string to_hex(std::uint64_t value, std::size_t digits) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%0*llx", static_cast<int>(digits),
                static_cast<unsigned long long>(value));
  return buffer;
}

bool parse_hex(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) {
    return false;
  }
  out = 0;
  for (const char c : text) {
    out <<= 4;
    if (c >= '0' && c <= '9') {
      out |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      out |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  return true;
}

/// C99 hexfloat inside a JSON string: exact binary64 round-trip.
std::string hex_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

// --- minimal flat-JSON-object parser ----------------------------------------
// Journal payloads are flat objects of string / integer / bool values,
// emitted by record_to_json below; this parser accepts exactly that.

struct JsonField {
  enum class Kind { String, Integer, Bool } kind = Kind::String;
  std::string text;         // String
  std::uint64_t integer = 0;  // Integer (payloads never need signs)
  bool boolean = false;     // Bool
};

using JsonObject = std::vector<std::pair<std::string, JsonField>>;

class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonObject& out) {
    skip_space();
    if (!consume('{')) {
      return false;
    }
    skip_space();
    if (consume('}')) {
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key)) {
        return false;
      }
      skip_space();
      if (!consume(':')) {
        return false;
      }
      skip_space();
      JsonField field;
      if (!parse_value(field)) {
        return false;
      }
      out.emplace_back(std::move(key), std::move(field));
      skip_space();
      if (consume(',')) {
        skip_space();
        continue;
      }
      return consume('}');
    }
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          std::uint64_t code = 0;
          std::string hex(text_.substr(pos_, 4));
          for (char& h : hex) {
            h = static_cast<char>(std::tolower(h));
          }
          if (!parse_hex(hex, code)) {
            return false;
          }
          pos_ += 4;
          // Journal strings only ever escape control characters; wider
          // code points pass through UTF-8 unescaped.
          out += static_cast<char>(code & 0xff);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool parse_value(JsonField& out) {
    if (pos_ >= text_.size()) {
      return false;
    }
    if (text_[pos_] == '"') {
      out.kind = JsonField::Kind::String;
      return parse_string(out.text);
    }
    if (literal("true")) {
      out.kind = JsonField::Kind::Bool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.kind = JsonField::Kind::Bool;
      out.boolean = false;
      return true;
    }
    out.kind = JsonField::Kind::Integer;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out.integer = std::strtoull(
        std::string(text_.substr(start, pos_ - start)).c_str(), nullptr, 10);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// A whole token as a double (hexfloat or decimal), nothing after it.
bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

// --- journaled result fields ------------------------------------------------
// Each journaled result block declares its fields once, in one of the
// for_each_field lists below: the journal key and the member. The
// encoder (FieldWriter), the decoder (FieldReader) and same_observable
// all walk these lists, so a field added to a list is written, read and
// compared, and none of the three can fall behind. The member's type
// picks the encoding:
//   integer counters and enums  -> JSON integer
//   double and unit types       -> hexfloat string (exact round-trip)
//   std::string                 -> escaped string
//   std::vector<double>         -> comma-joined hexfloats in a string
//   the per-stack vector        -> its size; `column` comma-joins one
//                                  member of every stack
//   std::optional<block>        -> the block's fields, or none
// An optional block and a `group` are all or nothing: a decoder that
// finds any of their keys requires every one.

template <typename B, typename Block>
concept block_of = std::same_as<std::remove_const_t<B>, Block>;

/// The power-cap governor's block (present iff a governor ran).
template <block_of<cap::CapStats> C, typename F>
void for_each_field(C& c, F& f) {
  f("cap_slots", c.slots_seen);
  f("cap_capped", c.slots_capped);
  f("cap_reductions", c.level_reductions);
  f("cap_restorations", c.level_restorations);
  f("cap_violations", c.budget_violations);
  f("cap_deferred_j", c.energy_deferred);
  f("cap_deferred_s", c.time_deferred);
  f("cap_levels", c.time_at_level_s);
}

/// Per-stack totals (present iff the run's source was multi-stack).
template <block_of<stacks::StacksStats> S, typename F>
void for_each_field(S& s, F& f) {
  using stacks::StackTotals;
  f("stk_n", s.stacks);
  f("stk_dist", s.distribution);
  f.column("stk_fuel", &StackTotals::fuel_as, s.stacks);
  f.column("stk_delivered", &StackTotals::delivered_as, s.stacks);
  f.column("stk_startups", &StackTotals::startups, s.stacks);
  f.column("stk_wear", &StackTotals::wear, s.stacks);
}

/// The invariant auditor's block (present iff an auditor ran).
template <block_of<audit::AuditStats> A, typename F>
void for_each_field(A& a, F& f) {
  f("aud_mode", a.mode);
  f("aud_slots", a.slots_audited);
  f("aud_segments", a.segments_audited);
  f("aud_checks", a.checks_run);
  f("aud_violations", a.violations);
  f("aud_fuel", a.fuel_violations);
  f("aud_storage", a.storage_violations);
  f("aud_cap", a.cap_violations);
  f("aud_stacks", a.stacks_violations);
  f("aud_fallbacks", a.engine_fallbacks);
  f.group(!a.first_violation.empty(), [&] {  // once a violation was seen
    f("aud_first_slot", a.first_violation_slot);
    f("aud_first", a.first_violation);
  });
}

/// The result core, then the optional blocks. A run without a governor,
/// stacks or auditor writes no block, so its journal stays
/// byte-identical to builds that predate the block.
template <block_of<sim::SimulationResult> R, typename F>
void for_each_field(R& r, F& f) {
  f("trace", r.trace_name);
  f("dpm", r.dpm_policy);
  f("fc", r.fc_policy);
  f("fuel", r.totals.fuel);
  f("delivered_j", r.totals.delivered_energy);
  f("load_j", r.totals.load_energy);
  f("bled", r.totals.bled);
  f("unserved", r.totals.unserved);
  f("duration", r.totals.duration);
  f("slots", r.slots);
  f("sleeps", r.sleeps);
  f("latency", r.latency_added);
  f("storage_initial", r.storage_initial);
  f("storage_end", r.storage_end);
  f("storage_min", r.storage_min);
  f("storage_max", r.storage_max);
  f(r.cap);
  f(r.stacks);
  f(r.audit);
}

template <typename T>
concept integer_field = std::is_integral_v<T> || std::is_enum_v<T>;

/// The integer type an integer field is written as.
template <integer_field T>
using integer_t = typename std::conditional_t<std::is_enum_v<T>,
                                              std::underlying_type<T>,
                                              std::type_identity<T>>::type;

bool parse_list_item(std::string_view item, double& out) {
  return parse_number(std::string(item), out) && std::isfinite(out);
}
bool parse_list_item(std::string_view item, std::size_t& out) {
  const char* end = item.data() + item.size();
  const auto [stop, error] = std::from_chars(item.data(), end, out);
  return !item.empty() && error == std::errc() && stop == end;
}

/// Calls `item` on each entry of a comma-joined list; false as soon as
/// one call is.
template <typename Item>
bool for_each_item(std::string_view list, Item&& item) {
  for (std::size_t pos = 0; pos < list.size();) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    if (!item(list.substr(pos, comma - pos))) {
      return false;
    }
    pos = comma + 1;
  }
  return true;
}

/// Appends `"key":value` pairs to a JSON object under construction. In
/// `exact` mode it writes what same_observable compares instead: every
/// double as its bit pattern and every group whether or not it is set.
struct FieldWriter {
  std::string& out;
  bool exact = false;

  void put(std::string_view key, const std::string& value, bool quoted) {
    out += out.back() == '{' ? "\"" : ",\"";
    out += key;
    out += "\":";
    out += quoted ? '"' + value + '"' : value;
  }
  std::string text(double value) const {
    return exact ? to_hex(std::bit_cast<std::uint64_t>(value), 16)
                 : hex_double(value);
  }
  std::string text(std::size_t value) const { return std::to_string(value); }
  template <typename Item>
  void list(std::string_view key, std::size_t n, Item&& item) {
    std::string joined;
    for (std::size_t i = 0; i < n; ++i) {
      joined += (i == 0 ? "" : ",") + text(item(i));
    }
    put(key, joined, true);  // list items never need escaping
  }

  void operator()(std::string_view key, const std::string& value) {
    put(key, obs::json_escape(value.c_str()), true);
  }
  void operator()(std::string_view key, bool value) {
    put(key, value ? "true" : "false", false);
  }
  template <integer_field T>
  void operator()(std::string_view key, T value) {
    put(key, std::to_string(static_cast<integer_t<T>>(value)), false);
  }
  void operator()(std::string_view key, double value) {
    put(key, text(value), true);
  }
  template <typename Tag>
  void operator()(std::string_view key, detail::Quantity<Tag> value) {
    (*this)(key, value.value());
  }
  void operator()(std::string_view key, const std::vector<double>& values) {
    list(key, values.size(), [&](std::size_t i) { return values[i]; });
  }
  void operator()(std::string_view key,
                  const std::vector<stacks::StackTotals>& stacks) {
    (*this)(key, stacks.size());
  }
  template <typename M>
  void column(std::string_view key, M stacks::StackTotals::*member,
              const std::vector<stacks::StackTotals>& stacks) {
    list(key, stacks.size(), [&](std::size_t i) { return stacks[i].*member; });
  }
  template <typename B>
  void operator()(const std::optional<B>& block) {
    if (block.has_value()) {
      for_each_field(*block, *this);
    }
  }
  template <typename Body>
  void group(bool present, Body&& body) {
    if (present || exact) {
      body();
    }
  }
};

/// Range and shape checks a decoded block must pass beyond its types.
bool valid(const cap::CapStats& /*stats*/) { return true; }
bool valid(const stacks::StacksStats& stats) {
  return !stats.stacks.empty() &&
         stats.distribution <= stacks::Distribution::Health;
}
bool valid(const audit::AuditStats& stats) {
  return stats.mode <= static_cast<int>(audit::Mode::Strict);
}

/// Fills members from a parsed JSON object. A missing key is counted
/// rather than failed, so a group can tell absent from partial; a
/// present key whose value does not fit its member clears `ok`.
struct FieldReader {
  const JsonObject& object;
  std::size_t payload_bytes;  ///< bounds a decoded stack count
  bool ok = true;
  std::size_t found = 0;
  std::size_t missing = 0;

  /// The key's field if it has `kind`; counts the key found or missing.
  const JsonField* take(std::string_view key, JsonField::Kind kind) {
    const auto it =
        std::ranges::find(object, key, &JsonObject::value_type::first);
    const bool present = it != object.end();
    ++(present ? found : missing);
    ok = ok && (!present || it->second.kind == kind);
    return ok && present ? &it->second : nullptr;
  }

  void operator()(std::string_view key, std::string& value) {
    if (const JsonField* f = take(key, JsonField::Kind::String)) {
      value = f->text;
    }
  }
  void operator()(std::string_view key, bool& value) {
    if (const JsonField* f = take(key, JsonField::Kind::Bool)) {
      value = f->boolean;
    }
  }
  template <integer_field T>
  void operator()(std::string_view key, T& value) {
    using Int = integer_t<T>;
    if (const JsonField* f = take(key, JsonField::Kind::Integer)) {
      ok = f->integer <=
           static_cast<std::uint64_t>(std::numeric_limits<Int>::max());
      value = static_cast<T>(static_cast<Int>(f->integer));
    }
  }
  void operator()(std::string_view key, double& value) {
    if (const JsonField* f = take(key, JsonField::Kind::String)) {
      ok = parse_number(f->text, value);
    }
  }
  template <typename Tag>
  void operator()(std::string_view key, detail::Quantity<Tag>& value) {
    double raw = value.value();
    (*this)(key, raw);
    value = detail::Quantity<Tag>(raw);
  }
  void operator()(std::string_view key, std::vector<double>& values) {
    if (const JsonField* f = take(key, JsonField::Kind::String)) {
      ok = for_each_item(f->text, [&](std::string_view item) {
        return parse_list_item(item, values.emplace_back());
      });
    }
  }
  void operator()(std::string_view key,
                  std::vector<stacks::StackTotals>& stacks) {
    std::size_t count = 0;
    (*this)(key, count);
    // Every stack takes a byte of each column, so a count the payload
    // cannot hold is corrupt; checking first keeps the resize bounded.
    ok = ok && count <= payload_bytes;
    stacks.resize(ok ? count : 0);
  }
  template <typename M>
  void column(std::string_view key, M stacks::StackTotals::*member,
              std::vector<stacks::StackTotals>& stacks) {
    if (const JsonField* f = take(key, JsonField::Kind::String)) {
      std::size_t i = 0;
      ok = for_each_item(f->text,
                         [&](std::string_view item) {
                           return i < stacks.size() &&
                                  parse_list_item(item, stacks[i++].*member);
                         }) &&
           i == stacks.size();
    }
  }
  template <typename B>
  void operator()(std::optional<B>& block) {
    B value;
    if (group(true, [&] { for_each_field(value, *this); })) {
      ok = ok && valid(value);
      block = std::move(value);
    }
  }
  /// Reads `body` as one all-or-nothing group; true if any of its keys
  /// was found.
  template <typename Body>
  bool group(bool /*written*/, Body&& body) {
    const std::size_t outer_found = found;
    const std::size_t outer_missing = missing;
    found = 0;
    missing = 0;
    body();
    const bool present = found > 0;
    ok = ok && (!present || missing == 0);
    found += outer_found;
    missing = outer_missing;
    return present;
  }
};

/// What same_observable compares: the exact-mode encoding.
std::string observable_bytes(const sim::SimulationResult& result) {
  std::string out = "{";
  FieldWriter exact{out, true};
  for_each_field(result, exact);
  return out;
}

void hash_double(std::uint64_t& hash, double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (bits >> shift) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

void hash_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

std::string header_to_json(const JournalHeader& header) {
  std::string out = "{";
  FieldWriter json{out};
  json("fcdpm_journal", 1);
  json("trace", header.trace_name);
  json("points", header.points);
  json("fingerprint", to_hex(header.fingerprint, 16));
  return out + "}";
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw CsvError(what + ": " + path + " (" + std::strerror(errno) + ")");
}

}  // namespace

std::uint64_t grid_fingerprint(const sim::ExperimentConfig& base,
                               const std::vector<par::SweepPoint>& points,
                               std::size_t storm_faults) {
  std::uint64_t hash = fnv1a64(base.trace.name());
  hash_u64(hash, base.trace.size());
  for (const wl::TaskSlot& slot : base.trace.slots()) {
    hash_double(hash, slot.idle.value());
    hash_double(hash, slot.active.value());
    hash_double(hash, slot.active_power.value());
  }
  hash_double(hash, base.rho);
  hash_double(hash, base.sigma);
  hash_double(hash, base.initial_idle_estimate.value());
  hash_double(hash, base.initial_active_estimate.value());
  hash_double(hash, base.active_current_estimate.value());
  hash_double(hash, base.storage_capacity.value());
  hash_double(hash, base.initial_storage.value());
  if (base.cap.enabled) {
    // Hashed only when capping is on: cap-off grids keep their pre-cap
    // fingerprints, so journals written before the governor existed
    // still resume.
    hash_u64(hash, 1);
    hash_u64(hash, base.cap.hysteresis_slots);
    hash_double(hash, base.cap.storage_draw_fraction);
    hash_u64(hash, fnv1a64(base.cap.table_csv));
  }
  if (base.stacks.enabled) {
    // Same compatibility rule as the cap block: single-stack grids keep
    // their pre-stacks fingerprints.
    hash_u64(hash, 2);
    hash_u64(hash, base.stacks.count);
    hash_u64(hash, static_cast<std::uint64_t>(base.stacks.distribution));
    hash_double(hash, base.stacks.charge_fade_per_as);
    hash_double(hash, base.stacks.cycle_fade);
    hash_u64(hash, fnv1a64(base.stacks.config_csv));
  }
  if (base.audit.enabled()) {
    // Same compatibility rule again — and a resume that flips the audit
    // mode (or the tamper hook) is a different run: the replayed
    // spot-check would compare strict-mode results against journal rows
    // written without auditing, so the fingerprints must not splice.
    hash_u64(hash, 3);
    hash_u64(hash, static_cast<std::uint64_t>(base.audit.mode));
    hash_u64(hash, static_cast<std::uint64_t>(base.audit.sample_period));
    hash_u64(hash, static_cast<std::uint64_t>(base.audit.tamper_slot));
  }
  hash_u64(hash, storm_faults);
  hash_u64(hash, points.size());
  for (const par::SweepPoint& point : points) {
    hash_u64(hash, static_cast<std::uint64_t>(point.policy));
    hash_double(hash, point.rho);
    hash_double(hash, point.capacity.value());
    hash_u64(hash, point.storm_seed);
    if (point.stacks > 0) {
      hash_u64(hash, point.stacks);
      hash_u64(hash, static_cast<std::uint64_t>(point.distribution));
    }
  }
  return hash;
}

std::string record_to_json(const JournalRecord& record) {
  std::string out = "{";
  FieldWriter json{out};
  json("index", record.index);
  json("policy", record.point.policy);
  json("rho", record.point.rho);
  json("capacity", record.point.capacity);
  json("seed", record.point.storm_seed);
  if (record.point.stacks > 0) {
    // Multi-stack point coordinates, serialized only on stack points so
    // single-stack journals stay byte-identical to pre-stacks builds.
    json("stacks", record.point.stacks);
    json("dist", record.point.distribution);
  }
  json("attempts", record.attempts);
  json("ok", record.ok);
  if (record.ok) {
    for_each_field(record.result, json);
  } else {
    json("error_kind", std::string(to_string(record.error.kind)));
    json("error_detail", record.error.detail);
  }
  return out + "}";
}

bool same_observable(const sim::SimulationResult& a,
                     const sim::SimulationResult& b) {
  return observable_bytes(a) == observable_bytes(b);
}

namespace {

bool record_from_json(std::string_view payload, JournalRecord& record) {
  JsonObject object;
  if (!FlatJsonParser(payload).parse(object)) {
    return false;
  }
  FieldReader json{object, payload.size()};
  json("index", record.index);
  json("policy", record.point.policy);
  json("rho", record.point.rho);
  json("capacity", record.point.capacity);
  json("seed", record.point.storm_seed);
  // Multi-stack point coordinates: absent on single-stack points.
  const bool stack_point = json.group(true, [&] {
    json("stacks", record.point.stacks);
    json("dist", record.point.distribution);
  });
  json("attempts", record.attempts);
  json("ok", record.ok);
  std::string kind;
  if (record.ok) {
    for_each_field(record.result, json);
  } else {
    json("error_kind", kind);
    json("error_detail", record.error.detail);
  }
  if (!json.ok || json.missing > 0 ||
      record.point.policy > sim::PolicyKind::Oracle ||
      (stack_point && record.point.stacks == 0) ||
      record.point.distribution > stacks::Distribution::Health) {
    return false;
  }
  if (record.ok) {
    return true;
  }
  for (const PointErrorKind candidate :
       {PointErrorKind::solver_diverged, PointErrorKind::non_finite_result,
        PointErrorKind::deadline_exceeded, PointErrorKind::contract_violation,
        PointErrorKind::io_error, PointErrorKind::power_undeliverable}) {
    if (kind == to_string(candidate)) {
      record.error.kind = candidate;
      return true;
    }
  }
  return false;
}

bool header_from_json(std::string_view line, JournalHeader& header) {
  JsonObject object;
  if (!FlatJsonParser(line).parse(object)) {
    return false;
  }
  FieldReader json{object, line.size()};
  int version = 0;
  std::string fingerprint;
  json("fcdpm_journal", version);
  json("trace", header.trace_name);
  json("points", header.points);
  json("fingerprint", fingerprint);
  return json.ok && json.missing == 0 && version == 1 &&
         parse_hex(fingerprint, header.fingerprint);
}

}  // namespace

// --- writer -----------------------------------------------------------------

Journal::Journal(std::string path, int fd)
    : path_(std::move(path)), fd_(fd),
      mutex_(std::make_unique<std::mutex>()) {}

Journal Journal::create(const std::string& path,
                        const JournalHeader& header) {
  // Header via temp + atomic rename: the journal appears complete or
  // not at all, never half-written.
  write_file_atomic(path, header_to_json(header) + "\n");
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    fail("cannot open journal for append", path);
  }
  return Journal(path, fd);
}

Journal Journal::open_for_append(const std::string& path,
                                 std::size_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    fail("cannot open journal for append", path);
  }
  // Physically drop a torn tail before new records go after it.
  if (::ftruncate(fd, static_cast<::off_t>(valid_bytes)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    fail("cannot truncate journal tail", path);
  }
  return Journal(path, fd);
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_),
      mutex_(std::move(other.mutex_)) {
  other.fd_ = -1;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    mutex_ = std::move(other.mutex_);
    other.fd_ = -1;
  }
  return *this;
}

Journal::~Journal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Journal::write_all(const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail("cannot append journal record", path_);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    fail("cannot fsync journal", path_);
  }
}

void Journal::append(std::span<const JournalRecord> records) {
  if (records.empty()) {
    return;
  }
  std::string group;
  for (const JournalRecord& record : records) {
    const std::string payload = record_to_json(record);
    group += "R ";
    group += to_hex(payload.size(), kLenDigits);
    group += ' ';
    group += to_hex(fnv1a64(payload), kSumDigits);
    group += ' ';
    group += payload;
    group += '\n';
  }
  const std::lock_guard lock(*mutex_);
  write_all(group);
}

void Journal::append(const JournalRecord& record) {
  append(std::span<const JournalRecord>(&record, 1));
}

// --- loader -----------------------------------------------------------------

JournalLoad load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CsvError("cannot open journal: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  const std::size_t header_end = bytes.find('\n');
  JournalLoad load;
  if (header_end == std::string::npos ||
      !header_from_json(std::string_view(bytes).substr(0, header_end),
                        load.header)) {
    // No committed header means the journal never existed as a valid
    // file (creation is atomic) — this is corruption, not a torn tail.
    throw CsvError("journal missing or invalid header: " + path);
  }

  std::size_t pos = header_end + 1;
  std::vector<bool> seen;
  while (pos < bytes.size()) {
    const std::string_view rest = std::string_view(bytes).substr(pos);
    if (rest.size() < kPrefixBytes || rest[0] != 'R' || rest[1] != ' ' ||
        rest[2 + kLenDigits] != ' ' ||
        rest[2 + kLenDigits + 1 + kSumDigits] != ' ') {
      break;  // torn or foreign tail
    }
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
    if (!parse_hex(rest.substr(2, kLenDigits), length) ||
        !parse_hex(rest.substr(2 + kLenDigits + 1, kSumDigits), checksum)) {
      break;
    }
    if (rest.size() < kPrefixBytes + length + 1) {
      break;  // record cut short
    }
    const std::string_view payload = rest.substr(kPrefixBytes, length);
    if (rest[kPrefixBytes + length] != '\n' ||
        fnv1a64(payload) != checksum) {
      break;  // missing terminator or bit rot
    }
    JournalRecord record;
    if (!record_from_json(payload, record)) {
      break;
    }
    // First record for an index wins (a resumed resume can only append
    // identical data, but stay deterministic regardless).
    if (record.index >= seen.size()) {
      seen.resize(record.index + 1, false);
    }
    if (!seen[record.index]) {
      seen[record.index] = true;
      load.records.push_back(std::move(record));
    }
    pos += kPrefixBytes + length + 1;
  }
  load.valid_bytes = pos;
  load.dropped_bytes = bytes.size() - pos;
  load.torn_tail = load.dropped_bytes > 0;
  return load;
}

}  // namespace fcdpm::resilience
