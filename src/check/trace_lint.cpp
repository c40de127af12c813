#include "check/trace_lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parse_number.h"
#include "common/types.h"
#include "sim/trace.h"

namespace cmcp::check {

namespace {

// --- minimal JSON field extraction -----------------------------------------
// The exporter writes flat one-line objects with unescaped keys and numeric
// or simple-string values, so targeted field lookups are sufficient (and
// keep the linter free of a JSON dependency the container may not have).

/// The run of decimal digits starting at `text[begin]` (empty when none).
std::string_view digit_run(std::string_view text, std::size_t begin) {
  std::size_t end = begin;
  while (end < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[end])) != 0)
    ++end;
  return text.substr(begin, end - begin);
}

/// The first numeric field value of `text` that does not fit in 64 bits.
/// Lines carrying one are rejected whole, so find_uint never truncates.
std::optional<std::string_view> oversized_number(std::string_view text) {
  for (std::size_t pos = text.find("\":"); pos != std::string_view::npos;
       pos = text.find("\":", pos + 2)) {
    const std::string_view digits = digit_run(text, pos + 2);
    if (!digits.empty() && !common::parse_number<std::uint64_t>(digits))
      return digits;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> find_uint(std::string_view text,
                                       std::string_view key) {
  const std::string needle = '"' + std::string(key) + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string_view digits = digit_run(text, pos + needle.size());
  if (digits.empty()) return std::nullopt;
  return common::parse_number<std::uint64_t>(digits);
}

std::optional<std::string_view> find_string(std::string_view text,
                                            std::string_view key) {
  const std::string needle = '"' + std::string(key) + "\":\"";
  const std::size_t pos = text.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::size_t begin = pos + needle.size();
  const std::size_t end = text.find('"', begin);
  if (end == std::string_view::npos) return std::nullopt;
  return text.substr(begin, end - begin);
}

/// Protocol residency as reconstructible from the event stream. Units that
/// never appear (preloaded, never-faulted) stay kUnknown.
enum class Residency : std::uint8_t { kUnknown = 0, kResident, kEvicted };

struct UnitState {
  Residency residency = Residency::kUnknown;
  /// A host->device transfer of this unit has been seen and not yet
  /// consumed by a major fault (fault/resolve pairing).
  bool fetch_pending = false;
};

/// Unit indices are address-space-local, so all protocol state is keyed by
/// (asid, unit). Single-tenant traces omit the asid field and everything
/// lands on asid 0 — exactly the pre-multi-tenant behavior. Unit indices
/// stay far below 2^48, so packing is collision-free.
constexpr std::uint64_t kNoPick = ~0ULL;
std::uint64_t unit_key(std::uint64_t asid, std::uint64_t unit) {
  return (asid << 48) | unit;
}
std::uint64_t key_unit(std::uint64_t key) { return key & ((1ULL << 48) - 1); }
std::uint64_t key_asid(std::uint64_t key) { return key >> 48; }

struct CoreState {
  std::uint64_t last_pick = kNoPick;  ///< victim_pick awaiting its eviction
  std::unordered_set<std::uint64_t> shot_since_pick;
  std::unordered_set<std::uint64_t> writeback_since_pick;
  /// The address space this core faults for, learned from its first fault.
  std::uint64_t bound_asid = 0;
  bool has_bound_asid = false;
};

class Linter {
 public:
  explicit Linter(LintResult& result) : result_(result) {}

  void line(std::size_t number, std::string_view text) {
    ++result_.lines;
    if (text.empty()) return;
    const auto type = find_string(text, "type");
    if (!type) {
      issue(number, "parse-error", "line has no \"type\" field");
      return;
    }
    if (const auto oversized = oversized_number(text)) {
      issue(number, "parse-error",
            "number " + std::string(*oversized) + " does not fit in 64 bits");
      return;
    }
    if (saw_summary_)
      issue(number, "trailing-line", "content after the summary footer");
    if (*type == "meta") {
      if (number != 1)
        issue(number, "missing-meta", "meta line must be the first line");
      saw_meta_ = true;
      // Multi-tenant traces declare their space count; absent means 1.
      if (const auto spaces = find_uint(text, "spaces")) spaces_ = *spaces;
      // Fault-injected traces declare their retry budget (a quoted config
      // string); absent means the FaultPlanConfig default.
      if (const auto retries = find_string(text, "fault_max_retries")) {
        const auto value = common::parse_number<std::uint64_t>(*retries);
        if (!value)
          return issue(number, "parse-error",
                       "fault_max_retries \"" + std::string(*retries) +
                           "\" is not a 64-bit unsigned number");
        max_retries_ = *value;
      }
      return;
    }
    if (*type == "summary") {
      summary(number, text);
      return;
    }
    if (*type == "event") {
      if (!saw_meta_ && !complained_meta_) {
        issue(number, "missing-meta", "events before any meta header");
        complained_meta_ = true;
      }
      event(number, text);
      return;
    }
    issue(number, "parse-error",
          "unknown line type \"" + std::string(*type) + '"');
  }

  void finish(std::size_t last_line) {
    if (!saw_meta_ && !complained_meta_ && result_.lines > 0)
      issue(1, "missing-meta", "trace has no meta header");
    if (!saw_summary_ && result_.lines > 0)
      issue(last_line, "missing-summary", "trace has no summary footer");
  }

 private:
  void issue(std::size_t line, std::string rule, std::string message) {
    result_.issues.push_back({line, std::move(rule), std::move(message)});
  }

  CoreState& core_state(std::uint64_t core) { return cores_[core]; }

  void event(std::size_t number, std::string_view text) {
    ++result_.events;
    // Top-level fields live before "args"; unit and the kind-specific
    // payload after it. Splitting first keeps the lookups unambiguous
    // (pcie/slot events repeat "core" inside args).
    const std::size_t args_pos = text.find("\"args\":");
    const std::string_view head =
        args_pos == std::string_view::npos ? text : text.substr(0, args_pos);
    const std::string_view args =
        args_pos == std::string_view::npos ? std::string_view{}
                                           : text.substr(args_pos);

    const auto kind = find_string(head, "kind");
    const auto core = find_uint(head, "core");
    const auto ts = find_uint(head, "ts");
    const auto dur = find_uint(head, "dur");
    if (!kind || !core || !ts || !dur) {
      issue(number, "parse-error", "event line missing kind/core/ts/dur");
      return;
    }
    ++by_kind_[std::string(*kind)];
    const auto unit = find_uint(args, "unit");
    const auto asid_field = find_uint(args, "asid");
    const std::uint64_t asid = asid_field.value_or(0);
    if (asid_field && *asid_field >= spaces_)
      issue(number, "asid-out-of-range",
            "event carries asid " + std::to_string(*asid_field) +
                " but the meta header declares " + std::to_string(spaces_) +
                " spaces");

    if (*kind == "minor_fault") {
      fault_ts(number, *core, asid, *ts);
      if (!unit) return issue(number, "parse-error", "minor_fault without unit");
      fill_asid(number, *core, asid);
      UnitState& st = units_[unit_key(asid, *unit)];
      if (st.residency == Residency::kEvicted)
        issue(number, "use-after-evict",
              "minor fault on unit " + std::to_string(*unit) +
                  " after its eviction (no refetch in between)");
      st.residency = Residency::kResident;
    } else if (*kind == "major_fault") {
      fault_ts(number, *core, asid, *ts);
      if (!unit) return issue(number, "parse-error", "major_fault without unit");
      fill_asid(number, *core, asid);
      UnitState& st = units_[unit_key(asid, *unit)];
      if (!st.fetch_pending)
        issue(number, "major-fault-without-transfer",
              "major fault on unit " + std::to_string(*unit) +
                  " with no host->device transfer to resolve it");
      st.fetch_pending = false;
      st.residency = Residency::kResident;
    } else if (*kind == "victim_pick") {
      if (!unit) return issue(number, "parse-error", "victim_pick without unit");
      CoreState& cs = core_state(*core);
      cs.last_pick = unit_key(asid, *unit);
      cs.shot_since_pick.clear();
      cs.writeback_since_pick.clear();
    } else if (*kind == "shootdown") {
      // Scanner batches carry no unit; per-unit eviction shootdowns do.
      if (unit) core_state(*core).shot_since_pick.insert(unit_key(asid, *unit));
    } else if (*kind == "pcie_transfer") {
      const auto dir = find_uint(args, "dir");
      if (!dir) return issue(number, "parse-error", "pcie_transfer without dir");
      if (!unit) return;  // not a page transfer: nothing to track
      if (*dir == 0) {    // host->device: a fetch
        UnitState& st = units_[unit_key(asid, *unit)];
        if (st.residency == Residency::kResident)
          issue(number, "refetch-while-resident",
                "host->device transfer of unit " + std::to_string(*unit) +
                    " which is already resident");
        st.residency = Residency::kResident;
        st.fetch_pending = true;
      } else {  // device->host: a write-back
        core_state(*core).writeback_since_pick.insert(unit_key(asid, *unit));
      }
    } else if (*kind == "eviction") {
      eviction(number, *core, unit, asid_field, args);
    } else if (*kind == "scan_pass") {
      // Scanner passes are stamped with the pseudo-core's tick time, so
      // they join the per-(asid, core) monotonicity watermark.
      fault_ts(number, *core, asid, *ts);
      // One scanner per address space; passes of DIFFERENT spaces may
      // overlap in global time, so the no-overlap invariant is per space.
      Cycles& scan_end = scan_end_[asid];
      if (*ts < scan_end)
        issue(number, "scan-overlap",
              "scan pass starts at " + std::to_string(*ts) +
                  " before the previous pass ended at " +
                  std::to_string(scan_end));
      scan_end = *ts + *dur;
    } else if (*kind == "slot_hold") {
      if (*ts < slot_end_)
        issue(number, "slot-overlap",
              "invalidation slot held from " + std::to_string(*ts) +
                  " while the previous hold ran to " +
                  std::to_string(slot_end_));
      slot_end_ = *ts + *dur;
    } else if (*kind == "barrier_wait") {
      fault_ts(number, *core, asid, *ts);
    } else if (*kind == "fault_inject") {
      const auto fault = find_uint(args, "fault");
      if (!fault)
        return issue(number, "parse-error", "fault_inject without fault kind");
      ++pending_faults_[fault_key(*core, *fault)];
      // An ECC inject names the poisoned frame in its detail arg; poison
      // surfacing on an already-retired frame means data was (re)filled
      // into a quarantined frame.
      if (*fault == 3) {  // FaultKind::kEccPoison
        const auto pfn = find_uint(args, "detail");
        if (pfn && quarantined_pfns_.count(*pfn) != 0)
          issue(number, "fill-from-quarantined-frame",
                "ECC poison surfaces on frame " + std::to_string(*pfn) +
                    " which is already quarantined");
      }
    } else if (*kind == "fault_retry") {
      const auto fault = find_uint(args, "fault");
      if (!fault)
        return issue(number, "parse-error", "fault_retry without fault kind");
      std::uint64_t& pending = pending_faults_[fault_key(*core, *fault)];
      if (pending == 0)
        issue(number, "retry-without-failure",
              "core " + std::to_string(*core) + " retries fault kind " +
                  std::to_string(*fault) + " with no injected failure pending");
      else
        --pending;
    } else if (*kind == "fault_give_up") {
      const auto fault = find_uint(args, "fault");
      const auto attempts = find_uint(args, "attempts");
      if (!fault || !attempts)
        return issue(number, "parse-error",
                     "fault_give_up without fault/attempts");
      std::uint64_t& pending = pending_faults_[fault_key(*core, *fault)];
      if (pending == 0)
        issue(number, "retry-without-failure",
              "core " + std::to_string(*core) + " gives up on fault kind " +
                  std::to_string(*fault) + " with no injected failure pending");
      else
        --pending;
      // Recovery is bounded retry: giving up EARLY abandons an operation the
      // protocol still owed retries.
      if (*attempts < max_retries_)
        issue(number, "give-up-without-max-retries",
              "give-up after " + std::to_string(*attempts) +
                  " attempts but the declared retry budget is " +
                  std::to_string(max_retries_));
    } else if (*kind == "quarantine") {
      const auto pfn = find_uint(args, "pfn");
      if (!pfn) return issue(number, "parse-error", "quarantine without pfn");
      if (!quarantined_pfns_.insert(*pfn).second)
        issue(number, "fill-from-quarantined-frame",
              "frame " + std::to_string(*pfn) +
                  " quarantined twice — it must have been handed out again");
    } else {
      issue(number, "parse-error",
            "unknown event kind \"" + std::string(*kind) + '"');
    }
  }

  void eviction(std::size_t number, std::uint64_t core,
                std::optional<std::uint64_t> unit,
                std::optional<std::uint64_t> asid_field,
                std::string_view args) {
    if (!unit) return issue(number, "parse-error", "eviction without unit");
    const auto dirty = find_uint(args, "dirty");
    const auto targets = find_uint(args, "targets");
    const auto wb_bytes = find_uint(args, "writeback_bytes");
    if (!dirty || !targets || !wb_bytes)
      return issue(number, "parse-error",
                   "eviction missing dirty/targets/writeback_bytes");
    // In a multi-tenant trace the unit index alone is ambiguous: the victim's
    // asid is what lets anyone attribute the eviction (QoS eviction runs on
    // a core of a DIFFERENT space, so the core id is no substitute).
    if (spaces_ > 1 && !asid_field)
      issue(number, "eviction-missing-asid",
            "multi-tenant eviction of unit " + std::to_string(*unit) +
                " does not carry the victim's asid");
    const std::uint64_t asid = asid_field.value_or(0);

    UnitState& st = units_[unit_key(asid, *unit)];
    if (st.residency == Residency::kEvicted)
      issue(number, "double-evict",
            "unit " + std::to_string(*unit) +
                " evicted again without becoming resident (frame double-free)");
    else if (st.residency == Residency::kUnknown)
      issue(number, "evict-nonresident",
            "eviction of unit " + std::to_string(*unit) +
                " that the trace never saw become resident");
    st.residency = Residency::kEvicted;
    st.fetch_pending = false;

    CoreState& cs = core_state(core);
    if (cs.last_pick != unit_key(asid, *unit))
      issue(number, "eviction-without-pick",
            "eviction of unit " + std::to_string(*unit) + " on core " +
                std::to_string(core) +
                (cs.last_pick == kNoPick
                     ? std::string(" with no pending victim_pick")
                     : " but the pending victim_pick chose unit " +
                           std::to_string(key_unit(cs.last_pick)) +
                           " of asid " + std::to_string(key_asid(cs.last_pick))));
    cs.last_pick = kNoPick;

    // targets counts every mapping core including the initiator; a remote
    // shootdown event is mandatory once anyone else maps the unit. With a
    // single mapper the sole PTE may belong to the initiator, whose INVLPG
    // is local and emits nothing.
    if (*targets >= 2 && cs.shot_since_pick.count(unit_key(asid, *unit)) == 0)
      issue(number, "eviction-without-shootdown",
            "unit " + std::to_string(*unit) + " was mapped by " +
                std::to_string(*targets) +
                " cores but no shootdown of it precedes the eviction");

    if (*dirty != 0) {
      if (*wb_bytes == 0)
        issue(number, "writeback-mismatch",
              "dirty eviction of unit " + std::to_string(*unit) +
                  " reports zero writeback bytes");
      if (cs.writeback_since_pick.count(unit_key(asid, *unit)) == 0)
        issue(number, "writeback-mismatch",
              "dirty eviction of unit " + std::to_string(*unit) +
                  " has no device->host transfer preceding it");
    } else if (*wb_bytes != 0) {
      issue(number, "writeback-mismatch",
            "clean eviction of unit " + std::to_string(*unit) +
                " reports " + std::to_string(*wb_bytes) + " writeback bytes");
    }
  }

  /// No cross-asid TLB fill: every core faults for exactly one address
  /// space (its own); the binding is learned from the core's first fault.
  /// Evictions and picks are exempt — QoS eviction legitimately evicts a
  /// NEIGHBOR's unit from a core of the faulting space.
  void fill_asid(std::size_t number, std::uint64_t core, std::uint64_t asid) {
    CoreState& cs = core_state(core);
    if (!cs.has_bound_asid) {
      cs.bound_asid = asid;
      cs.has_bound_asid = true;
      return;
    }
    if (cs.bound_asid != asid)
      issue(number, "cross-asid-fill",
            "core " + std::to_string(core) + " fills a translation for asid " +
                std::to_string(asid) + " but belongs to asid " +
                std::to_string(cs.bound_asid));
  }

  /// Per-(asid, core) monotonicity over the kinds stamped with the emitting
  /// core's own clock at emission time: faults, barrier waits and scanner
  /// passes. A reordered stream here would mean the engine (or a batching
  /// exporter) merged events out of virtual-time order.
  /// Evictions/picks/shootdowns are stamped mid-access and legitimately
  /// interleave out of timestamp order with the enclosing fault event, so
  /// they are excluded.
  void fault_ts(std::size_t number, std::uint64_t core, std::uint64_t asid,
                Cycles ts) {
    const std::uint64_t key = unit_key(asid, core);
    const auto it = ts_watermark_.find(key);
    if (it != ts_watermark_.end() && ts < it->second) {
      issue(number, "core-time-regression",
            "core " + std::to_string(core) + " (asid " + std::to_string(asid) +
                ") timestamp " + std::to_string(ts) +
                " precedes earlier event at " + std::to_string(it->second));
      it->second = ts;
      return;
    }
    ts_watermark_[key] = ts;
  }

  void summary(std::size_t number, std::string_view text) {
    saw_summary_ = true;
    const auto total = find_uint(text, "events");
    if (!total) {
      issue(number, "parse-error", "summary without \"events\" count");
    } else if (*total != result_.events) {
      issue(number, "summary-count-mismatch",
            "summary claims " + std::to_string(*total) + " events but " +
                std::to_string(result_.events) + " event lines precede it");
    }
    // by_kind cross-check: every kind we counted must appear with the same
    // count (kinds with zero occurrences are omitted by the exporter).
    // Sorted so mismatch issues come out in a stable order regardless of
    // hash-table layout (docs/invariants.md: iteration order is result).
    std::vector<std::string_view> kinds;
    kinds.reserve(by_kind_.size());
    // cmcp-lint: allow(unordered-iteration) — collect-then-sort: the walk
    // only gathers keys, and the sort below erases the hash order.
    for (const auto& [kind, count] : by_kind_) kinds.push_back(kind);
    std::sort(kinds.begin(), kinds.end());
    for (const std::string_view kind : kinds) {
      const std::uint64_t count = by_kind_.find(std::string(kind))->second;
      const auto claimed = find_uint(text, kind);
      if (!claimed || *claimed != count)
        issue(number, "summary-count-mismatch",
              "summary by_kind." + std::string(kind) + " = " +
                  (claimed ? std::to_string(*claimed) : std::string("absent")) +
                  " but the stream has " + std::to_string(count));
    }
  }

  /// Key for the per-(core, fault-kind) pending-failure ledger.
  static std::uint64_t fault_key(std::uint64_t core, std::uint64_t fault) {
    return (core << 3) | fault;
  }

  LintResult& result_;
  std::unordered_map<std::uint64_t, UnitState> units_;  ///< by (asid, unit)
  std::unordered_map<std::uint64_t, CoreState> cores_;
  /// Injected failures not yet consumed by a retry/give-up, per
  /// (core, fault kind).
  std::unordered_map<std::uint64_t, std::uint64_t> pending_faults_;
  std::unordered_set<std::uint64_t> quarantined_pfns_;
  std::uint64_t max_retries_ = 6;  ///< meta "fault_max_retries"; default 6
  std::unordered_map<std::string, std::uint64_t> by_kind_;
  std::uint64_t spaces_ = 1;  ///< meta "spaces" field; 1 = single-tenant
  std::unordered_map<std::uint64_t, Cycles> scan_end_;  ///< by asid
  /// fault/barrier/scan timestamp watermark, by (asid, core).
  std::unordered_map<std::uint64_t, Cycles> ts_watermark_;
  Cycles slot_end_ = 0;
  bool saw_meta_ = false;
  bool complained_meta_ = false;
  bool saw_summary_ = false;
};

}  // namespace

LintResult lint_jsonl_trace(std::istream& in) {
  LintResult result;
  Linter linter(result);
  std::string line;
  std::size_t number = 0;
  while (std::getline(in, line)) linter.line(++number, line);
  linter.finish(number);
  return result;
}

LintResult lint_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    LintResult result;
    result.issues.push_back({0, "io-error", "cannot open " + path});
    return result;
  }
  return lint_jsonl_trace(in);
}

}  // namespace cmcp::check
