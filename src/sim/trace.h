// sim::trace — structured event tracing for the virtual-time engine.
//
// Every cycle the paper accounts for (faults, victim picks, evictions, TLB
// shootdowns, PCIe queueing, scanner passes, barriers) can be recorded as a
// timestamped event and replayed as a timeline: one track per core plus
// tracks for the PCIe link directions and the serialized invalidation slot.
//
// Tracing is off by default and must not perturb the hot path: emitting
// classes hold a `trace::EventSink*` that is null when disabled, and every
// emit point is a single pointer test away from a no-op. Events are plain
// PODs appended to a flat vector (allocation amortized, no per-event heap
// traffic), so an enabled trace changes no virtual-time outcome either —
// identical configuration still gives byte-identical traces.
//
// Two exporters ship with the sink:
//   * Chrome/Perfetto trace-event JSON (open in https://ui.perfetto.dev or
//     chrome://tracing); timestamps are virtual cycles, shown as "us".
//   * JSONL — one self-describing JSON object per line (meta header, one
//     line per event, summary footer) for scripts.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace cmcp::sim::trace {

enum class EventKind : std::uint8_t {
  kMinorFault = 0,   ///< PSPT PTE copy / preload or prefetch first touch
  kMajorFault,       ///< host -> device data movement fault
  kVictimPick,       ///< replacement policy chose an eviction victim
  kEviction,         ///< unmap + shootdown + (dirty) write-back
  kShootdown,        ///< remote TLB invalidation round (initiator view)
  kSlotHold,         ///< invalidation-request slot occupancy
  kPcieTransfer,     ///< one queued transfer on the PCIe link
  kScanPass,         ///< one access-bit scanner sweep
  kBarrierWait,      ///< core idle at a workload barrier
  // Fault-injection protocol (sim/fault_plan.h). Appended after the schema-1
  // kinds: a run with faults disabled emits none of them, and the JSONL
  // summary omits zero-count kinds, so no-fault traces stay byte-identical.
  kFaultInject,      ///< one injected fault (kind-specific payload)
  kFaultRetry,       ///< bounded retry after a failure, with backoff
  kFaultGiveUp,      ///< retry budget exhausted; fallback path taken
  kQuarantine,       ///< poisoned frame retired from the allocator
};

inline constexpr unsigned kNumEventKinds = 13;

std::string_view to_string(EventKind kind);

/// Names of the a/b/c payload fields per kind ("" = unused).
std::array<std::string_view, 3> arg_names(EventKind kind);

/// One timed event. `start` and `duration` are virtual cycles; `core` is the
/// emitting core (the scanner pseudo-core for scan passes). `unit` is the
/// mapping unit involved or kInvalidUnit. The a/b/c payload fields are
/// kind-specific — see arg_names() and docs/observability.md. `asid` is the
/// address space the event belongs to; it stays 0 (and is never serialized)
/// in single-tenant runs, so their traces are byte-identical to schema 1.
/// It is deliberately the LAST member: existing positional brace-inits keep
/// compiling and default it to 0.
struct Event {
  EventKind kind;
  CoreId core;
  Cycles start;
  Cycles duration;
  UnitIdx unit;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  Asid asid = 0;
};

/// Flat, append-only event buffer. A null `EventSink*` is the disabled
/// ("null sink") state: emit points guard on the pointer and cost one
/// predictable branch. A sink belongs to one run: its engine emits and the
/// exporters read, on the same host thread.
class EventSink {
 public:
  EventSink() { events_.reserve(kInitialCapacity); }

  void emit(const Event& event) { events_.push_back(event); }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Number of application cores, set by the simulation when the sink is
  /// attached; fixes the track layout (scanner/PCIe/slot tracks follow).
  void set_num_app_cores(unsigned n) { num_app_cores_ = n; }
  unsigned num_app_cores() const { return num_app_cores_; }

  /// Number of address spaces sharing the machine. Each space owns one
  /// scanner pseudo-core (id == num_app_cores + asid), so the scanner-track
  /// block widens with it. Defaults to 1 — the single-tenant layout, whose
  /// serialized form is unchanged from schema 1.
  void set_num_spaces(unsigned n) { num_spaces_ = n == 0 ? 1 : n; }
  unsigned num_spaces() const { return num_spaces_; }

  // Track ids used by the exporters. Scanner tracks occupy
  // [num_app_cores, num_app_cores + num_spaces); PCIe/slot tracks follow.
  unsigned scanner_track(unsigned asid = 0) const { return num_app_cores_ + asid; }
  unsigned pcie_h2d_track() const { return num_app_cores_ + num_spaces_ + 0; }
  unsigned pcie_d2h_track() const { return num_app_cores_ + num_spaces_ + 1; }
  unsigned slot_track() const { return num_app_cores_ + num_spaces_ + 2; }

 private:
  static constexpr std::size_t kInitialCapacity = 4096;
  std::vector<Event> events_;
  /// Set once when the sink is attached, before any emitter runs.
  unsigned num_app_cores_ = 0;
  unsigned num_spaces_ = 1;
};

/// Trace/metadata header entries: ordered (name, value) string pairs
/// (metrics::RunSpec::describe() produces these).
using Metadata = std::vector<std::pair<std::string, std::string>>;

/// End-of-run aggregate counters for the JSONL summary footer.
using Summary = std::vector<std::pair<std::string, std::uint64_t>>;

enum class Format : std::uint8_t {
  kPerfetto = 0,  ///< Chrome trace-event JSON
  kJsonl = 1,     ///< line-delimited JSON (meta, events, summary)
};

std::string_view to_string(Format format);

/// Parse "perfetto" / "jsonl"; returns false on anything else.
bool parse_format(std::string_view text, Format* out);

/// Chrome/Perfetto trace-event JSON: {"traceEvents": [...], "metadata": ...}
/// with thread-name metadata records naming every track.
void export_perfetto(const EventSink& sink, const Metadata& meta,
                     std::ostream& os);

/// JSONL: meta header line, one line per event (named payload fields),
/// summary footer (per-kind event counts plus caller-provided counters).
void export_jsonl(const EventSink& sink, const Metadata& meta,
                  const Summary& summary, std::ostream& os);

/// Export to `path` in `format`, creating parent directories as needed.
void write_trace_file(const EventSink& sink, const Metadata& meta,
                      const Summary& summary, Format format,
                      const std::string& path);

}  // namespace cmcp::sim::trace
