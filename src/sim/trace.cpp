#include "sim/trace.h"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "common/assert.h"
#include "common/json_escape.h"

namespace cmcp::sim::trace {

namespace {

/// Exporter track for an event: PCIe transfers and slot holds live on their
/// dedicated tracks, everything else on the emitting core's track (the
/// scanner pseudo-core id already equals scanner_track()).
unsigned track_of(const EventSink& sink, const Event& event) {
  switch (event.kind) {
    case EventKind::kPcieTransfer:
      return event.a == 0 ? sink.pcie_h2d_track() : sink.pcie_d2h_track();
    case EventKind::kSlotHold:
      return sink.slot_track();
    default:
      return event.core;
  }
}

std::string track_name(const EventSink& sink, unsigned track) {
  if (track < sink.num_app_cores()) return "core " + std::to_string(track);
  if (track >= sink.scanner_track(0) &&
      track < sink.scanner_track(0) + sink.num_spaces()) {
    // One scanner pseudo-core per address space; the single-tenant name is
    // unchanged so schema-1 traces stay byte-identical.
    if (sink.num_spaces() == 1) return "scanner";
    return "scanner asid " + std::to_string(track - sink.scanner_track(0));
  }
  if (track == sink.pcie_h2d_track()) return "pcie host->device";
  if (track == sink.pcie_d2h_track()) return "pcie device->host";
  if (track == sink.slot_track()) return "invalidation slot";
  return "track " + std::to_string(track);
}

void append_args(std::string& out, const Event& event, bool include_asid) {
  const auto names = arg_names(event.kind);
  const std::uint64_t values[3] = {event.a, event.b, event.c};
  out += '{';
  bool first = true;
  if (event.unit != kInvalidUnit) {
    out += "\"unit\":" + std::to_string(event.unit);
    first = false;
  }
  for (int i = 0; i < 3; ++i) {
    if (names[i].empty()) continue;
    if (!first) out += ',';
    first = false;
    out += json_quoted(names[i]) + ':' + std::to_string(values[i]);
  }
  // kSlotHold/kPcieTransfer render off their home core; keep it recoverable.
  if (event.kind == EventKind::kPcieTransfer || event.kind == EventKind::kSlotHold) {
    if (!first) out += ',';
    first = false;
    out += "\"core\":" + std::to_string(event.core);
  }
  // Tenant identity, serialized only for multi-tenant sinks so single-tenant
  // traces remain byte-identical to schema 1.
  if (include_asid) {
    if (!first) out += ',';
    out += "\"asid\":" + std::to_string(event.asid);
  }
  out += '}';
}

}  // namespace

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kMinorFault: return "minor_fault";
    case EventKind::kMajorFault: return "major_fault";
    case EventKind::kVictimPick: return "victim_pick";
    case EventKind::kEviction: return "eviction";
    case EventKind::kShootdown: return "shootdown";
    case EventKind::kSlotHold: return "slot_hold";
    case EventKind::kPcieTransfer: return "pcie_transfer";
    case EventKind::kScanPass: return "scan_pass";
    case EventKind::kBarrierWait: return "barrier_wait";
    case EventKind::kFaultInject: return "fault_inject";
    case EventKind::kFaultRetry: return "fault_retry";
    case EventKind::kFaultGiveUp: return "fault_give_up";
    case EventKind::kQuarantine: return "quarantine";
  }
  return "?";
}

std::array<std::string_view, 3> arg_names(EventKind kind) {
  switch (kind) {
    case EventKind::kMinorFault: return {"core_map_count", "prefetch_hit", ""};
    case EventKind::kMajorFault: return {"evicted", "pcie_wait", ""};
    case EventKind::kVictimPick: return {"core_map_count", "", ""};
    case EventKind::kEviction: return {"dirty", "targets", "writeback_bytes"};
    case EventKind::kShootdown: return {"targets", "units", "slot_wait"};
    case EventKind::kSlotHold: return {"targets", "", ""};
    case EventKind::kPcieTransfer: return {"dir", "bytes", "queue_wait"};
    case EventKind::kScanPass: return {"pages", "cleared", "flush_rounds"};
    case EventKind::kBarrierWait: return {"", "", ""};
    // "fault" is a sim::FaultKind ordinal; "detail" is the poisoned pfn for
    // ECC injects and the cost multiplier for straggler windows.
    case EventKind::kFaultInject: return {"fault", "attempt", "detail"};
    case EventKind::kFaultRetry: return {"fault", "attempt", "backoff"};
    case EventKind::kFaultGiveUp: return {"fault", "attempts", ""};
    case EventKind::kQuarantine: return {"pfn", "usable_capacity", ""};
  }
  return {"", "", ""};
}

std::string_view to_string(Format format) {
  return format == Format::kPerfetto ? "perfetto" : "jsonl";
}

bool parse_format(std::string_view text, Format* out) {
  if (text == "perfetto") {
    *out = Format::kPerfetto;
    return true;
  }
  if (text == "jsonl") {
    *out = Format::kJsonl;
    return true;
  }
  return false;
}

namespace {

/// Exporters serialize into this buffer and flush it to the stream in large
/// writes: a paper-scale trace is millions of events, and a stream insertion
/// per event spends more time in ostream bookkeeping (sentry, width/locale
/// handling) than in formatting. Identical bytes, ~order-of-magnitude fewer
/// stream operations.
constexpr std::size_t kExportFlushBytes = 1u << 20;

void flush_if_full(std::string& buffer, std::ostream& os) {
  if (buffer.size() < kExportFlushBytes) return;
  os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  buffer.clear();
}

}  // namespace

void export_perfetto(const EventSink& sink, const Metadata& meta,
                     std::ostream& os) {
  std::string buffer;
  buffer.reserve(kExportFlushBytes + (1u << 10));
  buffer += "{\"traceEvents\":[\n";
  // Thread-name metadata records: one per track, in track order.
  const unsigned tracks = sink.num_app_cores() + sink.num_spaces() + 3;
  const bool multi = sink.num_spaces() > 1;
  for (unsigned t = 0; t < tracks; ++t) {
    buffer += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(t) +
              ",\"name\":\"thread_name\",\"args\":{\"name\":" +
              json_quoted(track_name(sink, t)) + "}},\n";
    flush_if_full(buffer, os);
  }
  const auto& events = sink.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    buffer += "{\"ph\":\"X\",\"pid\":1,\"tid\":" +
              std::to_string(track_of(sink, e)) + ",\"name\":" +
              json_quoted(to_string(e.kind)) + ",\"ts\":" +
              std::to_string(e.start) + ",\"dur\":" +
              std::to_string(e.duration) + ",\"args\":";
    append_args(buffer, e, multi);
    buffer += '}';
    if (i + 1 != events.size()) buffer += ',';
    buffer += '\n';
    flush_if_full(buffer, os);
  }
  buffer +=
      "],\n\"displayTimeUnit\":\"ms\",\n\"metadata\":{\"clock_unit\":"
      "\"cycles\"";
  for (const auto& [key, value] : meta)
    buffer += ',' + json_quoted(key) + ':' + json_quoted(value);
  buffer += "}}\n";
  os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
}

void export_jsonl(const EventSink& sink, const Metadata& meta,
                  const Summary& summary, std::ostream& os) {
  std::string buffer;
  buffer.reserve(kExportFlushBytes + (1u << 10));
  const bool multi = sink.num_spaces() > 1;
  buffer +=
      "{\"type\":\"meta\",\"schema\":1,\"clock_unit\":\"cycles\",\"cores\":" +
      std::to_string(sink.num_app_cores());
  // Multi-tenant traces declare the space count; single-tenant meta lines
  // keep the exact schema-1 bytes.
  if (multi) buffer += ",\"spaces\":" + std::to_string(sink.num_spaces());
  buffer += ",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : meta) {
    if (!first) buffer += ',';
    first = false;
    buffer += json_quoted(key) + ':' + json_quoted(value);
  }
  buffer += "}}\n";

  std::array<std::uint64_t, kNumEventKinds> by_kind{};
  for (const Event& e : sink.events()) {
    ++by_kind[static_cast<unsigned>(e.kind)];
    buffer += "{\"type\":\"event\",\"kind\":" + json_quoted(to_string(e.kind)) +
              ",\"core\":" + std::to_string(e.core) +
              ",\"ts\":" + std::to_string(e.start) +
              ",\"dur\":" + std::to_string(e.duration) + ",\"args\":";
    append_args(buffer, e, multi);
    buffer += "}\n";
    flush_if_full(buffer, os);
  }

  buffer += "{\"type\":\"summary\",\"events\":" + std::to_string(sink.size()) +
            ",\"by_kind\":{";
  first = true;
  for (unsigned k = 0; k < kNumEventKinds; ++k) {
    if (by_kind[k] == 0) continue;
    if (!first) buffer += ',';
    first = false;
    buffer += json_quoted(to_string(static_cast<EventKind>(k))) + ':' +
              std::to_string(by_kind[k]);
  }
  buffer += '}';
  for (const auto& [key, value] : summary)
    buffer += ',' + json_quoted(key) + ':' + std::to_string(value);
  buffer += "}\n";
  os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
}

void write_trace_file(const EventSink& sink, const Metadata& meta,
                      const Summary& summary, Format format,
                      const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::trunc);
  CMCP_CHECK_MSG(out.good(), "cannot open trace output file");
  if (format == Format::kPerfetto)
    export_perfetto(sink, meta, out);
  else
    export_jsonl(sink, meta, summary, out);
}

}  // namespace cmcp::sim::trace
