// Trace record / replay.
//
// Any workload's per-core op schedules can be serialized to a compact text
// format and replayed later — so downstream users can drive the simulator
// with traces captured from their own applications (e.g. via a PIN/DynamoRIO
// pass reduced to page granularity) instead of the built-in generators.
//
// Format (line-oriented, '#' comments):
//   cmcp-trace v1
//   cores <N>
//   pages <footprint-base-pages>
//   core <id>
//   a <vpn> <count> <stride> <repeat> <w|r> <compute>   # access
//   c <cycles>                                          # compute
//   b                                                   # barrier
//
// `cores` lies in [1, CoreMask::kMaxCores - 1] (the range cmcp_sim --cores
// accepts), `repeat` in [1, 65535], and `pages` must precede the first
// access, every access range lying inside it. The replay sizes dense
// per-unit tables from `pages`: at 4 kB pages each page costs a TLB index
// byte and a PSPT flag byte on every app core, an 8-byte PSPT directory
// entry, 8 bytes of PSPT mapping mask per 64 cores and an 8-byte
// page-registry slot. `pages` is bounded so these fit in 4 GiB:
//   pages <= 2^32 / (2 * cores + 16 + 8 * ceil(cores / 64))
// (165191049 pages on 1 core, 31580641 on 56, 1846503 on 1087).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "workloads/access_stream.h"

namespace cmcp::wl {

/// Serialize a workload's full schedule.
void write_trace(const Workload& workload, std::ostream& os);
void save_trace(const Workload& workload, const std::string& path);

struct TraceParseResult;

/// A workload replayed from a trace.
class TraceWorkload final : public Workload {
 public:
  /// Parse from a stream. Malformed input yields no workload and a
  /// diagnostic "<source>:<line>: <reason>" instead of an abort.
  static TraceParseResult parse(std::istream& is,
                                std::string_view source = "<trace>");
  /// parse() of the file at `path`, which also names it in diagnostics.
  static TraceParseResult load(const std::string& path);

  std::string_view name() const override { return "trace"; }
  CoreId num_cores() const override { return static_cast<CoreId>(schedules_.size()); }
  std::uint64_t footprint_base_pages() const override { return pages_; }
  std::unique_ptr<AccessStream> make_stream(CoreId core) const override;

 private:
  TraceWorkload() = default;

  std::uint64_t pages_ = 0;
  std::vector<std::shared_ptr<const std::vector<Op>>> schedules_;
};

struct TraceParseResult {
  std::unique_ptr<TraceWorkload> trace;  ///< null when the input is malformed
  std::string error;                     ///< set exactly when trace is null
};

}  // namespace cmcp::wl
