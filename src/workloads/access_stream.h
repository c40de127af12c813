// Workload abstraction: each simulated core pulls a stream of operations —
// page references (optionally strided ranges), pure-compute intervals, and
// barriers. The replacement policies only ever observe the reference
// streams, so reproducing the paper's workloads means reproducing the
// *structure* of their per-core page footprints (Fig. 6), not their FLOPs.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace cmcp::wl {

enum class OpKind : std::uint8_t {
  kAccess,   ///< reference `count` consecutive base pages starting at vpn
  kCompute,  ///< advance the core clock by `cycles`
  kBarrier,  ///< wait for all cores
  kEnd,      ///< stream exhausted (returned forever afterwards)
};

/// Fields run widest first so the op packs into 32 bytes: a generated
/// workload's stream buffers one phase of these at a time, and a replayed
/// trace keeps every core's whole schedule of them (docs/performance.md).
struct Op {
  Vpn vpn = 0;               ///< kAccess: first base page
  Cycles cycles = 0;         ///< kCompute; for kAccess: compute per page
                             ///< (the engine advances the clock by `cycles`
                             ///< after each page's references, modelling the
                             ///< arithmetic done on that page's data)
  std::uint32_t count = 1;   ///< kAccess: number of consecutive base pages
  std::uint32_t stride = 1;  ///< kAccess: base-page stride between references
  std::uint16_t repeat = 1;  ///< kAccess: references per touched page
  OpKind kind = OpKind::kEnd;
  bool write = false;        ///< kAccess: read or write

  static Op access(Vpn vpn, bool write = false, std::uint32_t count = 1,
                   std::uint16_t repeat = 1, Cycles compute_per_page = 0,
                   std::uint32_t stride = 1) {
    return Op{.vpn = vpn,
              .cycles = compute_per_page,
              .count = count,
              .stride = stride,
              .repeat = repeat,
              .kind = OpKind::kAccess,
              .write = write};
  }
  static Op compute(Cycles cycles) {
    return Op{.cycles = cycles, .kind = OpKind::kCompute};
  }
  static Op barrier() { return Op{.kind = OpKind::kBarrier}; }
  static Op end() { return Op{.kind = OpKind::kEnd}; }
};
static_assert(sizeof(Op) == 32, "wl::Op grew past 32 bytes");

class AccessStream {
 public:
  virtual ~AccessStream() = default;

  /// Next operation for this core. Must return kEnd forever once exhausted.
  virtual Op next() = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string_view name() const = 0;

  /// Cores participating (streams exist for exactly [0, num_cores)).
  virtual CoreId num_cores() const = 0;

  /// Computation-area footprint in 4 kB base pages (before unit rounding).
  virtual std::uint64_t footprint_base_pages() const = 0;

  /// A new stream of core `core`'s ops, from the first one. Callable any
  /// number of times and from any thread: each stream replays the same ops
  /// from the start, independent of every other stream.
  virtual std::unique_ptr<AccessStream> make_stream(CoreId core) const = 0;
};

/// Replays a fixed per-core schedule held in memory (trace replay).
class VectorStream final : public AccessStream {
 public:
  explicit VectorStream(std::shared_ptr<const std::vector<Op>> ops)
      : ops_(std::move(ops)) {}

  Op next() override {
    if (pos_ >= ops_->size()) return Op::end();
    return (*ops_)[pos_++];
  }

 private:
  std::shared_ptr<const std::vector<Op>> ops_;
  std::size_t pos_ = 0;
};

}  // namespace cmcp::wl
