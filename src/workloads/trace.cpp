#include "workloads/trace.h"

#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "common/core_mask.h"

namespace cmcp::wl {

namespace {

/// Bytes of dense per-unit storage one declared page costs a replay on
/// `cores` app cores, at 4 kB pages (one unit per page): a TLB index byte
/// and a PSPT flag byte per app core, the PSPT directory entry and mapping
/// mask, and the page-registry slot.
std::uint64_t table_bytes_per_page(std::uint64_t cores) {
  return 2 * cores + 8 + 8 * ((cores + 63) / 64) + 8;
}

/// The most pages a trace on `cores` app cores may declare: those tables
/// must fit in 4 GiB.
std::uint64_t max_trace_pages(std::uint64_t cores) {
  return (std::uint64_t{1} << 32) / table_bytes_per_page(cores);
}

}  // namespace

void write_trace(const Workload& workload, std::ostream& os) {
  os << "cmcp-trace v1\n";
  os << "cores " << workload.num_cores() << '\n';
  os << "pages " << workload.footprint_base_pages() << '\n';
  for (CoreId c = 0; c < workload.num_cores(); ++c) {
    os << "core " << c << '\n';
    auto stream = workload.make_stream(c);
    for (;;) {
      const Op op = stream->next();
      if (op.kind == OpKind::kEnd) break;
      switch (op.kind) {
        case OpKind::kAccess:
          os << "a " << op.vpn << ' ' << op.count << ' ' << op.stride << ' '
             << op.repeat << ' ' << (op.write ? 'w' : 'r') << ' ' << op.cycles
             << '\n';
          break;
        case OpKind::kCompute:
          os << "c " << op.cycles << '\n';
          break;
        case OpKind::kBarrier:
          os << "b\n";
          break;
        case OpKind::kEnd:
          break;
      }
    }
  }
}

void save_trace(const Workload& workload, const std::string& path) {
  std::ofstream out(path);
  CMCP_CHECK_MSG(out.good(), "cannot open trace output file");
  write_trace(workload, out);
}

TraceParseResult TraceWorkload::parse(std::istream& is,
                                      std::string_view source) {
  std::uint64_t line_no = 0;
  std::string line;
  const auto fail = [&](std::string_view reason) {
    std::ostringstream msg;
    msg << source << ':' << line_no << ": " << reason;
    return TraceParseResult{nullptr, msg.str()};
  };

  ++line_no;
  if (!std::getline(is, line) || line != "cmcp-trace v1")
    return fail("not a cmcp trace (missing header)");

  auto trace = std::unique_ptr<TraceWorkload>(new TraceWorkload());
  std::vector<std::vector<Op>> schedules;
  std::vector<Op>* current = nullptr;
  // `pages` is bounded once both it and `cores` are known (trace.h); the
  // empty string means in bound.
  const auto pages_error = [&]() -> std::string {
    const std::size_t cores = schedules.size();
    if (cores == 0 || trace->pages_ <= max_trace_pages(cores)) return {};
    return "pages must be in [1, " + std::to_string(max_trace_pages(cores)) +
           "] on " + std::to_string(cores) + (cores == 1 ? " core" : " cores");
  };

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "cores") {
      // The scanner pseudo-core rides above the app cores (sim/machine.h).
      std::uint64_t cores = 0;
      if (!(ss >> cores) || cores < 1 || cores >= CoreMask::kMaxCores)
        return fail("cores must be in [1, " +
                    std::to_string(CoreMask::kMaxCores - 1) + "]");
      schedules.resize(cores);
      if (const std::string e = pages_error(); !e.empty()) return fail(e);
    } else if (tag == "pages") {
      if (!(ss >> trace->pages_) || trace->pages_ == 0)
        return fail("bad pages line");
      if (const std::string e = pages_error(); !e.empty()) return fail(e);
    } else if (tag == "core") {
      std::uint64_t id = 0;
      if (!(ss >> id) || id >= schedules.size()) return fail("bad core line");
      current = &schedules[id];
    } else if (tag == "a") {
      if (current == nullptr) return fail("op before core line");
      if (trace->pages_ == 0) return fail("access before pages line");
      Op op;
      op.kind = OpKind::kAccess;
      std::uint64_t repeat = 0;
      char rw = 'r';
      if (!(ss >> op.vpn >> op.count >> op.stride >> repeat >> rw >> op.cycles))
        return fail("bad access line");
      if (op.count == 0 || (rw != 'r' && rw != 'w'))
        return fail("bad access fields");
      if (repeat < 1 || repeat > 65535)
        return fail("repeat must be in [1, 65535]");
      // The last page touched is vpn + (count - 1) * stride; both factors
      // are 32-bit, so the product cannot wrap.
      const std::uint64_t span = std::uint64_t{op.count - 1} * op.stride;
      if (op.vpn >= trace->pages_ || span >= trace->pages_ - op.vpn)
        return fail("access range lies outside the declared pages");
      op.repeat = static_cast<std::uint16_t>(repeat);
      op.write = rw == 'w';
      current->push_back(op);
    } else if (tag == "c") {
      if (current == nullptr) return fail("op before core line");
      Cycles cycles = 0;
      if (!(ss >> cycles)) return fail("bad compute line");
      current->push_back(Op::compute(cycles));
    } else if (tag == "b") {
      if (current == nullptr) return fail("op before core line");
      current->push_back(Op::barrier());
    } else {
      return fail("unknown trace tag '" + tag + "'");
    }
  }
  if (schedules.empty()) return fail("trace declares no cores");
  if (trace->pages_ == 0) return fail("trace declares no pages");

  trace->schedules_.reserve(schedules.size());
  for (auto& ops : schedules)
    trace->schedules_.push_back(
        std::make_shared<const std::vector<Op>>(std::move(ops)));
  return TraceParseResult{std::move(trace), {}};
}

TraceParseResult TraceWorkload::load(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    return TraceParseResult{nullptr, path + ": cannot open trace file"};
  return parse(in, path);
}

std::unique_ptr<AccessStream> TraceWorkload::make_stream(CoreId core) const {
  CMCP_CHECK(core < schedules_.size());
  return std::make_unique<VectorStream>(schedules_[core]);
}

}  // namespace cmcp::wl
