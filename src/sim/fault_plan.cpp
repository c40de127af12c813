#include "sim/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <type_traits>

#include "common/assert.h"
#include "common/parse_number.h"

namespace cmcp::sim {

namespace {

/// splitmix64 finalizer: the stateless straggler decision hash. Mirrors the
/// mixer cmcp::Rng uses for seed expansion, so one seed drives well-spread,
/// order-independent per-(core, window) decisions.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) from a hash value (same construction as Rng::next_double).
double unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Shortest decimal form of `value` that parses back to the same double, so
/// to_spec()/parse() round-trips are exact and specs stay readable.
std::string fmt_double(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

/// Stores `text` in `*out` if all of it is a T in [lo, hi]; otherwise
/// returns "<key> must be in [lo, hi]".
template <typename T>
std::string parse_field(std::string_view key, std::string_view text, T* out,
                        T lo = std::numeric_limits<T>::lowest(),
                        T hi = std::numeric_limits<T>::max()) {
  const std::optional<T> value = common::parse_number<T>(text);
  if (value && *value >= lo && *value <= hi) {
    *out = *value;
    return {};
  }
  std::string range;
  if constexpr (std::is_floating_point_v<T>)
    range = fmt_double(lo) + ", " + fmt_double(hi);
  else
    range = std::to_string(lo) + ", " + std::to_string(hi);
  return std::string(key) + " must be in [" + range + "]";
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPcieTransient: return "pcie-transient";
    case FaultKind::kPcieSticky: return "pcie-sticky";
    case FaultKind::kShootdownAck: return "shootdown-ack";
    case FaultKind::kEccPoison: return "ecc-poison";
    case FaultKind::kStraggler: return "straggler";
  }
  return "?";
}

Cycles FaultPlanConfig::backoff(unsigned attempt) {
  CMCP_CHECK(attempt >= 1);
  const unsigned shift = std::min(attempt - 1, 62u);
  Cycles value = kBackoffBase;
  // Saturating shift: doubling past the cap cannot wrap.
  for (unsigned i = 0; i < shift && value < kBackoffCap; ++i) value <<= 1;
  return std::min(value, kBackoffCap);
}

std::string FaultPlanConfig::to_spec() const {
  std::string spec = "seed=" + std::to_string(seed);
  spec += ",pcie=" + fmt_double(pcie_transient_rate);
  spec += ",sticky=" + fmt_double(pcie_sticky_rate);
  spec += ",ack=" + fmt_double(shootdown_ack_rate);
  spec += ",poison=" + std::to_string(poison_frames);
  spec += ",straggler=" + fmt_double(straggler_rate);
  return spec;
}

std::string FaultPlanConfig::parse(std::string_view spec,
                                   FaultPlanConfig* out) {
  *out = FaultPlanConfig{};
  if (spec.empty()) return {};  // the default (disabled) plan
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view token = spec.substr(pos, comma - pos);
    const std::size_t eq = token.find('=');
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = eq == std::string_view::npos
                                       ? std::string_view()
                                       : token.substr(eq + 1);
    std::string error;
    if (eq == std::string_view::npos) {
      error = "expected key=value";
    } else if (key == "seed") {
      error = parse_field(key, value, &out->seed);
    } else if (key == "pcie") {
      error = parse_field(key, value, &out->pcie_transient_rate, 0.0, 1.0);
    } else if (key == "sticky") {
      error = parse_field(key, value, &out->pcie_sticky_rate, 0.0, 1.0);
    } else if (key == "ack") {
      error = parse_field(key, value, &out->shootdown_ack_rate, 0.0, 1.0);
    } else if (key == "poison") {
      error = parse_field(key, value, &out->poison_frames);
    } else if (key == "straggler") {
      error = parse_field(key, value, &out->straggler_rate, 0.0, 1.0);
    } else {
      error = "unknown key (seed, pcie, sticky, ack, poison, straggler)";
    }
    if (!error.empty())
      return std::string("'").append(token).append("': ").append(error);
    if (comma == spec.size()) return {};
    pos = comma + 1;
  }
}

FaultPlan::FaultPlan(const FaultPlanConfig& config)
    : config_(config),
      pcie_rng_(mix64(config.seed ^ 0x70636965ULL)),
      ack_rng_(mix64(config.seed ^ 0x61636bULL)),
      ecc_rng_(mix64(config.seed ^ 0x656363ULL)) {}

FaultPlan::PcieDecision FaultPlan::next_pcie() {
  // One draw per transfer regardless of outcome keeps the decision stream
  // aligned across rate changes of OTHER kinds.
  const double r = pcie_rng_.next_double();
  PcieDecision d;
  if (r < config_.pcie_sticky_rate) {
    d.failures = FaultPlanConfig::kMaxRetries;
    d.sticky = true;
  } else if (r < config_.pcie_sticky_rate + config_.pcie_transient_rate) {
    d.failures = 1;
  }
  return d;
}

bool FaultPlan::next_ack_lost() {
  return ack_rng_.next_double() < config_.shootdown_ack_rate;
}

void FaultPlan::select_poison(std::uint64_t capacity_units,
                              std::uint64_t frames_per_unit) {
  CMCP_CHECK(frames_per_unit > 0);
  poison_.clear();
  if (config_.poison_frames == 0 || capacity_units == 0) return;
  // Keep at least one usable frame: a fully poisoned device is a config
  // error, not a scenario the recovery protocol can degrade through.
  const std::uint64_t count =
      std::min(config_.poison_frames, capacity_units - 1);
  std::vector<std::uint64_t> slots;
  slots.reserve(count);
  while (slots.size() < count) {
    const std::uint64_t slot = ecc_rng_.next_below(capacity_units);
    if (std::find(slots.begin(), slots.end(), slot) != slots.end()) continue;
    slots.push_back(slot);
  }
  for (const std::uint64_t slot : slots) {
    Poison p;
    p.pfn = slot * frames_per_unit;
    p.latent = ecc_rng_.next_double() < 0.5;
    poison_.push_back(p);
  }
}

bool FaultPlan::surfaces_at_alloc(Pfn pfn) {
  for (Poison& p : poison_) {
    if (p.pfn != pfn || p.latent || p.surfaced) continue;
    p.surfaced = true;
    return true;
  }
  return false;
}

bool FaultPlan::surfaces_at_evict(Pfn pfn) {
  for (Poison& p : poison_) {
    if (p.pfn != pfn || !p.latent || p.surfaced) continue;
    p.surfaced = true;
    return true;
  }
  return false;
}

unsigned FaultPlan::straggler_mult_at(CoreId core, Cycles now,
                                      bool* window_start) {
  *window_start = false;
  if (config_.straggler_rate <= 0.0) return 1;
  const std::uint64_t window = now / FaultPlanConfig::kStragglerWindow;
  const std::uint64_t h =
      mix64(config_.seed ^ mix64(0x73747261ULL + core) ^ mix64(window));
  if (unit_double(h) >= config_.straggler_rate) return 1;
  if (core >= straggler_emitted_.size())
    straggler_emitted_.resize(core + 1, ~std::uint64_t{0});
  if (straggler_emitted_[core] != window) {
    straggler_emitted_[core] = window;
    *window_start = true;
  }
  return FaultPlanConfig::kStragglerMult;
}

void FaultPlan::record(FaultKind kind, Asid asid, std::uint64_t injected,
                       std::uint64_t retries, bool gave_up,
                       Cycles recovery_cycles) {
  stats_.injected[static_cast<unsigned>(kind)] += injected;
  stats_.recovery_cycles += recovery_cycles;
  if (asid >= stats_.per_asid_faults.size()) {
    stats_.per_asid_faults.resize(asid + 1, 0);
    stats_.per_asid_recovery.resize(asid + 1, 0);
  }
  stats_.per_asid_faults[asid] += injected;
  stats_.per_asid_recovery[asid] += recovery_cycles;
  stats_.retries += retries;
  if (gave_up) ++stats_.give_ups;
}

void FaultPlan::record_quarantine() {
  ++stats_.frames_quarantined;
}

void FaultPlan::record_straggler_cycles(Cycles extra) {
  stats_.straggler_cycles += extra;
}

}  // namespace cmcp::sim
