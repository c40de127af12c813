#include "policy/cmcp.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace cmcp::policy {

CmcpPolicy::CmcpPolicy(PolicyHost& host, const CmcpConfig& config)
    : host_(host), config_(config), buckets_(host.num_cores() + 1) {
  CMCP_CHECK_MSG(config_.p >= 0.0 && config_.p <= 1.0, "p must be in [0,1]");
  max_priority_ = static_cast<std::uint64_t>(
      std::floor(config_.p * static_cast<double>(host_.capacity_units())));
}

void CmcpPolicy::set_p(double p) {
  CMCP_CHECK_MSG(p >= 0.0 && p <= 1.0, "p must be in [0,1]");
  config_.p = p;
  max_priority_ = static_cast<std::uint64_t>(
      std::floor(p * static_cast<double>(host_.capacity_units())));
}

unsigned CmcpPolicy::bucket_of(unsigned core_map_count) const {
  CMCP_CHECK(core_map_count >= 1);
  return std::min<unsigned>(core_map_count,
                            static_cast<unsigned>(buckets_.size() - 1));
}

mm::ResidentPage* CmcpPolicy::lowest_priority_page() {
  if (priority_size_ == 0) return nullptr;
  // Buckets only ever shrink from the hint upward; re-scan from the hint.
  for (unsigned b = lowest_bucket_hint_; b < buckets_.size(); ++b) {
    if (!buckets_[b].empty()) {
      lowest_bucket_hint_ = b;
      return buckets_[b].front();
    }
  }
  // The hint can overshoot after demotions; fall back to a full scan.
  for (unsigned b = 1; b < buckets_.size(); ++b) {
    if (!buckets_[b].empty()) {
      lowest_bucket_hint_ = b;
      return buckets_[b].front();
    }
  }
  CMCP_CHECK_MSG(false, "priority_size_ out of sync with buckets");
  return nullptr;
}

void CmcpPolicy::promote(mm::ResidentPage& page) {
  const unsigned b = bucket_of(host_.core_map_count(page));
  page.where = kPriority;
  page.bucket = b;
  page.age_stamp = tick_count_;
  buckets_[b].push_back(page);
  age_list_.push_back(page);
  ++priority_size_;
  lowest_bucket_hint_ = std::min(lowest_bucket_hint_, b);
  ++promotions_;
}

void CmcpPolicy::demote_to_fifo(mm::ResidentPage& page) {
  CMCP_CHECK(page.where == kPriority);
  buckets_[page.bucket].erase(page);
  age_list_.erase(page);
  --priority_size_;
  page.where = kFifo;
  fifo_.push_back(page);
}

void CmcpPolicy::place(mm::ResidentPage& page) {
  const unsigned count = host_.core_map_count(page);
  if (count == 0) {
    // Prefetched, not yet mapped by anyone: plain FIFO material.
    page.where = kFifo;
    fifo_.push_back(page);
    return;
  }
  if (priority_size_ < max_priority_) {
    promote(page);
    return;
  }
  if (max_priority_ > 0) {
    mm::ResidentPage* lowest = lowest_priority_page();
    // A prioritized page's bucket is its core-map count: counts only grow
    // while a page is resident, and every growth re-buckets it.
    if (lowest != nullptr && lowest->bucket < count) {
      // Displace the least-shared prioritized page (paper's insertion rule).
      demote_to_fifo(*lowest);
      ++displacements_;
      promote(page);
      return;
    }
  }
  page.where = kFifo;
  fifo_.push_back(page);
}

void CmcpPolicy::on_insert(mm::ResidentPage& page) { place(page); }

void CmcpPolicy::on_core_map_grow(mm::ResidentPage& page) {
  if (page.where == kPriority) {
    // Re-bucket and refresh the aging position.
    const unsigned b = bucket_of(host_.core_map_count(page));
    if (b != page.bucket) {
      buckets_[page.bucket].erase(page);
      page.bucket = b;
      buckets_[b].push_back(page);
    }
    page.age_stamp = tick_count_;
    age_list_.move_to_back(page);
    return;
  }
  // A FIFO page gained a mapping core: retry the priority placement without
  // losing its FIFO position on failure.
  fifo_.erase(page);
  place(page);
  // place() appended it to the FIFO tail on failure; FIFO order is by first
  // residency, so that is acceptable drift — the page just became "younger",
  // mirroring that it was touched by a new core.
}

mm::ResidentPage* CmcpPolicy::pick_victim(CoreId /*faulting_core*/,
                                          Cycles& /*extra_cycles*/) {
  if (mm::ResidentPage* head = fifo_.front(); head != nullptr) return head;
  return lowest_priority_page();
}

void CmcpPolicy::on_evict(mm::ResidentPage& page) {
  if (page.where == kPriority) {
    buckets_[page.bucket].erase(page);
    age_list_.erase(page);
    --priority_size_;
  } else {
    fifo_.erase(page);
  }
}

void CmcpPolicy::on_tick(Cycles /*now*/) {
  ++tick_count_;
  if (!config_.aging_enabled) return;
  // All prioritized pages slowly fall back to FIFO (paper section 3): demote
  // everything not refreshed within age_limit_ticks.
  while (mm::ResidentPage* stalest = age_list_.front()) {
    if (tick_count_ - stalest->age_stamp <= config_.age_limit_ticks) break;
    demote_to_fifo(*stalest);
    ++aged_out_;
  }
}

void CmcpPolicy::stats(const StatVisitor& visit) const {
  visit("promotions", promotions_);
  visit("displacements", displacements_);
  visit("aged_out", aged_out_);
  visit("priority_size", priority_size_);
  visit("fifo_size", fifo_.size());
}

}  // namespace cmcp::policy
