#include "sim/pcie_link.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace cmcp::sim {
namespace {

/// Setup plus payload cycles of one clean transfer of `bytes`.
Cycles attempt_cycles(std::uint64_t bytes) {
  return CostModel::pcie_setup + CostModel::pcie_transfer_cycles(bytes);
}

TEST(PcieLinkTest, TransferTimeMatchesBandwidth) {
  PcieLink link;
  const PcieTransferOutcome out =
      link.transfer(PcieDir::kHostToDevice, 0, 4096, nullptr);
  EXPECT_EQ(out.queue_wait, 0u);
  // 4 kB at 6 GB/s = ~683 ns = ~719 cycles at 1.053 GHz, plus setup.
  EXPECT_EQ(out.done, attempt_cycles(4096));
  EXPECT_NEAR(static_cast<double>(CostModel::pcie_transfer_cycles(4096)), 718.0,
              2.0);
}

TEST(PcieLinkTest, BackToBackTransfersQueue) {
  PcieLink link;
  const Cycles first =
      link.transfer(PcieDir::kHostToDevice, 0, 4096, nullptr).done;
  const PcieTransferOutcome second =
      link.transfer(PcieDir::kHostToDevice, 0, 4096, nullptr);
  EXPECT_EQ(second.queue_wait, first);  // queued behind the first transfer
  EXPECT_EQ(second.done, 2 * first);    // serialized occupancy
}

TEST(PcieLinkTest, DirectionsAreIndependent) {
  PcieLink link;
  link.transfer(PcieDir::kHostToDevice, 0, 1 << 20, nullptr);
  const PcieTransferOutcome up =
      link.transfer(PcieDir::kDeviceToHost, 0, 4096, nullptr);
  EXPECT_EQ(up.queue_wait, 0u);  // full duplex: no queueing across directions
  EXPECT_EQ(up.done, attempt_cycles(4096));
}

TEST(PcieLinkTest, LateArrivalDoesNotQueue) {
  PcieLink link;
  const Cycles first =
      link.transfer(PcieDir::kHostToDevice, 0, 4096, nullptr).done;
  const Cycles start = first + 1000;
  const PcieTransferOutcome late =
      link.transfer(PcieDir::kHostToDevice, start, 4096, nullptr);
  EXPECT_EQ(late.queue_wait, 0u);
  EXPECT_EQ(late.done, start + attempt_cycles(4096));
}

TEST(PcieLinkTest, CountsBytesAndTransfers) {
  PcieLink link;
  link.transfer(PcieDir::kHostToDevice, 0, 4096, nullptr);
  link.transfer(PcieDir::kHostToDevice, 0, 65536, nullptr);
  link.transfer(PcieDir::kDeviceToHost, 0, 4096, nullptr);
  EXPECT_EQ(link.bytes_moved(PcieDir::kHostToDevice), 4096u + 65536u);
  EXPECT_EQ(link.bytes_moved(PcieDir::kDeviceToHost), 4096u);
  EXPECT_EQ(link.transfers(PcieDir::kHostToDevice), 2u);
  EXPECT_EQ(link.transfers(PcieDir::kDeviceToHost), 1u);
}

TEST(PcieLinkTest, LargerPagesMoveProportionallyMoreData) {
  // 2 MB moves 512x the bytes of 4 kB: transfer time scales accordingly
  // (setup excluded) — the page-size tradeoff of Fig. 10.
  auto payload = [](PageSizeClass c) {
    return CostModel::pcie_transfer_cycles(unit_bytes(c));
  };
  const Cycles t4k = payload(PageSizeClass::k4K);
  const Cycles t64k = payload(PageSizeClass::k64K);
  const Cycles t2m = payload(PageSizeClass::k2M);
  EXPECT_NEAR(static_cast<double>(t64k) / t4k, 16.0, 0.1);
  EXPECT_NEAR(static_cast<double>(t2m) / t4k, 512.0, 1.0);
}

}  // namespace
}  // namespace cmcp::sim
