// Node wire format, descriptor serialization, buddy geometry derivations.

#include "lob/node.h"

#include <gtest/gtest.h>

#include <vector>

#include "buddy/free_capture.h"
#include "buddy/geometry.h"
#include "lob/descriptor.h"
#include "tests/test_util.h"

namespace eos {
namespace {

using testing_util::Stack;

TEST(NodeFormatTest, CapacityMatchesLayout) {
  // 4 KB page: (4096 - 8) / 16 = 255 entries.
  EXPECT_EQ(NodeFormat::Capacity(4096), 255u);
  EXPECT_EQ(NodeFormat::MinEntries(4096), 127u);
  // The paper's 100-byte example pages: 5 entries.
  EXPECT_EQ(NodeFormat::Capacity(100), 5u);
}

TEST(NodeFormatTest, SerializeRoundTripCumulativeCounts) {
  LobNode node;
  node.level = 3;
  node.entries = {LobEntry{100, 11}, LobEntry{920, 12}, LobEntry{800, 13}};
  Bytes page(4096, 0xEE);
  NodeFormat::Serialize(node, page.data(), 4096);
  // On-disk counts are cumulative: 100, 1020, 1820 (Figure 5.c's root).
  EXPECT_EQ(DecodeU64(page.data() + 8), 100u);
  EXPECT_EQ(DecodeU64(page.data() + 24), 1020u);
  EXPECT_EQ(DecodeU64(page.data() + 40), 1820u);
  LobNode out;
  EOS_ASSERT_OK(NodeFormat::Deserialize(page.data(), 4096, &out));
  EXPECT_EQ(out.level, 3);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0], node.entries[0]);
  EXPECT_EQ(out.entries[1], node.entries[1]);
  EXPECT_EQ(out.entries[2], node.entries[2]);
  EXPECT_EQ(out.Total(), 1820u);
}

TEST(NodeFormatTest, DeserializeRejectsCorruption) {
  Bytes page(4096, 0);
  LobNode out;
  EXPECT_TRUE(NodeFormat::Deserialize(page.data(), 4096, &out)
                  .IsCorruption());  // bad magic
  LobNode node;
  node.level = 0;
  node.entries = {LobEntry{10, 1}, LobEntry{20, 2}};
  NodeFormat::Serialize(node, page.data(), 4096);
  // Corrupt the cumulative counts so they are not strictly increasing.
  EncodeU64(page.data() + 24, 5);
  EXPECT_TRUE(
      NodeFormat::Deserialize(page.data(), 4096, &out).IsCorruption());
}

TEST(NodeTest, FindChildRebasesOffset) {
  LobNode node;
  node.entries = {LobEntry{1020, 1}, LobEntry{800, 2}};
  uint64_t off = 1470;  // the Section 4.2 example
  EXPECT_EQ(node.FindChild(&off), 1);
  EXPECT_EQ(off, 450u);
  off = 0;
  EXPECT_EQ(node.FindChild(&off), 0);
  EXPECT_EQ(off, 0u);
  off = 1019;
  EXPECT_EQ(node.FindChild(&off), 0);
  EXPECT_EQ(off, 1019u);
  off = 1020;
  EXPECT_EQ(node.FindChild(&off), 1);
  EXPECT_EQ(off, 0u);
}

TEST(DescriptorTest, SerializeRoundTripWithLsn) {
  LobDescriptor d;
  d.root.level = 1;
  d.root.entries = {LobEntry{1020, 77}, LobEntry{800, 78}};
  d.lsn = 424242;
  Bytes wire = d.Serialize();
  EXPECT_EQ(wire.size(), 8u + 2 * 16u + 8u);
  auto back = LobDescriptor::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->root.level, 1);
  EXPECT_EQ(back->root.entries.size(), 2u);
  EXPECT_EQ(back->lsn, 424242u);
  EXPECT_EQ(back->size(), 1820u);
}

TEST(DescriptorTest, DeserializeRejectsTruncation) {
  LobDescriptor d;
  d.root.entries = {LobEntry{5, 1}};
  Bytes wire = d.Serialize();
  wire.pop_back();
  EXPECT_TRUE(LobDescriptor::Deserialize(wire).status().IsCorruption());
  Bytes tiny(4, 0);
  EXPECT_TRUE(LobDescriptor::Deserialize(tiny).status().IsCorruption());
}

TEST(DescriptorTest, MaxEntriesFor) {
  EXPECT_EQ(LobDescriptor::MaxEntriesFor(8 + 8), 0u);
  EXPECT_EQ(LobDescriptor::MaxEntriesFor(8 + 16 + 8), 1u);
  EXPECT_EQ(LobDescriptor::MaxEntriesFor(256), (256u - 16) / 16);
}

TEST(NodeStoreTest, ShadowingRelocatesPages) {
  Stack s = Stack::Make(128);
  NodeStore* store = s.lob->node_store();
  LobNode node;
  node.level = 0;
  node.entries = {LobEntry{100, 5}, LobEntry{50, 9}};
  auto page = store->WriteNew(node);
  ASSERT_TRUE(page.ok());
  PageId p = *page;

  // In place: id stays.
  node.entries[0].count = 111;
  EOS_ASSERT_OK(store->Write(&p, node));
  EXPECT_EQ(p, *page);

  // Shadowing: id changes, old page freed, content identical.
  store->set_shadowing(true);
  node.entries[0].count = 222;
  EOS_ASSERT_OK(store->Write(&p, node));
  EXPECT_NE(p, *page);
  auto loaded = store->Load(p);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->entries[0].count, 222u);
  store->set_shadowing(false);
  EOS_ASSERT_OK(store->FreePage(p));
  EOS_ASSERT_OK(s.allocator->CheckInvariants());
}

// A captured free (MVCC retire batch, checkpoint parking) leaves the page
// reachable from a superseded version, and its cached frame may hold the
// only current image — write-behind here, or a write-through that failed
// during a volume outage. The free must keep that frame; only the page's
// real return to the buddy maps may drop it.
TEST(NodeStoreTest, CapturedFreeKeepsUnflushedFrame) {
  Stack s = Stack::Make(128);
  NodeStore* store = s.lob->node_store();
  LobNode node;
  node.level = 0;
  node.entries = {LobEntry{100, 5}, LobEntry{50, 9}};
  auto page = store->WriteNew(node);  // dirty in the pager, not on device
  ASSERT_TRUE(page.ok());
  std::vector<Extent> retired;
  {
    ScopedFreeCapture capture(s.allocator.get());
    EOS_ASSERT_OK(store->FreePage(*page));
    retired = capture.TakeCaptured();
  }
  ASSERT_EQ(retired.size(), 1u);
  // A snapshot reader still resolving the superseded version.
  auto loaded = store->Load(*page);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->entries, node.entries);
  // The real free (version GC) drops the frame: a later flush must not
  // trample whatever reuses the page.
  EOS_ASSERT_OK(s.allocator->Free(retired[0]));
  EOS_ASSERT_OK(s.pager->FlushAll());
  Bytes raw(128);
  EOS_ASSERT_OK(s.device->ReadPages(*page, 1, raw.data()));
  EXPECT_EQ(raw, Bytes(128, 0)) << "freed page's stale frame was flushed";
  EOS_ASSERT_OK(s.allocator->CheckInvariants());
}

TEST(GeometryTest, PaperNumbersFor4KPages) {
  auto geo = BuddyGeometry::Make(4096);
  ASSERT_TRUE(geo.ok());
  // k = log2(2 * 4096) = 13: maximum segment 2^13 pages = 32 MB.
  EXPECT_EQ(geo->max_type, 13u);
  EXPECT_EQ(geo->max_segment_pages(), 8192u);
  // One directory page maps ~4 * (4096 - header) pages (~63.5 MB spaces).
  EXPECT_GE(geo->space_pages, 16000u);
  EXPECT_LE(geo->space_pages, 16272u);
}

TEST(GeometryTest, BoundsChecked) {
  EXPECT_FALSE(BuddyGeometry::Make(32).ok());
  EXPECT_FALSE(BuddyGeometry::Make(65536).ok());
  EXPECT_FALSE(BuddyGeometry::Make(4096, 4).ok());       // too small
  EXPECT_FALSE(BuddyGeometry::Make(4096, 1 << 30).ok());  // beyond the map
  auto geo = BuddyGeometry::Make(4096, 100);
  ASSERT_TRUE(geo.ok());
  // Max segment capped by the space size: 2^6 = 64 <= 100.
  EXPECT_EQ(geo->max_type, 6u);
}

TEST(GeometryTest, SmallPagesStillWork) {
  for (uint32_t ps : {64u, 100u, 128u, 512u}) {
    auto geo = BuddyGeometry::Make(ps);
    ASSERT_TRUE(geo.ok()) << ps;
    EXPECT_GE(geo->space_pages, 8u);
    EXPECT_LE(uint64_t{1} << geo->max_type, geo->space_pages);
  }
}

}  // namespace
}  // namespace eos
