// The eos::Database facade: object directory, persistence across reopen,
// integrity checking.

#include "eos/database.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "io/chaos_device.h"
#include "tests/test_util.h"

namespace eos {
namespace {

using testing_util::PatternBytes;

DatabaseOptions SmallOptions() {
  DatabaseOptions opt;
  opt.page_size = 256;
  opt.space_pages = 400;
  opt.pager_frames = 64;
  return opt;
}

TEST(DatabaseTest, CreateObjectsAndReadBack) {
  auto db = Database::CreateInMemory(SmallOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Bytes a = PatternBytes(1, 5000);
  Bytes b = PatternBytes(2, 123);
  auto ida = (*db)->CreateObjectFrom(a);
  auto idb = (*db)->CreateObjectFrom(b);
  ASSERT_TRUE(ida.ok() && idb.ok());
  EXPECT_NE(*ida, *idb);
  auto ra = (*db)->Read(*ida, 0, 5000);
  auto rb = (*db)->Read(*idb, 0, 123);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(*ra, a);
  EXPECT_EQ(*rb, b);
  auto ids = (*db)->ListObjects();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 2u);
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

TEST(DatabaseTest, UpdateOperations) {
  auto db = Database::CreateInMemory(SmallOptions());
  ASSERT_TRUE(db.ok());
  Bytes model = PatternBytes(3, 2000);
  auto id = (*db)->CreateObjectFrom(model);
  ASSERT_TRUE(id.ok());

  Bytes ins = PatternBytes(4, 300);
  EOS_ASSERT_OK((*db)->Insert(*id, 500, ins));
  model.insert(model.begin() + 500, ins.begin(), ins.end());

  EOS_ASSERT_OK((*db)->Delete(*id, 100, 250));
  model.erase(model.begin() + 100, model.begin() + 350);

  Bytes rep = PatternBytes(5, 64);
  EOS_ASSERT_OK((*db)->Replace(*id, 0, rep));
  std::copy(rep.begin(), rep.end(), model.begin());

  EOS_ASSERT_OK((*db)->Append(*id, PatternBytes(6, 90)));
  Bytes tail = PatternBytes(6, 90);
  model.insert(model.end(), tail.begin(), tail.end());

  auto size = (*db)->Size(*id);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, model.size());
  auto all = (*db)->Read(*id, 0, model.size());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, model);
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

TEST(DatabaseTest, DropObjectFreesStorage) {
  auto db = Database::CreateInMemory(SmallOptions());
  ASSERT_TRUE(db.ok());
  auto free0 = (*db)->allocator()->TotalFreePages();
  ASSERT_TRUE(free0.ok());
  auto id = (*db)->CreateObjectFrom(PatternBytes(7, 30000));
  ASSERT_TRUE(id.ok());
  EOS_ASSERT_OK((*db)->DropObject(*id));
  EXPECT_TRUE((*db)->Read(*id, 0, 1).status().IsNotFound());
  auto ids = (*db)->ListObjects();
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids->empty());
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

TEST(DatabaseTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/eos_db_test.vol";
  Bytes a = PatternBytes(8, 7000);
  Bytes b = PatternBytes(9, 450);
  uint64_t ida = 0, idb = 0;
  {
    auto db = Database::Create(path, SmallOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto r1 = (*db)->CreateObjectFrom(a);
    auto r2 = (*db)->CreateObjectFrom(b);
    ASSERT_TRUE(r1.ok() && r2.ok());
    ida = *r1;
    idb = *r2;
    EOS_ASSERT_OK((*db)->Flush());
  }
  {
    auto db = Database::Open(path, SmallOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto ra = (*db)->Read(ida, 0, a.size());
    auto rb = (*db)->Read(idb, 0, b.size());
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(*ra, a);
    EXPECT_EQ(*rb, b);
    // Update after reopen, reopen again.
    EOS_ASSERT_OK((*db)->Delete(ida, 0, 1000));
    EOS_ASSERT_OK((*db)->Flush());
  }
  {
    auto db = Database::Open(path, SmallOptions());
    ASSERT_TRUE(db.ok());
    auto ra = (*db)->Read(ida, 0, a.size());
    ASSERT_TRUE(ra.ok());
    EXPECT_EQ(*ra, Bytes(a.begin() + 1000, a.end()));
    EOS_EXPECT_OK((*db)->CheckIntegrity());
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, ManyObjects) {
  auto db = Database::CreateInMemory(SmallOptions());
  ASSERT_TRUE(db.ok());
  std::vector<uint64_t> ids;
  std::vector<Bytes> payloads;
  for (int i = 0; i < 10; ++i) {
    payloads.push_back(PatternBytes(100 + i, 500 + 333 * i));
    auto id = (*db)->CreateObjectFrom(payloads.back());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (int i = 0; i < 10; ++i) {
    auto r = (*db)->Read(ids[i], 0, payloads[i].size());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, payloads[i]);
  }
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

TEST(DatabaseTest, OpenRejectsGarbageVolume) {
  std::string path = ::testing::TempDir() + "/eos_db_garbage.vol";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    Bytes junk(1024, 0x5A);
    fwrite(junk.data(), 1, junk.size(), f);
    fclose(f);
  }
  DatabaseOptions opt = SmallOptions();
  auto db = Database::Open(path, opt);
  EXPECT_FALSE(db.ok());
  std::remove(path.c_str());
}

TEST(DatabaseTest, PerObjectThresholdAndReorganize) {
  DatabaseOptions opt = SmallOptions();
  opt.lob.threshold_pages = 1;
  auto db = Database::CreateInMemory(opt);
  ASSERT_TRUE(db.ok());
  Bytes model = PatternBytes(20, 60000);
  auto id = (*db)->CreateObjectFrom(model);
  ASSERT_TRUE(id.ok());
  Random rng(21);
  for (int i = 0; i < 120; ++i) {
    uint64_t off = rng.Uniform(model.size() - 200);
    if (rng.OneIn(2)) {
      Bytes ins = PatternBytes(500 + i, rng.Range(1, 150));
      EOS_ASSERT_OK((*db)->Insert(*id, off, ins));
      model.insert(model.begin() + off, ins.begin(), ins.end());
    } else {
      uint64_t n = rng.Range(1, 150);
      EOS_ASSERT_OK((*db)->Delete(*id, off, n));
      model.erase(model.begin() + off, model.begin() + off + n);
    }
  }
  auto frag = (*db)->ObjectStats(*id);
  ASSERT_TRUE(frag.ok());
  ASSERT_GT(frag->num_segments, 10u);

  (*db)->SetObjectThreshold(*id, 16);
  EOS_ASSERT_OK((*db)->ReorganizeObject(*id));
  auto tidy = (*db)->ObjectStats(*id);
  ASSERT_TRUE(tidy.ok());
  EXPECT_LT(tidy->num_segments, 4u);
  EXPECT_GT(tidy->leaf_utilization, 0.99);
  auto all = (*db)->Read(*id, 0, model.size());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, model);
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

// Opens a copy of the chaos device's persisted image, as a restart would.
std::unique_ptr<Database> ReopenImage(ChaosPageDevice* chaos,
                                      const DatabaseOptions& opt =
                                          SmallOptions()) {
  auto image = chaos->CloneImage();
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (!image.ok()) return nullptr;
  auto db = Database::OpenOnDevice(std::move(*image), opt);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return nullptr;
  return std::move(*db);
}

// The directory reaches the volume only at Flush()/Checkpoint(). A write
// fault there must fail the flush, keep the superblock on the previous
// directory object, and keep the directory dirty, so the next flush
// persists the current state instead of an empty or stale directory. The
// fault is swept across an edit and the flush that follows it.
TEST(DatabaseTest, FailedDirectoryWriteKeepsPreviousDirectory) {
  int failed_flushes = 0;
  for (int k = 0; k < 6; ++k) {
    SCOPED_TRACE("write fault after " + std::to_string(k) + " writes");
    auto owner = std::make_unique<ChaosPageDevice>(
        std::make_unique<MemPageDevice>(SmallOptions().page_size, 1), k);
    ChaosPageDevice* chaos = owner.get();
    auto db = Database::CreateOnDevice(std::move(owner), SmallOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto a = (*db)->CreateObjectFrom(PatternBytes(30, 3000));
    auto b = (*db)->CreateObjectFrom(PatternBytes(31, 3000));
    ASSERT_TRUE(a.ok() && b.ok());
    EOS_ASSERT_OK((*db)->Flush());
    const std::vector<uint64_t> both = {*a, *b};

    chaos->FailWritesAfter(k);
    (void)(*db)->Append(*a, PatternBytes(32, 500));  // may fail; that's fine
    Status flushed = (*db)->Flush();
    chaos->Heal();
    if (!flushed.ok()) {
      ++failed_flushes;
      std::unique_ptr<Database> before = ReopenImage(chaos);
      ASSERT_NE(before, nullptr);
      auto ids = before->ListObjects();
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      EXPECT_EQ(*ids, both);
    }

    EOS_ASSERT_OK((*db)->Flush());
    auto live_size = (*db)->Size(*a);
    ASSERT_TRUE(live_size.ok()) << live_size.status().ToString();
    std::unique_ptr<Database> after = ReopenImage(chaos);
    ASSERT_NE(after, nullptr);
    auto ids = after->ListObjects();
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    EXPECT_EQ(*ids, both);
    auto size = after->Size(*a);
    ASSERT_TRUE(size.ok()) << size.status().ToString();
    EXPECT_EQ(*size, *live_size);
  }
  EXPECT_GT(failed_flushes, 0) << "no fault landed inside a flush";
}

// A flush whose directory write succeeded but whose superblock write
// failed leaves the durable superblock on the directory before it, and
// that directory still lists trees the current roots have superseded.
// RepairObject rebuilds the allocation maps from the current roots, so it
// must move the superblock first: a crash anywhere inside the repair has
// to reopen to a volume whose every listed object reads back intact.
TEST(DatabaseTest, CrashDuringRepairAfterFailedFlushKeepsVolumeReadable) {
  DatabaseOptions opt = SmallOptions();
  opt.crash_safe = true;
  const Bytes a0 = PatternBytes(40, 3000);
  const Bytes tail = PatternBytes(42, 500);
  const Bytes b0 = PatternBytes(41, 3000);
  Bytes a1 = a0;
  a1.insert(a1.end(), tail.begin(), tail.end());
  int failed_flushes = 0;
  int crashed_repairs = 0;
  for (int k = 0; k < 4; ++k) {
    for (int c = 0; c < 12; ++c) {
      SCOPED_TRACE("flush fails after " + std::to_string(k) +
                   " writes, repair crashes after " + std::to_string(c));
      auto owner = std::make_unique<ChaosPageDevice>(
          std::make_unique<MemPageDevice>(opt.page_size, 1), k);
      ChaosPageDevice* chaos = owner.get();
      auto db = Database::CreateOnDevice(std::move(owner), opt);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      auto a = (*db)->CreateObjectFrom(a0);
      auto b = (*db)->CreateObjectFrom(b0);
      ASSERT_TRUE(a.ok() && b.ok());
      EOS_ASSERT_OK((*db)->Flush());
      EOS_ASSERT_OK((*db)->Append(*a, tail));

      chaos->FailWritesAfter(k, /*permanent=*/true);
      Status flushed = (*db)->Flush();
      chaos->Heal();
      if (flushed.ok()) continue;
      if (c == 0) ++failed_flushes;

      chaos->CrashAfterWrites(c);
      if (!(*db)->RepairObject(*b).ok()) ++crashed_repairs;
      std::unique_ptr<Database> after = ReopenImage(chaos, opt);
      ASSERT_NE(after, nullptr);
      EOS_ASSERT_OK(after->Recover({}));
      auto ids = after->ListObjects();
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      EXPECT_EQ(*ids, (std::vector<uint64_t>{*a, *b}));
      auto got_a = after->Read(*a, 0, a1.size());
      ASSERT_TRUE(got_a.ok()) << got_a.status().ToString();
      EXPECT_TRUE(*got_a == a0 || *got_a == a1) << "object a reads neither "
                                                   "its old nor its new bytes";
      auto got_b = after->Read(*b, 0, b0.size());
      ASSERT_TRUE(got_b.ok()) << got_b.status().ToString();
      EXPECT_EQ(*got_b, b0);
      EOS_EXPECT_OK(after->CheckIntegrity());
    }
  }
  EXPECT_GT(failed_flushes, 0) << "no fault landed inside a flush";
  EXPECT_GT(crashed_repairs, 0) << "no crash landed inside a repair";
}

}  // namespace
}  // namespace eos
