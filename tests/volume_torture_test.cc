// Multi-volume robustness torture (DESIGN.md §15). A mirrored VolumeSet
// over chaos-wrapped members must keep every byte readable when a whole
// volume drops out: reads fail over to the replica, writes degrade with a
// typed error instead of diverging, scrub repairs bit rot from the mirror
// copy, and a full member sheds new placement while staying readable.
// Content is verified byte-exact against an in-memory oracle throughout,
// including while writers, snapshot readers and a scrub loop race a
// volume being yanked offline mid-pass.
//
// Failures print the seed; re-run with EOS_TEST_SEED=<n>.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/retry.h"
#include "eos/database.h"
#include "io/chaos_device.h"
#include "io/volume_set.h"
#include "tests/churn_driver.h"
#include "tests/model_oracle.h"
#include "tests/test_util.h"

namespace eos {
namespace {

// Failed assertions dump the flight-recorder journal (test_util.h).
const bool g_postmortem_listener = testing_util::InstallPostMortemOnFailure();

using testing_util::ChurnDriver;
using testing_util::ChurnOptions;
using testing_util::PatternBytes;
using testing_util::TestSeed;

std::string AsString(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// Three in-memory members, each behind a chaos wrapper so the test can
// yank a whole volume. Handles stay valid for the life of the database
// (the set owns the wrappers).
std::vector<std::unique_ptr<PageDevice>> MakeChaosMembers(
    int n, uint32_t page_size, uint64_t seed,
    std::vector<ChaosPageDevice*>* handles) {
  std::vector<std::unique_ptr<PageDevice>> members;
  for (int i = 0; i < n; ++i) {
    auto chaos = std::make_unique<ChaosPageDevice>(
        std::make_unique<MemPageDevice>(page_size, 0),
        seed + static_cast<uint64_t>(i));
    handles->push_back(chaos.get());
    members.push_back(std::move(chaos));
  }
  return members;
}

DatabaseOptions BaseOptions() {
  DatabaseOptions opt;
  opt.page_size = 512;
  opt.pager_frames = 32;
  // Small buddy spaces = small placement chunks (one space per chunk), so
  // even a few hundred pages stripe across all three members.
  opt.space_pages = 32;
  return opt;
}

// A mutation outcome in a degraded window: success, or a typed error.
// Data-destroying codes are never acceptable.
void ExpectTypedDegrade(const Status& s) {
  EXPECT_FALSE(s.IsCorruption()) << s.ToString();
  EXPECT_FALSE(s.IsOutOfRange()) << s.ToString();
  EXPECT_FALSE(s.IsInvalidArgument()) << s.ToString();
}

// A failed mutation may have been applied or unwound (e.g. the directory
// save failed after the object tree advanced). Reads must still work; the
// observed content must equal exactly the pre- or post-image, which the
// caller then adopts as the oracle.
void AdoptEitherState(Database* db, uint64_t id, std::string* oracle,
                      const std::string& post) {
  auto size = db->Size(id);
  ASSERT_TRUE(size.ok()) << size.status().ToString();
  auto got = db->Read(id, 0, *size);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::string observed = AsString(*got);
  ASSERT_TRUE(observed == *oracle || observed == post)
      << "object " << id << " is neither the pre- nor the post-image";
  *oracle = std::move(observed);
}

// ----- read failover ---------------------------------------------------------

TEST(VolumeTortureTest, MirroredFailoverByteExact) {
  const uint64_t seed = TestSeed(0x70A1);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  std::vector<ChaosPageDevice*> chaos;
  auto members = MakeChaosMembers(3, 512, seed, &chaos);
  auto db = Database::CreateOnVolumeSet(std::move(members), VolumeSetOptions{},
                                        BaseOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  ChurnOptions copt;
  copt.num_objects = 10;
  copt.initial_object_bytes = 8u << 10;
  copt.max_object_bytes = 32u << 10;
  ChurnDriver driver(db->get(), seed, copt);
  EOS_ASSERT_OK(driver.SetUp());
  EOS_ASSERT_OK(driver.Epoch());
  EOS_ASSERT_OK((*db)->Flush());

  VolumeSetDevice* set = (*db)->volume_set();
  ASSERT_NE(set, nullptr);

  // Yank one member at a time; every byte must come back from the mirror.
  for (int victim = 1; victim <= 2; ++victim) {
    chaos[victim]->SetOffline(true);
    uint64_t failovers_before = set->failover_reads();
    EOS_ASSERT_OK(driver.VerifyAll());
    EXPECT_GT(set->failover_reads(), failovers_before)
        << "no read ever failed over with member " << victim << " offline";
    chaos[victim]->SetOffline(false);
    // Reads bring the member back via the periodic probe; until then the
    // set keeps serving from the mirror, so verification stays exact.
    EOS_ASSERT_OK(driver.VerifyAll());
  }
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

// ----- degraded writes -------------------------------------------------------

TEST(VolumeTortureTest, WritesDegradeTypedWhileVolumeOffline) {
  const uint64_t seed = TestSeed(0x70A2);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  std::vector<ChaosPageDevice*> chaos;
  auto members = MakeChaosMembers(3, 512, seed, &chaos);
  DatabaseOptions opt = BaseOptions();
  // Write-through: every page write reaches the set immediately, so the
  // degraded window produces its typed failures deterministically.
  opt.crash_safe = true;
  auto db = Database::CreateOnVolumeSet(std::move(members), VolumeSetOptions{},
                                        opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  constexpr int kObjects = 8;
  std::vector<uint64_t> ids;
  std::vector<std::string> oracle;
  for (int i = 0; i < kObjects; ++i) {
    Bytes payload = PatternBytes(seed + i, 4096);
    auto id = (*db)->CreateObjectFrom(payload);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
    oracle.push_back(AsString(payload));
  }
  EOS_ASSERT_OK((*db)->Flush());

  chaos[2]->SetOffline(true);
  bool any_failed = false;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < kObjects; ++i) {
      Bytes extra = PatternBytes(seed ^ (round * 100 + i), 700);
      Status s = (*db)->Append(ids[i], extra);
      if (s.ok()) {
        oracle[i] += AsString(extra);
        continue;
      }
      any_failed = true;
      ExpectTypedDegrade(s);
      AdoptEitherState(db->get(), ids[i], &oracle[i],
                       oracle[i] + AsString(extra));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_TRUE(any_failed)
      << "no mutation ever touched the offline member's chunks";

  VolumeSetDevice* set = (*db)->volume_set();
  VolumeSetDevice::Health h = set->GetHealth();
  EXPECT_FALSE(h.members[2].online);
  EXPECT_GT(h.degraded_writes, 0u);

  // Reads stay byte-exact throughout the outage.
  for (int i = 0; i < kObjects; ++i) {
    auto got = (*db)->Read(ids[i], 0, oracle[i].size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(AsString(*got), oracle[i]) << "object " << ids[i];
  }

  // The volume returns: writes reach it again (no operator action; the
  // write path does not gate on the offline flag) and mutations succeed.
  chaos[2]->SetOffline(false);
  for (int i = 0; i < kObjects; ++i) {
    Bytes extra = PatternBytes(seed ^ (0xBEEF + i), 512);
    EOS_ASSERT_OK((*db)->Append(ids[i], extra));
    oracle[i] += AsString(extra);
  }
  // Scrub under the repair scope re-converges any pair the failed writes
  // left diverged, then everything verifies byte-exact.
  ScrubReport rep;
  EOS_ASSERT_OK((*db)->Scrub(&rep));
  EXPECT_TRUE(rep.clean());
  for (int i = 0; i < kObjects; ++i) {
    auto got = (*db)->Read(ids[i], 0, oracle[i].size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(AsString(*got), oracle[i]) << "object " << ids[i];
  }
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

// ----- concurrent scrub + snapshot readers + writers vs volume failure -------

TEST(VolumeTortureTest, ConcurrentScrubWithVolumeFailure) {
  const uint64_t seed = TestSeed(0x70A3);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  std::vector<ChaosPageDevice*> chaos;
  auto members = MakeChaosMembers(3, 512, seed, &chaos);
  DatabaseOptions opt = BaseOptions();
  opt.parallel_io = true;  // scrub fans out across the members
  // Write-through pager: a failed write surfaces typed at the mutation
  // that issued it. With write-behind it would surface later, inside
  // whichever read had to evict the dirty page — making "reads stay
  // available while a volume is down" impossible to honor.
  opt.crash_safe = true;
  auto db = Database::CreateOnVolumeSet(std::move(members), VolumeSetOptions{},
                                        opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();

  constexpr int kObjects = 6;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  std::vector<uint64_t> ids(kObjects);
  std::vector<std::string> oracle(kObjects);
  std::vector<std::mutex> obj_mu(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    Bytes payload = PatternBytes(seed * 31 + i, 8u << 10);
    auto id = dbp->CreateObjectFrom(payload);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids[i] = *id;
    oracle[i] = AsString(payload);
  }
  EOS_ASSERT_OK(dbp->Flush());
  VolumeSetDevice* set = dbp->volume_set();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::string> errors(kWriters + kReaders + 1);
  auto fail = [&](int slot, std::string why) {
    errors[slot] = std::move(why);
    failed.store(true);
  };

  std::vector<std::thread> threads;
  // Writers own disjoint object subsets, so each object's oracle string is
  // mutated by exactly one thread (readers take the same per-object mutex
  // only to pin snapshot + expected atomically).
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(seed ^ (0x57A0 + w));
      while (!stop.load() && !failed.load()) {
        int i = w + kWriters * static_cast<int>(rng() % (kObjects / kWriters));
        std::lock_guard<std::mutex> lock(obj_mu[i]);
        // Keep objects from growing without bound across the run.
        if (oracle[i].size() > (64u << 10)) {
          uint64_t cut = oracle[i].size() / 2;
          Status s = dbp->Delete(ids[i], 0, cut);
          if (s.ok()) {
            oracle[i].erase(0, cut);
          } else if (s.IsCorruption() || s.IsOutOfRange() ||
                     s.IsInvalidArgument()) {
            fail(w, "delete: " + s.ToString());
            return;
          } else {
            // Degraded window: the trim may or may not have committed
            // (directory save can fail after the root was published).
            // Adopt whichever of the two legal states the database holds.
            std::string post = oracle[i].substr(cut);
            auto size = dbp->Size(ids[i]);
            if (!size.ok()) {
              fail(w, "size after failed delete: " + size.status().ToString());
              return;
            }
            auto got = dbp->Read(ids[i], 0, *size);
            if (!got.ok()) {
              fail(w, "read after failed delete: " + got.status().ToString());
              return;
            }
            std::string observed = AsString(*got);
            if (observed != oracle[i] && observed != post) {
              fail(w, "object " + std::to_string(ids[i]) +
                          " neither pre- nor post-image after failed delete");
              return;
            }
            oracle[i] = std::move(observed);
          }
          continue;
        }
        Bytes extra = PatternBytes(rng(), 1 + rng() % 600);
        Status s = dbp->Append(ids[i], extra);
        if (s.ok()) {
          oracle[i] += AsString(extra);
          continue;
        }
        // Degraded window: typed failure, then adopt whichever of the two
        // legal states the database actually holds.
        if (s.IsCorruption() || s.IsOutOfRange() || s.IsInvalidArgument()) {
          fail(w, "append: " + s.ToString());
          return;
        }
        std::string post = oracle[i] + AsString(extra);
        auto size = dbp->Size(ids[i]);
        if (!size.ok()) {
          fail(w, "size after failed append: " + size.status().ToString());
          return;
        }
        auto got = dbp->Read(ids[i], 0, *size);
        if (!got.ok()) {
          fail(w, "read after failed append: " + got.status().ToString());
          return;
        }
        std::string observed = AsString(*got);
        if (observed != oracle[i] && observed != post) {
          fail(w, "object " + std::to_string(ids[i]) +
                      " neither pre- nor post-image after failed append");
          return;
        }
        oracle[i] = std::move(observed);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    const int slot = kWriters + r;
    threads.emplace_back([&, slot, r] {
      std::mt19937_64 rng(seed ^ (0x4EAD + r));
      while (!stop.load() && !failed.load()) {
        int i = static_cast<int>(rng() % kObjects);
        Snapshot snap;
        std::string expected;
        {
          std::lock_guard<std::mutex> lock(obj_mu[i]);
          auto s = dbp->BeginSnapshot(ids[i]);
          if (!s.ok()) {
            fail(slot, "pin: " + s.status().ToString());
            return;
          }
          snap = std::move(s).value();
          expected = oracle[i];
        }
        // Lock-free verification outside the latch; the read must be
        // byte-exact even while the object's volume is offline.
        auto got = dbp->SnapshotRead(snap, 0, expected.size() + 1);
        if (!got.ok()) {
          fail(slot, "snapshot read: " + got.status().ToString());
          return;
        }
        if (AsString(*got) != expected) {
          fail(slot, "snapshot of object " + std::to_string(ids[i]) +
                         " is not byte-exact");
          return;
        }
      }
    });
  }
  const int scrub_slot = kWriters + kReaders;
  std::atomic<uint64_t> scrubs_ok{0};
  threads.emplace_back([&] {
    while (!stop.load() && !failed.load()) {
      ScrubReport rep;
      Status s = dbp->Scrub(&rep);
      if (s.ok()) {
        scrubs_ok.fetch_add(1);
        if (!rep.clean()) {
          fail(scrub_slot, "scrub found issues with a live mirror: " +
                               rep.issues[0].message);
          return;
        }
      } else if (s.IsCorruption()) {
        // Flush/walk may fail typed while a volume is out; silent damage
        // may not.
        fail(scrub_slot, "scrub: " + s.ToString());
        return;
      }
      // Routine maintenance: checkpoints release superseded version
      // storage (crash_safe parks it until then), keeping the set from
      // growing without bound under churn. Typed failures while a volume
      // is out are fine; the parked extents stay on the checkpoint list.
      Status cp = dbp->Checkpoint();
      if (cp.IsCorruption()) {
        fail(scrub_slot, "checkpoint: " + cp.ToString());
        return;
      }
    }
  });

  // Yank member 1 mid-scrub a few times, healing it in between.
  for (int cycle = 0; cycle < 3 && !failed.load(); ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    chaos[1]->SetOffline(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    chaos[1]->SetOffline(false);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  stop.store(true);
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  EXPECT_GT(scrubs_ok.load(), 0u);
  EXPECT_GT(set->failover_reads(), 0u)
      << "the degraded windows never exercised replica failover";

  // Quiesced and healed: one more write per object must succeed, the final
  // scrub must be clean, and everything must match the oracle byte-exact.
  for (int i = 0; i < kObjects; ++i) {
    Bytes extra = PatternBytes(seed ^ (0xF1A7 + i), 256);
    EOS_ASSERT_OK(dbp->Append(ids[i], extra));
    oracle[i] += AsString(extra);
  }
  ScrubReport rep;
  EOS_ASSERT_OK(dbp->Scrub(&rep));
  EXPECT_TRUE(rep.clean());
  for (int i = 0; i < kObjects; ++i) {
    auto got = dbp->Read(ids[i], 0, oracle[i].size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(AsString(*got), oracle[i]) << "object " << ids[i];
  }
  EOS_EXPECT_OK(dbp->CheckIntegrity());
  EOS_EXPECT_OK(dbp->Checkpoint());
  LeakCheckReport leaks;
  EOS_EXPECT_OK(dbp->LeakCheck(&leaks));
  EXPECT_TRUE(leaks.leaked.empty());
  EXPECT_TRUE(leaks.doubly_referenced.empty());
}

// ----- full volume sheds placement ------------------------------------------

TEST(VolumeTortureTest, FullVolumeShedsPlacementStaysReadable) {
  const uint64_t seed = TestSeed(0x70A4);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  std::vector<ChaosPageDevice*> chaos;
  auto members = MakeChaosMembers(3, 512, seed, &chaos);
  auto db = Database::CreateOnVolumeSet(std::move(members), VolumeSetOptions{},
                                        BaseOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<uint64_t> ids;
  std::vector<std::string> oracle;
  auto create_one = [&](uint64_t salt) -> Status {
    Bytes payload = PatternBytes(seed + salt, 6u << 10);
    EOS_ASSIGN_OR_RETURN(uint64_t id, (*db)->CreateObjectFrom(payload));
    ids.push_back(id);
    oracle.push_back(AsString(payload));
    return Status::OK();
  };
  for (uint64_t i = 0; i < 4; ++i) EOS_ASSERT_OK(create_one(i));
  EOS_ASSERT_OK((*db)->Flush());

  // Member 2 hits its physical end: every further grow is typed NoSpace.
  chaos[2]->FailGrowsAfter(0, /*permanent=*/true);

  // The volume keeps accepting data — new chunks just land elsewhere.
  for (uint64_t i = 4; i < 24; ++i) EOS_ASSERT_OK(create_one(100 + i));

  VolumeSetDevice* set = (*db)->volume_set();
  VolumeSetDevice::Health h = set->GetHealth();
  EXPECT_TRUE(h.members[2].shedding) << "full member never shed placement";
  EXPECT_TRUE(h.members[2].online) << "a full member is not a dead member";
  EXPECT_GT(h.shed_placements, 0u);
  EXPECT_GT(h.members[0].data_blocks + h.members[1].data_blocks,
            2 * h.members[2].data_blocks)
      << "placement did not rebalance away from the full member";

  // Everything placed before and after the shed reads back byte-exact,
  // and data already on the full member stays writable in place.
  for (size_t i = 0; i < ids.size(); ++i) {
    auto got = (*db)->Read(ids[i], 0, oracle[i].size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(AsString(*got), oracle[i]) << "object " << ids[i];
  }
  Bytes patch = PatternBytes(seed ^ 0xFULL, 1024);
  EOS_ASSERT_OK((*db)->Replace(ids[0], 0, patch));
  oracle[0].replace(0, patch.size(), AsString(patch));
  auto got = (*db)->Read(ids[0], 0, oracle[0].size());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(AsString(*got), oracle[0]);
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

TEST(VolumeTortureTest, CapacityWatermarkShedsBeforeFull) {
  const uint64_t seed = TestSeed(0x70A5);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  std::vector<ChaosPageDevice*> chaos;
  DatabaseOptions opt = BaseOptions();
  auto members = MakeChaosMembers(3, 512, seed, &chaos);
  VolumeSetOptions vopt;
  vopt.member_capacity_pages = 500;
  vopt.shed_watermark_pages = 150;
  auto db = Database::CreateOnVolumeSet(std::move(members), vopt, opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<uint64_t> ids;
  std::vector<std::string> oracle;
  bool shed = false;
  for (uint64_t i = 0; i < 40 && !shed; ++i) {
    Bytes payload = PatternBytes(seed + i, 6u << 10);
    auto id = (*db)->CreateObjectFrom(payload);
    ASSERT_TRUE(id.ok()) << "write failed before the watermark shed: "
                         << id.status().ToString();
    ids.push_back(*id);
    oracle.push_back(AsString(payload));
    VolumeSetDevice::Health h = (*db)->volume_set()->GetHealth();
    for (const auto& m : h.members) shed |= m.shedding;
  }
  EXPECT_TRUE(shed) << "no member reached its capacity watermark";
  EXPECT_GT((*db)->volume_set()->GetHealth().shed_placements, 0u);
  for (size_t i = 0; i < ids.size(); ++i) {
    auto got = (*db)->Read(ids[i], 0, oracle[i].size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(AsString(*got), oracle[i]) << "object " << ids[i];
  }
}

// ----- scrub repairs bit rot from the replica --------------------------------

TEST(VolumeTortureTest, ScrubRepairsBitRotFromReplica) {
  const uint64_t seed = TestSeed(0x70A6);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  std::vector<ChaosPageDevice*> chaos;
  auto members = MakeChaosMembers(3, 512, seed, &chaos);
  auto db = Database::CreateOnVolumeSet(std::move(members), VolumeSetOptions{},
                                        BaseOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  constexpr int kObjects = 6;
  std::vector<uint64_t> ids;
  std::vector<std::string> oracle;
  for (int i = 0; i < kObjects; ++i) {
    Bytes payload = PatternBytes(seed * 7 + i, 8u << 10);
    auto id = (*db)->CreateObjectFrom(payload);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
    oracle.push_back(AsString(payload));
  }
  EOS_ASSERT_OK((*db)->Flush());
  VolumeSetDevice* set = (*db)->volume_set();

  // Rot the *primary* copy of every readable page in a sample of the
  // logical space (pages that do not read back are unwritten/free; bit rot
  // there is invisible and uninteresting).
  Bytes buf(set->page_size());
  std::vector<PageId> rotted;
  uint64_t limit = std::min<uint64_t>(set->page_count(), 240);
  for (PageId p = 1; p < limit; p += 3) {
    if (!set->ReadPages(p, 1, buf.data()).ok()) continue;
    auto loc = set->Resolve(p);
    ASSERT_TRUE(loc.ok()) << loc.status().ToString();
    EOS_ASSERT_OK(chaos[loc->member]->CorruptPage(loc->local, /*bits=*/3));
    rotted.push_back(p);
  }
  ASSERT_GT(rotted.size(), 10u);

  // Plain reads of every rotted page fail over to the replica.
  uint64_t failovers_before = set->failover_reads();
  for (PageId p : rotted) {
    EOS_EXPECT_OK(set->ReadPages(p, 1, buf.data()));
  }
  EXPECT_GT(set->failover_reads(), failovers_before);

  // Scrub heals the rotted copies from the replica in place: no issues, no
  // zero-filled holes, a positive repair count.
  ScrubReport rep;
  EOS_ASSERT_OK((*db)->Scrub(&rep));
  EXPECT_TRUE(rep.clean()) << rep.issues.size() << " issue(s), first: "
                           << (rep.issues.empty()
                                   ? ""
                                   : rep.issues[0].message);
  EXPECT_GT(rep.repaired_from_replica, 0u);
  for (int i = 0; i < kObjects; ++i) {
    EXPECT_TRUE((*db)->GetHoles(ids[i]).empty());
    auto got = (*db)->Read(ids[i], 0, oracle[i].size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(AsString(*got), oracle[i]) << "object " << ids[i];
  }
  // A second pass has nothing left to do on the pages scrub visits.
  ScrubReport rep2;
  EOS_ASSERT_OK((*db)->Scrub(&rep2));
  EXPECT_TRUE(rep2.clean());
  EOS_EXPECT_OK((*db)->CheckIntegrity());
}

// ----- deadline-aware retry --------------------------------------------------

TEST(VolumeTortureTest, RetryLoopStopsAtAmbientDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.base_backoff_us = 2000;
  policy.max_backoff_us = 2000;
  ScopedOpContext ctx(OpContext{Deadline::After(std::chrono::milliseconds(10)),
                                CancelToken()});
  int calls = 0;
  auto start = std::chrono::steady_clock::now();
  Status s = RunWithRetry(policy, [&] {
    ++calls;
    return Status::IOError("flaky media");
  });
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  // The deadline cut the loop short; unbounded it would sleep ~2 seconds.
  EXPECT_LT(calls, policy.max_attempts);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(VolumeTortureTest, RetryWithoutDeadlineRunsAllAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_us = 0;
  int calls = 0;
  Status s = RunWithRetry(policy, [&] {
    ++calls;
    return Status::IOError("flaky media");
  });
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace eos
