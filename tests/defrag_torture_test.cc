// Online-defragmenter torture (ISSUE 7, DESIGN.md §12). Four angles:
//
//   1. Oracle-checked migration: churn shatters a population, the
//      defragmenter drains it back to near-ideal layout, and every byte
//      still equals its ModelLob mirror; no leaked or doubly-referenced
//      pages afterwards.
//   2. Concurrency: the background tick thread plus explicit ticks run
//      against live reader and writer threads; quiesce points verify the
//      oracle, the allocation maps, and the integrity walkers.
//   3. Mid-defrag crash: on a crash-safe stack, power is lost after every
//      k-th device write of a migrating tick (some torn); Recover() must
//      restore exactly the committed pre-defrag bytes, because migration
//      is content-neutral and unlogged — parked frees keep every page a
//      durable root reaches unrecycled until the checkpoint lands.
//   4. Allocation faults: the k-th allocation of a migration fails with
//      typed NoSpace; the migration must unwind byte-exactly and leak
//      nothing, and a later tick (fault disarmed) must succeed.
//
// Failures print the seed; re-run with EOS_TEST_SEED=<n>. The `aging`
// ctest label puts this suite in tools/run_checks.sh's seed sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "buddy/segment_allocator.h"
#include "eos/database.h"
#include "io/chaos_device.h"
#include "lob/defrag.h"
#include "tests/churn_driver.h"
#include "tests/model_oracle.h"
#include "tests/test_util.h"
#include "txn/log_manager.h"

namespace eos {
namespace {

// Failed assertions dump the flight-recorder journal (test_util.h).
const bool g_postmortem_listener = testing_util::InstallPostMortemOnFailure();

using testing_util::ApplyToModel;
using testing_util::ChurnDriver;
using testing_util::ChurnOptions;
using testing_util::LobOp;
using testing_util::ModelLob;
using testing_util::PatternBytes;
using testing_util::PayloadFor;
using testing_util::RandomOp;
using testing_util::TestSeed;

// Every object is a migration candidate regardless of how shattered it
// is — the torture wants migrations, not selectivity.
DefragOptions EagerDefrag() {
  DefragOptions d;
  d.min_scatter = 0.0;
  d.max_objects_per_tick = 64;
  d.max_bytes_per_tick = 1ull << 30;
  return d;
}

// A fixed number of quiesced ticks: the first establishes the cold
// horizon (everything looks freshly mutated), later ones migrate. Bounded
// by rounds, not convergence — a zero min_scatter keeps every object a
// permanent candidate, so a convergence loop would never terminate.
constexpr int kDrainRounds = 3;

void DrainDefrag(Database* db, DefragReport* total) {
  for (int i = 0; i < kDrainRounds; ++i) {
    DefragReport rep;
    EOS_ASSERT_OK(db->DefragTick(&rep));
    total->migrated += rep.migrated;
    total->migrated_bytes += rep.migrated_bytes;
    total->failed += rep.failed;
    total->refused += rep.refused;
  }
}

void ExpectNoLeaks(Database* db) {
  LeakCheckReport leak;
  EOS_ASSERT_OK(db->LeakCheck(&leak));
  EXPECT_TRUE(leak.leaked.empty())
      << leak.leaked.size() << " leaked extents";
  EXPECT_TRUE(leak.doubly_referenced.empty())
      << leak.doubly_referenced.size() << " doubly-referenced extents";
}

double MeanScatter(Database* db, const std::vector<uint64_t>& ids) {
  double sum = 0.0;
  size_t n = 0;
  for (uint64_t id : ids) {
    auto stats = db->ObjectStats(id);
    if (!stats.ok()) continue;
    sum += Defragmenter::ScatterOf(*stats, db->lob()->page_size(),
                                   db->lob()->max_segment_pages());
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 1.0;
}

// ---- 1. oracle-checked migration -------------------------------------------

TEST(DefragTortureTest, MigrationPreservesEveryByteAndLeaksNothing) {
  const uint64_t seed = TestSeed(0xDEF1);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");

  DatabaseOptions o;
  o.page_size = 4096;
  o.pager_frames = 128;
  o.space_pages = 1024;
  o.defrag = EagerDefrag();
  auto db_or = Database::CreateOnDevice(
      std::make_unique<MemPageDevice>(o.page_size, 1), o);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(*db_or);

  ChurnOptions copt;
  copt.num_objects = 24;
  copt.max_edit_bytes = 16384;  // multi-page inserts shatter fastest
  ChurnDriver churn(db.get(), seed, copt);
  EOS_ASSERT_OK(churn.SetUp());
  for (int epoch = 0; epoch < 4; ++epoch) EOS_ASSERT_OK(churn.Epoch());
  EOS_ASSERT_OK(churn.VerifyAll());

  double before = MeanScatter(db.get(), churn.ids());
  DefragReport total;
  DrainDefrag(db.get(), &total);
  double after = MeanScatter(db.get(), churn.ids());

  EXPECT_GT(total.migrated, 0u);
  EXPECT_EQ(total.failed, 0u);
  EXPECT_LE(after, before) << "defrag made the layout worse";
  EOS_ASSERT_OK(churn.VerifyAll());
  EOS_ASSERT_OK(db->CheckIntegrity());
  ExpectNoLeaks(db.get());
}

// ---- 2. concurrent readers/writers/defragmenter ----------------------------

TEST(DefragTortureTest, ConcurrentChurnReadersAndBackgroundDefrag) {
  const uint64_t seed = TestSeed(0xDEF2);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");

  DatabaseOptions o;
  o.page_size = 4096;
  o.pager_frames = 128;
  o.defrag = EagerDefrag();
  o.defrag.enabled = true;  // live background thread from the start
  o.defrag.interval_ms = 1;
  auto db_or = Database::CreateOnDevice(
      std::make_unique<MemPageDevice>(o.page_size, 1), o);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(*db_or);

  // Each writer owns a disjoint population via its own driver (object ids
  // never collide: the database hands them out under the writer latch).
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kRounds = 3;
  ChurnOptions copt;
  copt.num_objects = 8;
  copt.initial_object_bytes = 24u << 10;
  copt.max_edit_bytes = 8192;
  copt.ops_per_epoch = 96;
  std::vector<std::unique_ptr<ChurnDriver>> drivers;
  std::vector<uint64_t> all_ids;
  for (int w = 0; w < kWriters; ++w) {
    drivers.push_back(std::make_unique<ChurnDriver>(
        db.get(), seed * 31 + w, copt));
    EOS_ASSERT_OK(drivers.back()->SetUp());
    all_ids.insert(all_ids.end(), drivers.back()->ids().begin(),
                   drivers.back()->ids().end());
  }

  for (int round = 0; round < kRounds; ++round) {
    std::vector<Status> writer_status(kWriters, Status::OK());
    std::vector<Status> reader_status(kReaders, Status::OK());
    std::atomic<bool> stop_readers{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] { writer_status[w] = drivers[w]->Epoch(); });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        std::mt19937_64 rng(seed * 97 + r);
        while (!stop_readers.load(std::memory_order_relaxed)) {
          uint64_t id = all_ids[rng() % all_ids.size()];
          auto data = db->Read(id, 0, 2048);
          // Lifecycle churn drops and recreates objects; a vanished id is
          // fine, anything else is not.
          if (!data.ok() && !data.status().IsNotFound()) {
            reader_status[r] = data.status();
            return;
          }
        }
      });
    }
    // Explicit ticks race the background thread and the foreground load.
    for (int t = 0; t < 4; ++t) EOS_ASSERT_OK(db->DefragTick(nullptr));
    for (int w = 0; w < kWriters; ++w) threads[w].join();
    stop_readers.store(true, std::memory_order_relaxed);
    for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
    for (const Status& s : writer_status) EOS_ASSERT_OK(s);
    for (const Status& s : reader_status) EOS_ASSERT_OK(s);

    // Quiesce point: every surviving object byte-equal to its mirror.
    for (const auto& d : drivers) EOS_ASSERT_OK(d->VerifyAll());
    EOS_ASSERT_OK(db->CheckIntegrity());
    ExpectNoLeaks(db.get());
  }

  db->defragmenter()->Stop();
  DefragReport total;
  DrainDefrag(db.get(), &total);
  for (const auto& d : drivers) EOS_ASSERT_OK(d->VerifyAll());
  EOS_ASSERT_OK(db->CheckIntegrity());
  ExpectNoLeaks(db.get());
}

// ---- 3. mid-defrag crash recovery ------------------------------------------

constexpr uint32_t kCrashPage = 256;
constexpr int kCrashObjects = 4;
constexpr int kFragmentOps = 24;

// Crash-safe stack on a chaos device with a fragmented, committed,
// checkpointed population. Deterministic for a seed, so the reference run
// and every crash run perform identical writes.
struct CrashRig {
  std::unique_ptr<LogManager> log;
  std::unique_ptr<Database> db;
  ChaosPageDevice* chaos = nullptr;
  std::vector<uint64_t> ids;
  std::vector<std::string> committed;  // oracle bytes at the checkpoint
};

CrashRig MakeCrashRig(uint64_t seed) {
  CrashRig rig;
  rig.log = std::make_unique<LogManager>();
  DatabaseOptions o;
  o.page_size = kCrashPage;
  o.pager_frames = 16;
  o.crash_safe = true;
  o.defrag = EagerDefrag();
  auto chaos = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(kCrashPage, 1), seed);
  rig.chaos = chaos.get();
  auto db = Database::CreateOnDevice(std::move(chaos), o);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return rig;
  rig.db = std::move(*db);
  rig.db->AttachLog(rig.log.get());

  std::mt19937 rng(static_cast<uint32_t>(seed ^ 0xDEF3));
  std::vector<ModelLob> models(kCrashObjects);
  for (int i = 0; i < kCrashObjects; ++i) {
    Bytes init = PatternBytes(seed * 10 + i, 2200 + 800 * i);
    auto id = rig.db->CreateObjectFrom(init);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) return rig;
    rig.ids.push_back(*id);
    models[i].Append(init);
  }
  // Shatter the objects with committed, logged edits.
  for (int i = 0; i < kFragmentOps; ++i) {
    int t = static_cast<int>(rng() % kCrashObjects);
    LobOp op = RandomOp(&rng, models[t], kCrashPage, seed * 100 + i,
                        /*logged_only=*/true);
    Status st;
    switch (op.kind) {
      case LobOp::kAppend:
        st = rig.db->Append(rig.ids[t], PayloadFor(op));
        break;
      case LobOp::kInsert:
        st = rig.db->Insert(rig.ids[t], op.offset, PayloadFor(op));
        break;
      case LobOp::kDelete:
        st = rig.db->Delete(rig.ids[t], op.offset, op.len);
        break;
      case LobOp::kReplace:
        st = rig.db->Replace(rig.ids[t], op.offset, PayloadFor(op));
        break;
      default:
        st = Status::InvalidArgument("unscriptable op");
    }
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return rig;
    ApplyToModel(op, &models[t]);
  }
  Status cp = rig.db->Checkpoint();
  EXPECT_TRUE(cp.ok()) << cp.ToString();
  for (int i = 0; i < kCrashObjects; ++i) {
    rig.committed.push_back(std::string(models[i].bytes()));
  }
  return rig;
}

void ExpectCommittedBytes(Database* db, const CrashRig& rig) {
  for (size_t i = 0; i < rig.ids.size(); ++i) {
    auto data = db->Read(rig.ids[i], 0, rig.committed[i].size() + 1);
    ASSERT_TRUE(data.ok()) << "object " << rig.ids[i] << ": "
                           << data.status().ToString();
    ASSERT_EQ(data->size(), rig.committed[i].size())
        << "object " << rig.ids[i];
    EXPECT_TRUE(std::equal(data->begin(), data->end(),
                           rig.committed[i].begin(),
                           [](uint8_t a, char b) {
                             return a == static_cast<uint8_t>(b);
                           }))
        << "object " << rig.ids[i] << " content differs from the oracle";
  }
}

TEST(DefragTortureTest, MidDefragCrashRecoversCommittedState) {
  const uint64_t seed = TestSeed(0xDEF3);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");

  // Fault-free reference: count the writes of a migrating drain (tick 1
  // establishes the cold horizon, tick 2 migrates, plus the trailing
  // checkpoint) and check it is content-neutral.
  CrashRig ref = MakeCrashRig(seed);
  ASSERT_NE(ref.db, nullptr);
  uint64_t w0 = ref.chaos->stats().write_calls;
  DefragReport total;
  DrainDefrag(ref.db.get(), &total);
  const uint64_t W = ref.chaos->stats().write_calls - w0;
  ASSERT_GT(total.migrated, 0u) << "reference drain migrated nothing";
  ASSERT_GT(W, 0u);
  ExpectCommittedBytes(ref.db.get(), ref);
  EOS_ASSERT_OK(ref.db->CheckIntegrity());
  ExpectNoLeaks(ref.db.get());

  // Lose power after the k-th write of the drain, a third of them torn.
  const uint64_t stride = std::max<uint64_t>(1, W / 24);
  int points = 0;
  for (uint64_t k = 0; k < W; k += stride, ++points) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " +
                 std::to_string(W) + " defrag writes");
    CrashRig rig = MakeCrashRig(seed);
    ASSERT_NE(rig.db, nullptr);
    rig.chaos->CrashAfterWrites(k, points % 3 == 0 ? 1 : 0);
    // The dying ticks surface IO errors; only the crash itself matters.
    for (int t = 0; t < kDrainRounds; ++t) {
      DefragReport rep;
      (void)rig.db->DefragTick(&rep);
    }
    ASSERT_TRUE(rig.chaos->crashed()) << "crash point never reached";
    auto image = rig.chaos->CloneImage();
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    std::vector<LogRecord> wal = rig.log->records();
    rig.db.reset();  // the dying flush fails against the dead device

    DatabaseOptions o;
    o.page_size = kCrashPage;
    o.pager_frames = 16;
    o.crash_safe = true;
    auto db2 = Database::OpenOnDevice(std::move(*image), o);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    EOS_ASSERT_OK((*db2)->Recover(wal));
    EOS_ASSERT_OK((*db2)->CheckIntegrity());
    ExpectCommittedBytes(db2->get(), rig);
    ExpectNoLeaks(db2->get());
  }
  ASSERT_GE(points, 10);
}

// ---- 4. allocation faults mid-migration ------------------------------------

TEST(DefragTortureTest, AllocFaultDuringMigrationUnwindsWithoutLeaks) {
  const uint64_t seed = TestSeed(0xDEF4);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");

  DatabaseOptions o;
  o.page_size = 1024;
  o.pager_frames = 64;
  o.defrag = EagerDefrag();
  // Small maximal segments: the ~84-page object migrates into about a
  // dozen of them, so the swept fault lands on the migration's own
  // allocations rather than on bookkeeping around it.
  o.lob.max_segment_pages = 8;
  auto db_or = Database::CreateOnDevice(
      std::make_unique<MemPageDevice>(o.page_size, 1), o);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(*db_or);

  // One object, shattered by interleaved multi-page inserts.
  ModelLob model;
  Bytes init = PatternBytes(seed, 48u << 10);
  auto id_or = db->CreateObjectFrom(init);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  uint64_t id = *id_or;
  model.Append(init);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 12; ++i) {
    Bytes data = PatternBytes(seed * 7 + i, 3000);
    uint64_t off = rng() % (model.size() + 1);
    model.Insert(off, data);
    EOS_ASSERT_OK(db->Insert(id, off, data));
  }
  EOS_ASSERT_OK(db->DefragTick(nullptr));  // establish the cold horizon

  // Fail the k-th allocation of the migrating tick. Small k always lands
  // inside the migration (which must unwind byte-exactly and leak
  // nothing); once k exceeds the migration's allocation count the fault
  // never fires and the migration legitimately succeeds — either way the
  // object must stay byte-exact.
  int unwinds = 0;
  for (int64_t k = 0; k < 8; ++k) {
    SCOPED_TRACE("alloc fault at allocation " + std::to_string(k));
    db->allocator()->set_alloc_fault_countdown(k);
    DefragReport rep;
    Status st = db->DefragTick(&rep);
    db->allocator()->set_alloc_fault_countdown(-1);
    EOS_ASSERT_OK(st);  // the tick absorbs the failure into its report
    if (rep.migrated == 0) {
      EXPECT_GE(rep.refused + rep.failed, 1u)
          << "migration vanished without a recorded fault";
      ++unwinds;
    }
    auto data = db->Read(id, 0, model.size() + 1);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    ASSERT_EQ(data->size(), model.size());
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(data->data()),
                          data->size()),
              model.bytes());
    EOS_ASSERT_OK(db->CheckIntegrity());
    ExpectNoLeaks(db.get());
  }
  EXPECT_GE(unwinds, 2) << "the fault sweep never landed inside a migration";

  // Disarmed, the very next tick succeeds.
  DefragReport rep;
  EOS_ASSERT_OK(db->DefragTick(&rep));
  EXPECT_GT(rep.migrated, 0u);
  auto data = db->Read(id, 0, model.size() + 1);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(data->data()),
                        data->size()),
            model.bytes());
  ExpectNoLeaks(db.get());
}

}  // namespace
}  // namespace eos
