// Exhaustive crash-point recovery torture (ISSUE: crash-consistency
// harness). A scripted multi-object workload runs on a crash-safe Database
// over a ChaosPageDevice; the device loses power after every k-th write
// call (k = 0..W-1, some with a torn final write), the persisted image is
// re-opened by a fresh stack, and Recover() must restore exactly the
// committed oracle state: every committed object byte-for-byte equal to
// its model, every uncommitted effect gone, invariant checkers green.
//
// Failures print the op trace and the seed; re-run with EOS_TEST_SEED=<n>.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "eos/database.h"
#include "io/chaos_device.h"
#include "tests/model_oracle.h"
#include "tests/test_util.h"
#include "txn/log_manager.h"
#include "txn/recovery.h"

namespace eos {
namespace {

// Failed assertions dump the flight-recorder journal (test_util.h).
const bool g_postmortem_listener = testing_util::InstallPostMortemOnFailure();

using testing_util::ApplyToModel;
using testing_util::FormatOpTrace;
using testing_util::LobOp;
using testing_util::ModelLob;
using testing_util::PatternBytes;
using testing_util::PayloadFor;
using testing_util::RandomOp;
using testing_util::TestSeed;

constexpr uint32_t kPageSize = 256;
constexpr int kObjects = 4;
constexpr int kMutationOps = 30;
constexpr int kDropStep = kMutationOps / 2;  // DropObject of the last object

DatabaseOptions TortureOptions() {
  DatabaseOptions opt;
  opt.page_size = kPageSize;
  opt.pager_frames = 16;
  opt.crash_safe = true;
  return opt;
}

// Committed oracle state: object id -> bytes, nullopt once destroyed.
using CommittedMap = std::map<uint64_t, std::optional<std::string>>;

// One scripted workload step: a LobOp against one object, or a DropObject.
struct ScriptedOp {
  int target = 0;
  bool drop = false;
  LobOp op;
};

// Generates the deterministic mutation script, evolving a copy of the
// models so every op's coordinates are valid when it runs. Only logged
// operations (append/insert/delete/replace) plus one drop — what the
// write-ahead log can replay.
std::vector<ScriptedOp> MakeScript(uint64_t seed,
                                   std::vector<ModelLob> models) {
  std::mt19937 rng(static_cast<uint32_t>(seed ^ 0x5eed5eed));
  std::vector<ScriptedOp> script;
  for (int i = 0; i < kMutationOps; ++i) {
    ScriptedOp s;
    if (i == kDropStep) {
      s.target = kObjects - 1;
      s.drop = true;
      models[s.target].Destroy();
    } else {
      s.target = static_cast<int>(rng() % (kObjects - 1));
      s.op = RandomOp(&rng, models[s.target], kPageSize, seed * 100 + i,
                      /*logged_only=*/true);
      ApplyToModel(s.op, &models[s.target]);
    }
    script.push_back(s);
  }
  return script;
}

std::string ScriptTrace(const std::vector<ScriptedOp>& script) {
  std::vector<LobOp> ops;
  for (const ScriptedOp& s : script) {
    LobOp op = s.op;
    if (s.drop) op.kind = LobOp::kDestroy;
    ops.push_back(op);
  }
  return FormatOpTrace(ops);
}

// A full crash-safe stack on a chaos device, with the objects created,
// committed, and checkpointed. The log outlives the database (AttachLog
// keeps a raw pointer). Every mutation commits itself: the Database writes
// its own commit marker into the log.
struct Harness {
  std::unique_ptr<LogManager> log;
  std::unique_ptr<Database> db;
  ChaosPageDevice* chaos = nullptr;
  std::vector<uint64_t> ids;
  uint64_t setup_lsn = 0;  // last LSN of the setup phase
  // Cycle a snapshot pin and checkpoint periodically while the script
  // runs (see RunMutation).
  bool cycle_pins = false;
};

Harness MakeHarness(uint64_t seed, std::vector<ModelLob>* models,
                    bool cycle_pins = false) {
  Harness h;
  h.cycle_pins = cycle_pins;
  h.log = std::make_unique<LogManager>();
  auto chaos = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(kPageSize, 1), seed);
  h.chaos = chaos.get();
  auto db = Database::CreateOnDevice(std::move(chaos), TortureOptions());
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return h;
  h.db = std::move(db).value();
  h.db->AttachLog(h.log.get());
  models->clear();
  for (int i = 0; i < kObjects; ++i) {
    Bytes init = PatternBytes(seed * 10 + i, 2000 + 900 * i);
    auto id = h.db->CreateObjectFrom(init);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) return h;
    h.ids.push_back(*id);
    ModelLob m;
    m.Append(init);
    models->push_back(std::move(m));
  }
  Status cp = h.db->Checkpoint();
  EXPECT_TRUE(cp.ok()) << cp.ToString();
  h.setup_lsn = h.log->last_lsn();
  return h;
}

// Replays the script; each op that fully applies has committed (the
// Database logged its marker) and its oracle state is recorded. Stops when
// the device crashes. Optionally records per-op commit LSNs (the LSN of the
// op's own marker), oracle snapshots, and persisted
// device images (cloned right after each commit, so images[i] is a
// physically realizable state in which ops 0..i are fully applied).
void RunMutation(Harness* h, const std::vector<ScriptedOp>& script,
                 std::vector<ModelLob> models, CommittedMap* committed,
                 bool expect_ok,
                 std::vector<uint64_t>* commit_lsns = nullptr,
                 std::vector<CommittedMap>* states = nullptr,
                 std::vector<std::unique_ptr<MemPageDevice>>* images =
                     nullptr) {
  for (size_t i = 0; i < h->ids.size(); ++i) {
    (*committed)[h->ids[i]] = std::string(models[i].bytes());
  }
  // With cycle_pins a snapshot pin cycles open/closed across the script
  // and periodic checkpoints drain version GC, so the crash-write window
  // also covers version-chain publish with a live pin and GC reclaim frees.
  // Local to this function: the pin must release before the db dies.
  Snapshot pin;
  for (size_t j = 0; j < script.size(); ++j) {
    const ScriptedOp& s = script[j];
    if (h->chaos->crashed()) break;
    uint64_t id = h->ids[s.target];
    Status st;
    if (s.drop) {
      st = h->db->DropObject(id);
    } else {
      switch (s.op.kind) {
        case LobOp::kAppend:
          st = h->db->Append(id, PayloadFor(s.op));
          break;
        case LobOp::kInsert:
          st = h->db->Insert(id, s.op.offset, PayloadFor(s.op));
          break;
        case LobOp::kDelete:
          st = h->db->Delete(id, s.op.offset, s.op.len);
          break;
        case LobOp::kReplace:
          st = h->db->Replace(id, s.op.offset, PayloadFor(s.op));
          break;
        default:
          st = Status::InvalidArgument("unscriptable op");
      }
    }
    if (!st.ok()) {
      // The only legitimate failure is the injected power loss.
      EXPECT_TRUE(h->chaos->crashed())
          << "op failed without a crash: " << st.ToString();
      break;
    }
    if (h->cycle_pins) {
      if (j % 5 == 2 && !pin.valid()) {
        auto p = h->db->BeginSnapshot(h->ids[0]);
        if (p.ok()) pin = std::move(*p);
      } else if (j % 5 == 4) {
        pin.Release();
      }
      // GC boundary: superseded unpinned versions free here, so sampled
      // crash points land inside the reclaim writes too. Fails once the
      // device has died; that is part of the sweep.
      if (j % 7 == 6) (void)h->db->Checkpoint();
    }
    if (s.drop) {
      (*committed)[id] = std::nullopt;
    } else {
      ApplyToModel(s.op, &models[s.target]);
      (*committed)[id] = std::string(models[s.target].bytes());
    }
    if (commit_lsns != nullptr) commit_lsns->push_back(h->log->last_lsn());
    if (states != nullptr) states->push_back(*committed);
    if (images != nullptr) {
      auto image = h->chaos->CloneImage();
      EXPECT_TRUE(image.ok()) << image.status().ToString();
      if (!image.ok()) break;
      images->push_back(std::move(*image));
    }
  }
  if (expect_ok) {
    EXPECT_FALSE(h->chaos->crashed());
  }
}

// True iff the database holds exactly the committed oracle state.
bool MatchesCommitted(Database* db, const CommittedMap& committed,
                      std::string* why) {
  auto listed = db->ListObjects();
  if (!listed.ok()) {
    *why = "ListObjects: " + listed.status().ToString();
    return false;
  }
  for (uint64_t id : *listed) {
    auto it = committed.find(id);
    if (it == committed.end() || !it->second.has_value()) {
      *why = "object " + std::to_string(id) +
             " exists but was never committed (or was destroyed)";
      return false;
    }
  }
  for (const auto& [id, content] : committed) {
    auto root = db->GetRoot(id);
    if (!content.has_value()) {
      if (!root.status().IsNotFound()) {
        *why = "destroyed object " + std::to_string(id) + " still present";
        return false;
      }
      continue;
    }
    if (!root.ok()) {
      *why = "object " + std::to_string(id) +
             " lost: " + root.status().ToString();
      return false;
    }
    auto data = db->Read(id, 0, content->size() + 1);
    if (!data.ok()) {
      *why = "object " + std::to_string(id) +
             " unreadable: " + data.status().ToString();
      return false;
    }
    if (data->size() != content->size() ||
        !std::equal(data->begin(), data->end(), content->begin(),
                    [](uint8_t a, char b) {
                      return a == static_cast<uint8_t>(b);
                    })) {
      *why = "object " + std::to_string(id) +
             " content differs from the oracle (got " +
             std::to_string(data->size()) + " bytes, want " +
             std::to_string(content->size()) + ")";
      return false;
    }
  }
  return true;
}

// Runs the workload against a crash at write k, re-opens the persisted
// image, recovers, and returns the recovered database (or nullptr with a
// gtest failure recorded). `committed` receives the oracle state.
std::unique_ptr<Database> CrashAndRecover(uint64_t seed,
                                          const std::vector<ScriptedOp>& script,
                                          uint64_t k, bool tear,
                                          CommittedMap* committed,
                                          std::vector<LogRecord>* wal_out,
                                          bool cycle_pins = false) {
  std::vector<ModelLob> models;
  Harness h = MakeHarness(seed, &models, cycle_pins);
  if (h.db == nullptr) return nullptr;
  h.chaos->CrashAfterWrites(k, tear ? 1 : 0);
  RunMutation(&h, script, models, committed, /*expect_ok=*/false);
  EXPECT_TRUE(h.chaos->crashed()) << "crash point " << k << " never reached";
  if (!h.chaos->crashed()) return nullptr;
  auto image = h.chaos->CloneImage();
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (!image.ok()) return nullptr;
  std::vector<LogRecord> wal = h.log->records();
  h.db.reset();  // the dying flush fails against the dead device; harmless
  auto db2 = Database::OpenOnDevice(std::move(*image), TortureOptions());
  EXPECT_TRUE(db2.ok()) << "re-open after crash " << k << ": "
                        << db2.status().ToString();
  if (!db2.ok()) return nullptr;
  if (wal_out != nullptr) *wal_out = wal;
  Status rs = (*db2)->Recover(wal);
  EXPECT_TRUE(rs.ok()) << "recovery after crash " << k << ": "
                       << rs.ToString();
  if (!rs.ok()) return nullptr;
  return std::move(*db2);
}

TEST(CrashRecoveryTortureTest, ExhaustiveCrashPoints) {
  const uint64_t seed = TestSeed(0xE05);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");

  // Fault-free reference run: build the script, record the committed
  // oracle, and measure W, the workload's write-call count.
  std::vector<ModelLob> models;
  Harness ref = MakeHarness(seed, &models);
  ASSERT_NE(ref.db, nullptr);
  std::vector<ScriptedOp> script = MakeScript(seed, models);
  CommittedMap committed_ref;
  uint64_t writes_before = ref.chaos->stats().write_calls;
  RunMutation(&ref, script, models, &committed_ref, /*expect_ok=*/true);
  const uint64_t W = ref.chaos->stats().write_calls - writes_before;
  ASSERT_GE(W, 100u) << "workload too small to enumerate 100 crash points";
  EOS_ASSERT_OK(ref.db->CheckIntegrity());
  std::string why;
  ASSERT_TRUE(MatchesCommitted(ref.db.get(), committed_ref, &why))
      << why << "\n"
      << ScriptTrace(script);

  // Crash after every k-th write (sampled evenly when W is large), a third
  // of them with the fatal write torn after its first page.
  const uint64_t stride = std::max<uint64_t>(1, W / 128);
  int points = 0;
  for (uint64_t k = 0; k < W; k += stride) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " +
                 std::to_string(W) + " writes");
    CommittedMap committed;
    std::unique_ptr<Database> db =
        CrashAndRecover(seed, script, k, /*tear=*/(points % 3 == 0),
                        &committed, nullptr);
    ASSERT_NE(db, nullptr);
    EOS_ASSERT_OK(db->CheckIntegrity());
    ASSERT_TRUE(MatchesCommitted(db.get(), committed, &why))
        << why << "\n"
        << ScriptTrace(script);
    ++points;
  }
  ASSERT_GE(points, 100) << "W=" << W << " stride=" << stride;
}

// The same exhaustive sweep with a snapshot pin cycling across the script
// (version chains stay populated) and periodic checkpoints draining
// version GC — so the sampled crash points land around version-chain
// publish and GC reclaim frees. Recovery must still land on exactly the
// committed oracle state, reseed the chains, and leak nothing.
TEST(CrashRecoveryTortureTest, MvccCrashPointsAroundPublishAndGc) {
  const uint64_t seed = TestSeed(0x31C);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");

  std::vector<ModelLob> models;
  Harness ref = MakeHarness(seed, &models, /*cycle_pins=*/true);
  ASSERT_NE(ref.db, nullptr);
  std::vector<ScriptedOp> script = MakeScript(seed, models);
  CommittedMap committed_ref;
  uint64_t writes_before = ref.chaos->stats().write_calls;
  RunMutation(&ref, script, models, &committed_ref, /*expect_ok=*/true);
  const uint64_t W = ref.chaos->stats().write_calls - writes_before;
  ASSERT_GE(W, 100u) << "workload too small to enumerate crash points";
  EOS_ASSERT_OK(ref.db->CheckIntegrity());
  std::string why;
  ASSERT_TRUE(MatchesCommitted(ref.db.get(), committed_ref, &why))
      << why << "\n"
      << ScriptTrace(script);

  const uint64_t stride = std::max<uint64_t>(1, W / 96);
  int points = 0;
  for (uint64_t k = 0; k < W; k += stride) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " +
                 std::to_string(W) + " writes");
    CommittedMap committed;
    std::unique_ptr<Database> db =
        CrashAndRecover(seed, script, k, /*tear=*/(points % 3 == 0),
                        &committed, nullptr, /*cycle_pins=*/true);
    ASSERT_NE(db, nullptr);
    EOS_ASSERT_OK(db->CheckIntegrity());
    ASSERT_TRUE(MatchesCommitted(db.get(), committed, &why))
        << why << "\n"
        << ScriptTrace(script);
    // The reseeded chains serve snapshots immediately, and nothing the
    // pre-crash version chains referenced leaks into the recovered maps.
    for (const auto& [id, content] : committed) {
      if (!content.has_value()) continue;
      auto snap = db->BeginSnapshot(id);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      auto got = db->SnapshotRead(*snap, 0, content->size() + 1);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), content->size());
      snap->Release();
    }
    EOS_ASSERT_OK(db->Checkpoint());
    LeakCheckReport report;
    EOS_ASSERT_OK(db->LeakCheck(&report));
    EXPECT_TRUE(report.leaked.empty());
    EXPECT_TRUE(report.doubly_referenced.empty());
    ++points;
  }
  ASSERT_GE(points, 80) << "W=" << W << " stride=" << stride;
}

// For every boundary, hand recovery a log truncated just before op i+1's
// commit marker: op i+1 becomes in-flight (its record survives, its marker
// does not) and must be rolled back to the oracle state after op i, even
// though its effects are all physically present in the image.
//
// The image for boundary i is the one cloned right after op i+1 ran — NOT
// the final image of the whole script. Replace writes leaf bytes in place
// under write-ahead logging, so the final image carries in-place effects
// of operations *beyond* the truncated log horizon; under the WAL rule
// (before-image record durable before the page write) such a state cannot
// occur, and recovery rightly has no way to undo scribbles it was never
// told about. Seed 4242 exposed exactly that un-realizable combination
// when this test cloned only once at the end (see the pinned regression
// case below).
void RunTruncatedLogBoundaries(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");

  // Clean run, recording the oracle snapshot, commit LSN, and persisted
  // image after each op.
  std::vector<ModelLob> models;
  Harness h = MakeHarness(seed, &models);
  ASSERT_NE(h.db, nullptr);
  std::vector<ScriptedOp> script = MakeScript(seed, models);
  CommittedMap committed;
  std::vector<uint64_t> commit_lsns;
  std::vector<CommittedMap> states;
  std::vector<std::unique_ptr<MemPageDevice>> images;
  RunMutation(&h, script, models, &committed, /*expect_ok=*/true,
              &commit_lsns, &states, &images);
  ASSERT_EQ(commit_lsns.size(), script.size());
  ASSERT_EQ(images.size(), script.size());

  const std::vector<LogRecord>& wal = h.log->records();
  for (size_t i = 0; i + 1 < commit_lsns.size(); ++i) {
    SCOPED_TRACE("boundary after committed op " + std::to_string(i));
    std::vector<LogRecord> trimmed;
    for (const LogRecord& r : wal) {
      if (r.lsn < commit_lsns[i + 1]) trimmed.push_back(r);
    }
    auto db2 = Database::OpenOnDevice(std::move(images[i + 1]),
                                      TortureOptions());
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    EOS_ASSERT_OK((*db2)->Recover(trimmed));
    EOS_ASSERT_OK((*db2)->CheckIntegrity());
    std::string why;
    ASSERT_TRUE(MatchesCommitted(db2->get(), states[i], &why))
        << why << "\n"
        << ScriptTrace(script);
  }
}

TEST(CrashRecoveryTortureTest, TruncatedLogAtOpBoundaries) {
  RunTruncatedLogBoundaries(TestSeed(0xB0B));
}

// Permanent regression pin: under this seed the old single-final-image
// harness handed recovery leaf pages scribbled by in-place replaces from
// beyond the log horizon (an un-realizable WAL state) and object 3 came
// back byte-rotted. Runs with the literal seed regardless of
// EOS_TEST_SEED so no sweep configuration can un-pin it.
TEST(CrashRecoveryTortureTest, TruncatedLogAtOpBoundariesSeed4242) {
  RunTruncatedLogBoundaries(4242);
}

// The harness must be able to catch a broken recovery: drop one committed
// record from the log (equivalent to recovery skipping a redo) and verify
// the checks above flag the result.
TEST(CrashRecoveryTortureTest, SabotagedRecoveryIsCaught) {
  const uint64_t seed = TestSeed(0xBAD);
  std::vector<ModelLob> models;
  {
    Harness probe = MakeHarness(seed, &models);
    ASSERT_NE(probe.db, nullptr);
  }
  std::vector<ScriptedOp> script = MakeScript(seed, models);

  // Crash late so plenty of mutation ops are committed.
  std::vector<ModelLob> ref_models;
  Harness ref = MakeHarness(seed, &ref_models);
  ASSERT_NE(ref.db, nullptr);
  CommittedMap committed_ref;
  uint64_t writes_before = ref.chaos->stats().write_calls;
  RunMutation(&ref, script, ref_models, &committed_ref, /*expect_ok=*/true);
  const uint64_t W = ref.chaos->stats().write_calls - writes_before;
  const uint64_t k = W * 2 / 3;

  std::vector<ModelLob> m2;
  Harness h = MakeHarness(seed, &m2);
  ASSERT_NE(h.db, nullptr);
  h.chaos->CrashAfterWrites(k);
  CommittedMap committed;
  RunMutation(&h, script, m2, &committed, /*expect_ok=*/false);
  ASSERT_TRUE(h.chaos->crashed());
  auto image = h.chaos->CloneImage();
  ASSERT_TRUE(image.ok());
  std::vector<LogRecord> wal = h.log->records();
  h.db.reset();

  // Sabotage: remove the newest committed mutation record.
  size_t victim = wal.size();
  for (size_t i = wal.size(); i-- > 0;) {
    const LogRecord& r = wal[i];
    if (r.op == LogOp::kCommit || r.lsn <= h.setup_lsn) continue;
    if (r.lsn <= Recovery::LastCommitLsn(r.object_id, wal)) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, wal.size()) << "no committed mutation record to remove";
  wal.erase(wal.begin() + victim);

  auto db2 = Database::OpenOnDevice(std::move(*image), TortureOptions());
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  bool caught = false;
  Status rs = (*db2)->Recover(wal);
  if (!rs.ok()) {
    caught = true;
  } else if (!(*db2)->CheckIntegrity().ok()) {
    caught = true;
  } else {
    std::string why;
    caught = !MatchesCommitted(db2->get(), committed, &why);
  }
  EXPECT_TRUE(caught)
      << "a recovery that skipped a committed record went undetected";
}

}  // namespace
}  // namespace eos
