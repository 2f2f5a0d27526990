// Workloads, measurement and checks of the end-to-end benchmark.
//
// Every run uses the durable configuration: a file-backed volume plus a
// file-backed WAL, 4 KiB pages, crash_safe + checksums + mvcc, and an
// ExtentCache budget four times smaller than edit_mix's data. One
// closed-loop client issues each operation when the previous one returned.
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "check.h"
#include "eos/database.h"
#include "obs/event_journal.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "trace.h"
#include "txn/log_manager.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using eos::ByteView;
using eos::Bytes;
using eos::Database;
using eos::Status;

constexpr uint32_t kPageSize = 4096;
constexpr size_t kCacheBytes = size_t{12} << 20;
// Set-up runs this many times per run; set-up time is their median.
constexpr int kSetupRepeats = 9;
// A fixed, seeded prefix of the workload's own operations, run once after
// set-up; recovery time is measured on a kill copy taken right after it,
// so it prices a fixed amount of log and data, not the run's throughput.
constexpr int kBurstOps = 1000;
// Further operations before measuring, so that caches have filled and the
// free space has aged (object_churn ran ~40% faster in its first seconds).
constexpr int kWarmupOps = 2000;
constexpr int kRecoverRepeats = 9;
// The measured phase is watched in slices of this length; traced runs
// alternate untraced and traced slices.
constexpr double kSliceS = 0.5;

eos::DatabaseOptions DurableOptions() {
  eos::DatabaseOptions o;
  o.page_size = kPageSize;
  o.crash_safe = true;
  o.checksums = true;
  o.mvcc = true;
  o.cache_bytes = kCacheBytes;
  return o;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// What one client saw: per-call latency samples by class and volumes.
struct Tally {
  std::vector<double> read_us;   // one sample per read operation
  std::vector<double> write_us;  // one sample per write operation
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t traced_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t wrong = 0;  // outputs that disagree with the oracle
  std::vector<std::string> notes;

  void Note(std::string s) {
    if (notes.size() < 8) notes.push_back(std::move(s));
  }
  bool Fail(const Status& s, const char* what) {
    ++failed;
    Note(std::string(what) + " failed: " + s.ToString());
    return false;
  }
  void Wrong(std::string s) {
    ++wrong;
    Note("WRONG: " + s);
  }
  void Merge(Tally&& o) {
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
    ops += o.ops;
    failed += o.failed;
    traced_ops += o.traced_ops;
    read_bytes += o.read_bytes;
    write_bytes += o.write_bytes;
    wrong += o.wrong;
    for (auto& n : o.notes) Note(std::move(n));
  }
};

template <class F>
auto Call(const char* name, OpClass cls, F&& f) {
  return SpanRecorder::Get().Call(name, cls, std::forward<F>(f));
}

// The checkpoint a write falls due for. The write waits for it, so its
// latency sample includes it and checkpoint time shows in the write tail.
Status CheckpointIfDue(Database* db, bool due) {
  if (!due) return Status::OK();
  return Call("eos.checkpoint", kOther, [&] { return db->Checkpoint(); });
}

// Reads [0, size) of `id` in bounded chunks and hands each to `check`.
template <class F>
bool ReadWhole(Database* db, uint64_t id, uint64_t size, Tally* t, F&& check) {
  constexpr uint64_t kChunk = uint64_t{1} << 20;
  for (uint64_t off = 0; off < size; off += kChunk) {
    uint64_t n = std::min(kChunk, size - off);
    eos::StatusOr<Bytes> r = db->Read(id, off, n);
    if (!r.ok()) return t->Fail(r.status(), "verify read");
    if (r->size() != n || !check(off, *r)) {
      t->Wrong("object " + std::to_string(id) + " differs in [" +
               std::to_string(off) + ", " + std::to_string(off + n) + ")");
      return false;
    }
  }
  return true;
}

void CheckLiveSet(Database* db, const std::vector<uint64_t>& expected,
                  Tally* t) {
  eos::StatusOr<std::vector<uint64_t>> listed = db->ListObjects();
  if (!listed.ok()) {
    t->Fail(listed.status(), "ListObjects");
    return;
  }
  std::set<uint64_t> got(listed->begin(), listed->end());
  std::set<uint64_t> want(expected.begin(), expected.end());
  if (got != want) {
    t->Wrong("ListObjects has " + std::to_string(got.size()) +
             " objects, model has " + std::to_string(want.size()));
  }
}

bool CheckSize(Database* db, uint64_t id, uint64_t want, Tally* t) {
  eos::StatusOr<uint64_t> size = db->Size(id);
  if (!size.ok()) return t->Fail(size.status(), "Size");
  if (*size != want) {
    t->Wrong("object " + std::to_string(id) + " has " +
             std::to_string(*size) + " bytes, model " + std::to_string(want));
    return false;
  }
  return true;
}

// ----- workloads ----------------------------------------------------------------

class Workload {
 public:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;

  // Creates the population on a fresh database.
  virtual Status Populate(Database* db) = 0;
  // One closed-loop operation; false if a call failed.
  virtual bool Step(Database* db, Tally* t) = 0;
  // Compares every live object and the live set with the model.
  virtual void Verify(Database* db, Tally* t) = 0;
  virtual uint64_t LiveBytes() const = 0;
  virtual std::vector<uint64_t> LiveIds() const = 0;
  // The measured phase stops after this many operations per second of
  // --seconds even before its deadline, so the end-of-run recovery, whose
  // time grows with the log, stays bounded however fast the engine gets.
  virtual uint64_t MaxOpsPerSecond() const = 0;

 protected:
  uint64_t seed_;
};

// The paper's dynamic-object workload: one client edits about two dozen
// 2 MiB objects (48 MiB, four times the cache) with uniform-offset inserts,
// deletes, replaces and appends of 1 B to 16 KiB (log-uniform sizes) and
// 64 KiB range reads, every other one through a snapshot. A byte-string
// model of every object is the oracle.
class EditMix final : public Workload {
 public:
  static constexpr uint64_t kObjects = 24;
  static constexpr uint64_t kObjectBytes = 2 << 20;
  static constexpr uint64_t kMaxEdit = 16 << 10;
  static constexpr uint64_t kReadBytes = 64 << 10;
  static constexpr uint64_t kCheckpointEvery = 256;
  static constexpr uint64_t kMaxOpsPerS = 10000;
  // Percent shares; inserted and appended bytes balance deleted ones, so
  // object sizes stay near 2 MiB however long the run.
  static constexpr uint64_t kReadPct = 25, kInsertPct = 22, kDeletePct = 30,
                            kReplacePct = 15;  // append: the remaining 8

  explicit EditMix(uint64_t seed)
      : Workload(seed), rng_(Mix64(seed * 131)), ids_(kObjects),
        models_(kObjects) {}

  Status Populate(Database* db) override {
    for (uint64_t o = 0; o < kObjects; ++o) {
      Bytes buf(kObjectBytes);
      FillContent(seed_, o, 0, buf.data(), buf.size());
      EOS_ASSIGN_OR_RETURN(ids_[o], db->CreateObjectFrom(ByteView(buf)));
      models_[o] = EditModel(buf);
    }
    return Status::OK();
  }

  bool Step(Database* db, Tally* t) override {
    uint64_t o = rng_.Below(kObjects);
    EditModel& m = models_[o];
    uint64_t pick = rng_.Below(100);
    if (pick < kReadPct) return ReadRange(db, ids_[o], m, t);

    // Draw the edit first; only the database call is timed, and the model
    // follows once it returned.
    uint64_t len = rng_.LogUniform(1, kMaxEdit);
    Bytes data(len);
    FillContent(seed_, (uint64_t{1} << 40) + edits_, 0, data.data(), len);
    ++edits_;
    enum Kind { kInsert, kDelete, kReplace, kAppend };
    Kind kind = pick < kReadPct + kInsertPct ? kInsert
                : pick < kReadPct + kInsertPct + kDeletePct ? kDelete
                : pick < kReadPct + kInsertPct + kDeletePct + kReplacePct ? kReplace
                : kAppend;
    if (kind == kDelete || kind == kReplace) data.resize(std::min(len, m.size()));
    uint64_t n = data.size();
    uint64_t off = kind == kInsert   ? rng_.Below(m.size() + 1)
                   : kind == kAppend ? m.size()
                   : rng_.Below(m.size() - n + 1);
    uint64_t id = ids_[o];
    ByteView view(data);
    int64_t t0 = NowNs();
    Status s;
    switch (kind) {
      case kInsert:
        s = Call("eos.insert", kWrite, [&] { return db->Insert(id, off, view); });
        break;
      case kDelete:
        s = Call("eos.delete", kWrite, [&] { return db->Delete(id, off, n); });
        break;
      case kReplace:
        s = Call("eos.replace", kWrite, [&] { return db->Replace(id, off, view); });
        break;
      case kAppend:
        s = Call("eos.append", kWrite, [&] { return db->Append(id, view); });
        break;
    }
    Status c = CheckpointIfDue(db, s.ok() && edits_ % kCheckpointEvery == 0);
    double us = Micros(NowNs() - t0);
    if (!s.ok()) return t->Fail(s, "edit");
    t->write_us.push_back(us);
    bool model_ok = true;
    switch (kind) {
      case kInsert: model_ok = m.Insert(off, data.data(), n); break;
      case kDelete: model_ok = m.Delete(off, n); break;
      case kReplace: model_ok = m.Replace(off, data.data(), n); break;
      case kAppend: m.Append(data.data(), n); break;
    }
    if (!model_ok) t->Wrong("model rejected an edit the database accepted");
    if (kind != kDelete) t->write_bytes += n;
    return c.ok() || t->Fail(c, "checkpoint");
  }

  void Verify(Database* db, Tally* t) override {
    CheckLiveSet(db, ids_, t);
    for (uint64_t o = 0; o < kObjects; ++o) {
      const EditModel& m = models_[o];
      if (!CheckSize(db, ids_[o], m.size(), t)) continue;
      ReadWhole(db, ids_[o], m.size(), t, [&](uint64_t off, const Bytes& b) {
        return m.Matches(off, b.data(), b.size());
      });
    }
  }

  uint64_t LiveBytes() const override {
    uint64_t sum = 0;
    for (const EditModel& m : models_) sum += m.size();
    return sum;
  }
  std::vector<uint64_t> LiveIds() const override { return ids_; }
  uint64_t MaxOpsPerSecond() const override { return kMaxOpsPerS; }

 private:
  // A 64 KiB read at a uniform offset; every other one goes through a
  // snapshot (BeginSnapshot + SnapshotRead + Release), one read operation.
  bool ReadRange(Database* db, uint64_t id, const EditModel& m, Tally* t) {
    uint64_t n = std::min(kReadBytes, m.size());
    uint64_t off = rng_.Below(m.size() - n + 1);
    bool snapshot = (reads_++ & 1) != 0;
    int64_t t0 = NowNs();
    eos::StatusOr<Bytes> r =
        snapshot ? SnapshotRead(db, id, off, n)
                 : Call("eos.read", kRead, [&] { return db->Read(id, off, n); });
    double us = Micros(NowNs() - t0);
    if (!r.ok()) return t->Fail(r.status(), snapshot ? "SnapshotRead" : "Read");
    t->read_us.push_back(us);
    t->read_bytes += r->size();
    if (r->size() != n || !m.Matches(off, r->data(), r->size())) {
      t->Wrong("read of object " + std::to_string(id) + " at " +
               std::to_string(off));
    }
    return true;
  }

  // Pinning and releasing are kOther, so that the read class's self time
  // and I/O are those of the two read calls alone.
  eos::StatusOr<Bytes> SnapshotRead(Database* db, uint64_t id, uint64_t off,
                                    uint64_t n) {
    eos::StatusOr<eos::Snapshot> snap = Call(
        "eos.begin_snapshot", kOther, [&] { return db->BeginSnapshot(id); });
    if (!snap.ok()) return snap.status();
    eos::StatusOr<Bytes> r = Call("eos.snapshot_read", kRead,
                                  [&] { return db->SnapshotRead(*snap, off, n); });
    Call("eos.release", kOther, [&] {
      snap->Release();
      return true;
    });
    return r;
  }

  Rng rng_;
  std::vector<uint64_t> ids_;
  std::vector<EditModel> models_;
  uint64_t edits_ = 0;
  uint64_t reads_ = 0;
};

// Directory churn: one client over a population of small objects (512 B to
// 8 KiB). Each operation drops a uniformly chosen object, creates a new one
// in its place and reads it back whole. Every create or drop rewrites the
// whole directory. 1000 objects, not more: at 2000, throughput spread
// 0.22-0.27 (IQR / median) between runs, at 1000 at most 0.13.
class ObjectChurn final : public Workload {
 public:
  static constexpr uint64_t kObjects = 1000;
  static constexpr uint64_t kMinBytes = 512;
  static constexpr uint64_t kMaxBytes = 8 << 10;
  // Every 50th write carries a checkpoint: 2% of the write samples, so
  // write_p99_us is about the median of the writes that pay for one, a
  // price the engine sets, rather than the tail of the host's scheduling
  // noise, which it is when fewer than 1% carry one.
  static constexpr uint64_t kCheckpointEvery = 50;
  static constexpr uint64_t kMaxOpsPerS = 5000;

  explicit ObjectChurn(uint64_t seed)
      : Workload(seed), rng_(Mix64(seed * 131)), next_key_(kObjects) {}

  Status Populate(Database* db) override {
    Rng sizes(Mix64(seed_ ^ 0x7e));
    Bytes buf;
    for (uint64_t key = 0; key < kObjects; ++key) {
      buf.resize(sizes.Between(kMinBytes, kMaxBytes));
      FillContent(seed_, key, 0, buf.data(), buf.size());
      EOS_ASSIGN_OR_RETURN(uint64_t id, db->CreateObjectFrom(ByteView(buf)));
      live_.push_back({id, key, buf.size()});
    }
    return Status::OK();
  }

  bool Step(Database* db, Tally* t) override {
    size_t j = rng_.Below(live_.size());
    Object& v = live_[j];
    Object fresh{0, next_key_++, rng_.Between(kMinBytes, kMaxBytes)};
    Bytes buf(fresh.size);
    FillContent(seed_, fresh.key, 0, buf.data(), buf.size());
    // Drop + create is one write sample: replacing an object is the write
    // this client makes, and timing the halves apart would put the write
    // median on the seam between two populations.
    int64_t t0 = NowNs();
    Status s = Call("eos.drop", kWrite, [&] { return db->DropObject(v.id); });
    if (!s.ok()) return t->Fail(s, "DropObject");
    eos::StatusOr<uint64_t> id = Call(
        "eos.create", kWrite, [&] { return db->CreateObjectFrom(ByteView(buf)); });
    Status c = CheckpointIfDue(db, id.ok() && ++ops_ % kCheckpointEvery == 0);
    double us = Micros(NowNs() - t0);
    if (!id.ok()) {
      live_.erase(live_.begin() + static_cast<ptrdiff_t>(j));
      return t->Fail(id.status(), "CreateObjectFrom");
    }
    t->write_us.push_back(us);
    t->write_bytes += fresh.size;
    fresh.id = *id;
    v = fresh;

    t0 = NowNs();
    eos::StatusOr<Bytes> r =
        Call("eos.read", kRead, [&] { return db->Read(v.id, 0, v.size); });
    double read_us = Micros(NowNs() - t0);
    if (!r.ok()) return t->Fail(r.status(), "Read");
    t->read_us.push_back(read_us);
    t->read_bytes += r->size();
    if (r->size() != v.size ||
        FirstContentMismatch(seed_, v.key, 0, r->data(), r->size()) >= 0) {
      t->Wrong("read back of object " + std::to_string(v.id));
    }
    return c.ok() || t->Fail(c, "checkpoint");
  }

  void Verify(Database* db, Tally* t) override {
    CheckLiveSet(db, LiveIds(), t);
    for (const Object& v : live_) {
      if (!CheckSize(db, v.id, v.size, t)) continue;
      ReadWhole(db, v.id, v.size, t, [&](uint64_t off, const Bytes& b) {
        return FirstContentMismatch(seed_, v.key, off, b.data(), b.size()) < 0;
      });
    }
  }

  uint64_t LiveBytes() const override {
    uint64_t sum = 0;
    for (const Object& v : live_) sum += v.size;
    return sum;
  }
  std::vector<uint64_t> LiveIds() const override {
    std::vector<uint64_t> ids;
    for (const Object& v : live_) ids.push_back(v.id);
    return ids;
  }
  uint64_t MaxOpsPerSecond() const override { return kMaxOpsPerS; }

 private:
  struct Object {
    uint64_t id;
    uint64_t key;  // content function key
    uint64_t size;
  };

  Rng rng_;
  std::vector<Object> live_;
  uint64_t next_key_;
  uint64_t ops_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "edit_mix") return std::make_unique<EditMix>(seed);
  if (name == "object_churn") return std::make_unique<ObjectChurn>(seed);
  return nullptr;
}

// ----- the database under test ----------------------------------------------------

// Volume and WAL files are memfd files: tmpfs pages with no name in any
// directory, which the engine opens through their /proc/self/fd path. Every
// fdatasync is still issued, but none waits on a shared virtual disk, whose
// fsync latency would swamp run-to-run comparisons. There is no other
// placement: where memfds cannot be reopened by path the run fails.
class MemFiles {
 public:
  MemFiles() = default;
  ~MemFiles() {
    for (int fd : fds_) ::close(fd);
  }
  MemFiles(const MemFiles&) = delete;
  MemFiles& operator=(const MemFiles&) = delete;

  // A new empty file's path, or "" if it cannot be made and reopened.
  std::string Make(const std::string& name) {
    int fd = memfd_create(("eos-" + name).c_str(), MFD_CLOEXEC);
    if (fd < 0) return "";
    fds_.push_back(fd);
    std::string path = "/proc/self/fd/" + std::to_string(fd);
    int again = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (again < 0) return "";
    ::close(again);
    return path;
  }

 private:
  std::vector<int> fds_;
};

// A live durable database: volume and WAL files, the timing decorator
// under the volume, the log attached.
struct Store {
  std::string vol, wal;
  std::unique_ptr<eos::LogManager> log;
  std::unique_ptr<Database> db;  // destroyed before the log it uses
  TimingPageDevice* dev = nullptr;

  Status Open() {
    EOS_ASSIGN_OR_RETURN(std::unique_ptr<eos::FilePageDevice> file,
                         eos::FilePageDevice::Create(vol, kPageSize, 1));
    auto timing = std::make_unique<TimingPageDevice>(std::move(file));
    dev = timing.get();
    EOS_ASSIGN_OR_RETURN(db, Database::CreateOnDevice(std::move(timing),
                                                      DurableOptions()));
    EOS_ASSIGN_OR_RETURN(log, eos::LogManager::CreateFileBacked(wal));
    db->AttachLog(log.get());
    return Status::OK();
  }
  void Close() {
    db.reset();
    log.reset();
    dev = nullptr;
  }
};

// The files a process killed now would leave: no Flush, the operating
// system's cache intact.
void KillCopy(const Store& s, const std::string& vol, const std::string& wal) {
  fs::copy_file(s.vol, vol, fs::copy_options::overwrite_existing);
  fs::copy_file(s.wal, wal, fs::copy_options::overwrite_existing);
}

struct Recovered {
  std::unique_ptr<Database> db;
  double open_s = 0;
  double recover_s = 0;
};

eos::StatusOr<Recovered> OpenAndRecover(const std::string& vol,
                                        const std::string& wal) {
  Recovered r;
  int64_t t0 = NowNs();
  EOS_ASSIGN_OR_RETURN(r.db, Database::Open(vol, DurableOptions()));
  int64_t t1 = NowNs();
  EOS_ASSIGN_OR_RETURN(std::vector<eos::LogRecord> log,
                       eos::LogManager::ReadLogFile(wal));
  EOS_RETURN_IF_ERROR(r.db->Recover(log));
  int64_t t2 = NowNs();
  r.open_s = Seconds(t1 - t0);
  r.recover_s = Seconds(t2 - t1);
  return r;
}

// Integrity, leak audit and model comparison of a database.
void CheckDatabase(Database* db, Workload* w, const char* what, Tally* t) {
  Tally local;
  w->Verify(db, &local);
  Status s = db->CheckIntegrity();
  if (!s.ok()) local.Wrong(std::string("CheckIntegrity: ") + s.ToString());
  eos::LeakCheckReport leaks;
  s = db->LeakCheck(&leaks);
  if (!s.ok()) local.Wrong(std::string("LeakCheck: ") + s.ToString());
  std::printf("check %-28s %s\n", what,
              local.wrong == 0 && local.failed == 0 ? "ok" : "FAILED");
  // A failing call while checking is a wrong result, not a failed op.
  local.wrong += local.failed;
  local.failed = 0;
  t->Merge(std::move(local));
}

// Kill copy -> Open + Recover -> compare -> CheckIntegrity + LeakCheck ->
// clean Flush + reopen -> compare again.
void CheckKillCopy(const std::string& vol, const std::string& wal, Workload* w,
                   const char* what, Tally* t) {
  eos::StatusOr<Recovered> r = OpenAndRecover(vol, wal);
  if (!r.ok()) {
    t->Wrong(std::string(what) + ": recovery failed: " + r.status().ToString());
    return;
  }
  CheckDatabase(r->db.get(), w, what, t);
  Status s = r->db->Flush();
  if (!s.ok()) t->Wrong(std::string(what) + ": Flush: " + s.ToString());
  r->db.reset();
  eos::StatusOr<std::unique_ptr<Database>> reopened =
      Database::Open(vol, DurableOptions());
  if (!reopened.ok()) {
    t->Wrong(std::string(what) + ": reopen: " + reopened.status().ToString());
    return;
  }
  CheckDatabase(reopened->get(), w, (std::string(what) + " reopened").c_str(),
                t);
}

// ----- counters ---------------------------------------------------------------------

struct Counters {
  uint64_t pager_hit = 0, pager_miss = 0, pager_writeback = 0;
  uint64_t buddy_alloc = 0, buddy_free = 0;
  uint64_t versions_gcd = 0, log_bytes = 0, wal_syncs = 0;
  uint64_t reshuffle_bytes = 0, cost_read_sum = 0, cost_read_count = 0;
  uint64_t journal_events = 0;
  uint64_t pages_read[kClasses] = {}, pages_written[kClasses] = {};
  uint64_t seeks[kClasses] = {}, read_ns = 0, write_ns = 0;
  uint64_t sync_calls = 0, sync_ns = 0;
  eos::ExtentCache::Stats cache;

  static Counters Take(const Store& s) {
    auto& reg = eos::obs::MetricsRegistry::Default();
    Counters c;
    c.pager_hit = reg.counter(eos::obs::kPagerHit)->value();
    c.pager_miss = reg.counter(eos::obs::kPagerMiss)->value();
    c.pager_writeback = reg.counter(eos::obs::kPagerWriteback)->value();
    c.buddy_alloc = reg.counter(eos::obs::kBuddyAlloc)->value();
    c.buddy_free = reg.counter(eos::obs::kBuddyFree)->value();
    c.versions_gcd = reg.counter(eos::obs::kTxnVersionsGcd)->value();
    c.log_bytes = reg.counter(eos::obs::kTxnLogBytes)->value();
    // One group-commit batch is recorded per WAL fsync.
    c.wal_syncs = reg.histogram(eos::obs::kTxnGroupCommitBatch)->count();
    c.reshuffle_bytes =
        reg.histogram(eos::obs::kLobReshuffleMovedBytes)->sum();
    eos::obs::Histogram* cost = reg.histogram(eos::obs::kCostReadRatio);
    c.cost_read_sum = cost->sum();
    c.cost_read_count = cost->count();
    c.journal_events = eos::obs::EventJournal::Default().total_recorded();
    for (int k = 0; k < kClasses; ++k) {
      const ClassIo& io = s.dev->io(static_cast<OpClass>(k));
      c.pages_read[k] = io.pages_read.load();
      c.pages_written[k] = io.pages_written.load();
      c.seeks[k] = io.seeks.load();
      c.read_ns += io.read_ns.load();
      c.write_ns += io.write_ns.load();
    }
    c.sync_calls = s.dev->sync_calls();
    c.sync_ns = s.dev->sync_ns();
    c.cache = s.db->extent_cache()->GetStats();
    return c;
  }
};

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// p50 of every traced call named `name` across threads, in µs.
double CallP50(const std::vector<const SpanRecorder::ThreadLog*>& logs,
               const std::string& name) {
  std::vector<double> all;
  for (const auto* l : logs) {
    for (const auto& [n, v] : l->call_us) {
      if (name == n) all.insert(all.end(), v.begin(), v.end());
    }
  }
  return Median(std::move(all));
}

double SelfP50(const std::vector<const SpanRecorder::ThreadLog*>& logs,
               OpClass cls) {
  std::vector<double> all;
  for (const auto* l : logs) {
    const auto& v = cls == kRead ? l->read_self_us : l->write_self_us;
    all.insert(all.end(), v.begin(), v.end());
  }
  return Median(std::move(all));
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return MakeWorkload(name, 1) != nullptr;
}

Outcome RunWorkload(const RunOptions& opt) {
  Outcome out;
  fs::create_directories(opt.out_dir);
  MemFiles files;
  std::map<std::string, std::string> paths;
  for (const char* f : {"live.vol", "live.wal", "burst.vol", "burst.wal",
                        "rec.vol", "rec.wal", "end.vol", "end.wal"}) {
    std::string path = files.Make(f);
    if (path.empty()) {
      out.correct = false;
      out.errors.push_back("cannot make a memfd reopenable by path for " +
                           std::string(f));
      return out;
    }
    paths[f] = path;
  }
  auto work = [&](const char* f) { return paths.at(f); };
  Store store;
  store.vol = work("live.vol");
  store.wal = work("live.wal");
  SpanRecorder& rec = SpanRecorder::Get();

  // 1. Set-up: populate a fresh volume and checkpoint. Repeated; the last
  //    one is kept.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    store.Close();
    w = MakeWorkload(opt.workload, opt.seed);
    int64_t t0 = NowNs();
    Status s = store.Open();
    if (s.ok()) s = w->Populate(store.db.get());
    if (s.ok()) s = store.db->Checkpoint();
    if (!s.ok()) {
      out.correct = false;
      out.errors.push_back("set-up failed: " + s.ToString());
      return out;
    }
    setup_s.push_back(Seconds(NowNs() - t0));
  }

  // 2. A fixed seeded burst, a kill copy of its result, timed recoveries
  //    of that copy (the first one fully checked), then the warm-up.
  Tally checks;
  Tally burst;
  for (int i = 0; i < kBurstOps; ++i) {
    ++burst.ops;
    w->Step(store.db.get(), &burst);
  }
  KillCopy(store, work("burst.vol"), work("burst.wal"));
  std::vector<double> recover_s, open_ms, recover_ms;
  for (int r = 0; r < kRecoverRepeats; ++r) {
    fs::copy_file(work("burst.vol"), work("rec.vol"),
                  fs::copy_options::overwrite_existing);
    fs::copy_file(work("burst.wal"), work("rec.wal"),
                  fs::copy_options::overwrite_existing);
    eos::StatusOr<Recovered> rc = OpenAndRecover(work("rec.vol"), work("rec.wal"));
    if (!rc.ok()) {
      checks.Wrong("recovery of the burst copy failed: " + rc.status().ToString());
      break;
    }
    recover_s.push_back(rc->open_s + rc->recover_s);
    open_ms.push_back(rc->open_s * 1e3);
    recover_ms.push_back(rc->recover_s * 1e3);
    if (r == 0) CheckDatabase(rc->db.get(), w.get(), "burst kill copy", &checks);
  }
  for (const char* f : {"burst.vol", "burst.wal", "rec.vol", "rec.wal"}) {
    std::error_code ec;
    fs::resize_file(work(f), 0, ec);  // frees the copy's memory
  }
  for (int i = 0; i < kWarmupOps; ++i) {
    ++burst.ops;
    w->Step(store.db.get(), &burst);
  }

  // 3. The measured phase: one closed-loop client until the deadline or
  //    the workload's operation cap, watched in slices. A traced run
  //    alternates untraced and traced slices so both see the same state.
  Counters before = Counters::Take(store);
  const uint64_t max_ops =
      static_cast<uint64_t>(opt.seconds * static_cast<double>(w->MaxOpsPerSecond()));
  Tally all;
  std::vector<double> slice_rates;
  int64_t traced_ns = 0;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  int64_t slice_start = start;
  uint64_t slice_ops = 0;
  for (;;) {
    int64_t now = NowNs();
    if (now - slice_start >= static_cast<int64_t>(kSliceS * 1e9) || now >= deadline) {
      slice_rates.push_back(static_cast<double>(slice_ops) / Seconds(now - slice_start));
      if (rec.enabled()) traced_ns += now - slice_start;
      rec.set_enabled(opt.trace && !rec.enabled());
      slice_start = now;
      slice_ops = 0;
    }
    if (now >= deadline) break;
    if (all.ops == max_ops) {
      deadline = now;  // closes the open slice
      continue;
    }
    bool traced = rec.enabled();
    w->Step(store.db.get(), &all);
    ++all.ops;
    ++slice_ops;
    if (traced) ++all.traced_ops;
  }
  rec.set_enabled(false);
  int64_t elapsed = NowNs() - start;
  Counters after = Counters::Take(store);
  std::printf("set-up s:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\nrecovery s:");
  for (double v : recover_s) std::printf(" %.4f", v);
  std::printf("\nops/s per %.1f s slice:", kSliceS);
  for (double r : slice_rates) std::printf(" %.0f", r);
  std::printf("\n");

  // 4. End: kill copy, final checkpoint (space is measured after it),
  //    then recovery of the copy and the full checks.
  KillCopy(store, work("end.vol"), work("end.wal"));
  Status s = store.db->Checkpoint();
  if (!s.ok()) checks.Wrong("final Checkpoint: " + s.ToString());
  uint64_t live_bytes = w->LiveBytes();
  eos::StatusOr<eos::FragmentationStats> frag = store.db->allocator()->FragStats();
  double space_amp = 0;
  if (frag.ok()) {
    const eos::SegmentAllocator* a = store.db->allocator();
    uint64_t managed = uint64_t{a->num_spaces()} * a->geometry().space_pages;
    space_amp = Ratio(static_cast<double>((managed - frag->free_pages) * kPageSize),
                      static_cast<double>(live_bytes));
  } else {
    checks.Wrong("FragStats: " + frag.status().ToString());
  }
  uint64_t segments = 0, depth_sum = 0;
  std::vector<uint64_t> ids = w->LiveIds();
  for (uint64_t id : ids) {
    eos::StatusOr<eos::LobStats> st = store.db->ObjectStats(id);
    if (!st.ok()) continue;
    segments += st->num_segments;
    depth_sum += st->depth;
  }
  store.Close();
  CheckKillCopy(work("end.vol"), work("end.wal"), w.get(), "end kill copy",
                &checks);

  // ----- results -----
  out.attempted = burst.ops + all.ops;
  out.failed = burst.failed + all.failed;
  uint64_t wrong = burst.wrong + all.wrong + checks.wrong;
  // No operation of these workloads is expected to fail, so a failed one
  // makes the run incorrect as a wrong result does.
  out.correct = wrong == 0 && out.failed == 0;
  for (const Tally* t : {&burst, &all, &checks}) {
    for (const std::string& n : t->notes) std::printf("note: %s\n", n.c_str());
  }
  if (wrong != 0) out.errors.push_back(std::to_string(wrong) + " wrong results");
  if (out.failed != 0) {
    out.errors.push_back(std::to_string(out.failed) + " failed operations");
  }

  std::vector<double> rd = all.read_us, wr = all.write_us;
  std::sort(rd.begin(), rd.end());
  std::sort(wr.begin(), wr.end());
  double secs = Seconds(elapsed);
  double reads = static_cast<double>(rd.size());
  double writes = static_cast<double>(wr.size());
  double ops = static_cast<double>(all.ops);
  std::printf("%s seed %" PRIu64 ": %.0f ops in %.3f s, %zu read samples, "
              "%zu write samples, %" PRIu64 " failed\n",
              opt.workload.c_str(), opt.seed, ops, secs, rd.size(), wr.size(),
              all.failed);

  for (const auto& [label, v] : {std::pair{"read", &rd}, std::pair{"write", &wr}}) {
    std::printf("%s us: p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f max %.1f (%zu samples)\n",
                label, NearestRank(*v, 0.5), NearestRank(*v, 0.9),
                NearestRank(*v, 0.99), NearestRank(*v, 0.999),
                v->empty() ? 0.0 : v->back(), v->size());
  }

  if (!opt.trace) {
    out.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", ops / secs, "op/s"},
        {"read_mib_per_s", static_cast<double>(all.read_bytes) / secs / 1048576.0, "MiB/s"},
        {"write_mib_per_s", static_cast<double>(all.write_bytes) / secs / 1048576.0, "MiB/s"},
        {"read_p50_us", NearestRank(rd, 0.50), "us"},
        {"read_p99_us", NearestRank(rd, 0.99), "us"},
        {"write_p50_us", NearestRank(wr, 0.50), "us"},
        {"write_p99_us", NearestRank(wr, 0.99), "us"},
        {"space_amp", space_amp, "B/B"},
        {"recover_s", Median(recover_s), "s"},
    };
    return out;
  }

  // Per-layer metrics: counts over the whole measured phase, times from
  // its traced slices.
  std::vector<const SpanRecorder::ThreadLog*> logs = rec.Logs();
  double traced_ops = static_cast<double>(all.traced_ops);
  double untraced_s = Seconds(elapsed - traced_ns);
  double traced_rate = Ratio(traced_ops, Seconds(traced_ns));
  double untraced_rate = Ratio(ops - traced_ops, untraced_s);
  auto d = [&](uint64_t Counters::*f) {
    return static_cast<double>(after.*f - before.*f);
  };
  auto sum_classes = [](const uint64_t (&a)[kClasses], const uint64_t (&b)[kClasses]) {
    uint64_t s = 0;
    for (int k = 0; k < kClasses; ++k) s += a[k] - b[k];
    return static_cast<double>(s);
  };
  double user_bytes = static_cast<double>(all.write_bytes);
  double cache_hits = static_cast<double>(after.cache.hits - before.cache.hits);
  double cache_misses = static_cast<double>(after.cache.misses - before.cache.misses);
  double live_mib = static_cast<double>(live_bytes) / 1048576.0;
  out.metrics = {
      {"eos.read_us", CallP50(logs, "eos.read"), "us"},
      {"eos.snapshot_read_us", CallP50(logs, "eos.snapshot_read"), "us"},
      {"eos.begin_snapshot_us", CallP50(logs, "eos.begin_snapshot"), "us"},
      {"eos.create_us", CallP50(logs, "eos.create"), "us"},
      {"eos.drop_us", CallP50(logs, "eos.drop"), "us"},
      {"eos.insert_us", CallP50(logs, "eos.insert"), "us"},
      {"eos.delete_us", CallP50(logs, "eos.delete"), "us"},
      {"eos.replace_us", CallP50(logs, "eos.replace"), "us"},
      {"eos.append_us", CallP50(logs, "eos.append"), "us"},
      {"eos.checkpoint_ms", CallP50(logs, "eos.checkpoint") / 1e3, "ms"},
      {"eos.open_ms", Median(open_ms), "ms"},
      {"eos.recover_ms", Median(recover_ms), "ms"},
      {"eos.read_self_us", SelfP50(logs, kRead), "us"},
      {"eos.write_self_us", SelfP50(logs, kWrite), "us"},
      {"io.pages_read_per_read",
       Ratio(static_cast<double>(after.pages_read[kRead] - before.pages_read[kRead]), reads),
       "page/op"},
      {"io.seeks_per_read",
       Ratio(static_cast<double>(after.seeks[kRead] - before.seeks[kRead]), reads),
       "seek/op"},
      {"io.device_read_us_per_op", Ratio(d(&Counters::read_ns) / 1e3, traced_ops), "us/op"},
      {"io.pages_written_per_write",
       Ratio(static_cast<double>(after.pages_written[kWrite] - before.pages_written[kWrite]),
             writes),
       "page/op"},
      {"io.device_write_us_per_op", Ratio(d(&Counters::write_ns) / 1e3, traced_ops), "us/op"},
      {"io.write_amp",
       Ratio(sum_classes(after.pages_written, before.pages_written) * kPageSize, user_bytes),
       "B/B"},
      {"io.sync_calls_per_write",
       Ratio(d(&Counters::sync_calls) + d(&Counters::wal_syncs), writes), "1/op"},
      {"io.sync_us_per_write", Ratio(d(&Counters::sync_ns) / 1e3, writes), "us/op"},
      {"pager.hit_ratio",
       Ratio(d(&Counters::pager_hit), d(&Counters::pager_hit) + d(&Counters::pager_miss)),
       "ratio"},
      {"pager.miss_per_op", Ratio(d(&Counters::pager_miss), ops), "1/op"},
      {"pager.writeback_per_op", Ratio(d(&Counters::pager_writeback), ops), "1/op"},
      {"cache.hit_ratio", Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"cache.evict_per_op",
       Ratio(static_cast<double>(after.cache.evicted - before.cache.evicted), ops), "1/op"},
      {"cache.resident_mib", static_cast<double>(after.cache.resident_bytes) / 1048576.0,
       "MiB"},
      {"buddy.alloc_per_write", Ratio(d(&Counters::buddy_alloc), writes), "1/op"},
      {"buddy.free_per_write", Ratio(d(&Counters::buddy_free), writes), "1/op"},
      {"frag.free_segments", frag.ok() ? static_cast<double>(frag->free_segments) : 0,
       "count"},
      {"lob.segments_per_mib", Ratio(static_cast<double>(segments), live_mib), "1/MiB"},
      {"lob.tree_depth",
       Ratio(static_cast<double>(depth_sum), static_cast<double>(ids.size())), "level"},
      {"lob.reshuffle_bytes_per_write", Ratio(d(&Counters::reshuffle_bytes), writes), "B/op"},
      {"cost.read_actual_over_model",
       Ratio(d(&Counters::cost_read_sum) / 100.0, d(&Counters::cost_read_count)), "ratio"},
      {"txn.log_bytes_per_user_byte", Ratio(d(&Counters::log_bytes), user_bytes), "B/B"},
      {"txn.versions_gcd_per_write", Ratio(d(&Counters::versions_gcd), writes), "1/op"},
      {"obs.journal_events_per_op", Ratio(d(&Counters::journal_events), ops), "1/op"},
      {"trace.ops_per_s", traced_rate, "op/s"},
      {"trace.untraced_ops_per_s", untraced_rate, "op/s"},
      {"trace.overhead_pct", 100.0 * (1.0 - Ratio(traced_rate, untraced_rate)), "%"},
  };
  std::string trace_path = (fs::path(opt.out_dir) / "trace.json").string();
  std::string self_path = (fs::path(opt.out_dir) / "self_times.json").string();
  if (!rec.WriteFiles(trace_path, self_path)) {
    out.correct = false;
    out.errors.push_back("could not write " + trace_path);
  } else {
    std::printf("spans written to %s, self times to %s\n", trace_path.c_str(),
                self_path.c_str());
  }
  std::printf("tracing overhead: %.1f%% (%.0f op/s traced, %.0f op/s untraced)\n",
              100.0 * (1.0 - Ratio(traced_rate, untraced_rate)), traced_rate,
              untraced_rate);
  return out;
}

}  // namespace perfbench
