#ifndef EOS_EOS_DATABASE_H_
#define EOS_EOS_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "buddy/segment_allocator.h"
#include "cache/extent_cache.h"
#include "common/bytes.h"
#include "common/latch.h"
#include "common/retry.h"
#include "common/status.h"
#include "io/page_device.h"
#include "io/pager.h"
#include "io/volume_set.h"
#include "lob/defrag.h"
#include "lob/lob_manager.h"
#include "obs/snapshot.h"
#include "txn/log_manager.h"

namespace eos {

class VerifiedPageDevice;

// Top-level EOS storage facade: one volume (file-backed or in-memory)
// containing a superblock, a sequence of buddy segment spaces, and a
// persistent object directory mapping object ids to their large-object
// roots. The paper leaves root placement to the client; Database is one
// such client — it keeps every root in a DRAM-resident directory and
// persists it, at Flush()/Checkpoint(), as a large object whose root lives
// in the superblock.
struct DatabaseOptions {
  uint32_t page_size = 4096;
  uint32_t space_pages = 0;  // 0 = as many as one directory page can map
  uint32_t initial_spaces = 1;
  size_t pager_frames = 256;
  LobConfig lob;

  // Crash-safe configuration (Section 4.5 + DESIGN.md "Testing & fault
  // model"): the pager runs write-through so pages are durable before any
  // page referencing them is written, index nodes are shadowed, and every
  // freed segment is parked until the next Checkpoint() so no page a
  // durable root can reach is ever reused early. Costs extra writes;
  // recovery via Recover() then restores exactly the committed state after
  // a crash at any write boundary.
  bool crash_safe = false;

  // Integrity layer (DESIGN.md "Integrity & degraded operation"): the
  // device is wrapped in a VerifiedPageDevice, so every page carries a
  // 16-byte CRC32C trailer sealed on write and verified on read — the
  // usable page size becomes page_size - 16. Implied by crash_safe: a torn
  // or rotted page must fail closed, never read back as silent garbage.
  // Volumes remember the choice via the superblock's format epoch, so
  // Open()/OpenOnDevice() stack the layer automatically.
  bool checksums = false;

  // Bounds re-reads of transiently failing transfers (and re-tries of
  // failing writes) under the verified device. Defaults retry immediately;
  // set base_backoff_us for real hardware.
  RetryPolicy io_retry;

  // Degraded operation (DESIGN.md "Degraded operation under resource
  // exhaustion"): pages held back from user allocations so directory
  // saves, WAL appends and Checkpoint() still complete on a full volume.
  // New mutations are refused with typed NoSpace once the free-page count
  // can no longer stay above this floor; reads and deletes are always
  // admitted. 0 disables admission control.
  uint32_t emergency_reserve_pages = 0;

  // Parallel I/O (DESIGN.md "Parallel I/O and zero-copy paths"): attach
  // the process-wide IoExecutor so multi-segment reads fan their device
  // transfers out to worker threads. Off by default — inline transfers
  // keep the device's seek/transfer accounting deterministic, which the
  // cost-model benches and tests measure. The pool size follows
  // EOS_IO_THREADS (default min(4, hardware concurrency)).
  bool parallel_io = false;

  // Periodic observability export (DESIGN.md "Observability"): a non-zero
  // interval starts a background obs::SnapshotWriter that rewrites the
  // volume's "<path>.obs.json" sidecar every interval (plus once at open
  // and once at close), so `eos_inspect top` can watch a live process.
  // File-backed volumes only — in-memory volumes have no sidecar path.
  uint64_t obs_snapshot_interval_ms = 0;

  // Online defragmentation (DESIGN.md §12): `defrag.enabled` starts a
  // background thread that periodically migrates cold, scattered objects
  // back to their ideal layout. DefragTick() drives single deterministic
  // passes regardless of the flag.
  DefragOptions defrag;

  // Every Database runs multi-version concurrency (see class Database);
  // Init() rejects false. The field remains only because the perfbench
  // workloads still assign it, and goes once they stop setting it.
  bool mvcc = true;

  // Hot-object DRAM cache tier (DESIGN.md §14): a non-zero byte budget
  // attaches an ExtentCache above the leaf-read path. Read()/SnapshotRead()
  // hits are served as a zero-I/O memcpy off the cached immutable extent
  // image; misses fill through the ordinary read machinery. Entries are
  // keyed by (object id, version sequence, extent), so a published version's
  // cached bytes can never be stale; superseded versions are invalidated as
  // version GC retires them.
  size_t cache_bytes = 0;
};

// FreeInterceptor that parks every freed extent until the next
// Checkpoint() drains it: in crash-safe mode nothing a durable root can
// reach may be reused before a newer root is durable ([Lehm89] release
// locks at volume scope).
class CheckpointFreeList final : public FreeInterceptor {
 public:
  bool InterceptFree(const Extent& e) override {
    parked_.push_back(e);
    return true;
  }
  std::vector<Extent> TakeAll() {
    std::vector<Extent> out;
    out.swap(parked_);
    return out;
  }
  size_t parked() const { return parked_.size(); }
  // Read-only view for the leak checker: parked extents are allocated but
  // intentionally unreachable until the next checkpoint.
  const std::vector<Extent>& parked_extents() const { return parked_; }

 private:
  std::vector<Extent> parked_;
};

class Database;

// A pinned, immutable view of one object at a committed version (MVCC,
// DESIGN.md §13). While the snapshot is open, version GC keeps every page
// its root can reach allocated, so Database::SnapshotRead() traverses it
// without taking the directory latch — concurrent writers publish newer
// versions without ever blocking or being blocked by this reader.
// Move-only; destruction (or Release()) unpins the version, making its
// superseded storage reclaimable. Must not outlive the Database.
class Snapshot {
 public:
  Snapshot() = default;
  ~Snapshot() { Release(); }
  Snapshot(Snapshot&& o) noexcept { *this = std::move(o); }
  Snapshot& operator=(Snapshot&& o) noexcept;

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  bool valid() const { return db_ != nullptr; }
  uint64_t object_id() const { return object_id_; }
  // Position in the object's version chain (monotone per object).
  uint64_t vseq() const { return vseq_; }
  // LSN of the mutation that published this version.
  uint64_t lsn() const { return lsn_; }
  uint64_t size() const { return root_.size(); }
  const LobDescriptor& root() const { return root_; }

  // Unpins early; the snapshot becomes invalid.
  void Release();

 private:
  friend class Database;

  Database* db_ = nullptr;
  uint64_t object_id_ = 0;
  uint64_t vseq_ = 0;
  uint64_t lsn_ = 0;
  LobDescriptor root_;
};

// Result of Database::LeakCheck — the allocation maps cross-checked
// against object reachability.
struct LeakCheckReport {
  uint64_t allocated_pages = 0;  // pages the buddy maps consider live
  uint64_t reachable_pages = 0;  // pages some root (or parked free) covers
  // Allocated but referenced by nothing: storage lost to a bug.
  std::vector<Extent> leaked;
  // Covered by more than one reference: two trees claim the same storage.
  std::vector<Extent> doubly_referenced;
};

// Concurrency: a reader/writer latch serializes the object directory and
// every public operation — reads and stats run shared, mutations (and
// checkpoint/recovery/repair) run exclusive. That is what lets the online
// defragmenter migrate objects from a background thread while foreground
// readers keep running; per-page consistency below the latch is the
// pager's and allocator's own short-duration latches.
//
// Multi-version concurrency (DESIGN.md §13): every committed mutation
// publishes the object's new root into an in-memory version chain, and
// BeginSnapshot()/SnapshotRead() traverse a pinned version without touching
// the directory latch — snapshot readers never wait on writers. Index nodes
// are shadowed and Replace is copy-on-write, so no page a pinned version
// references is ever overwritten in place; superseded storage is reclaimed
// only once no snapshot pins it (through the CheckpointFreeList in
// crash_safe mode). With a log attached, every mutation writes its own
// commit marker and group-commits it (LogManager::LogCommitMarker and
// SyncToLsn); callers never log commits themselves.
class Database : private DefragHost {
 public:
  static constexpr uint32_t kMagic = 0x454F5356;  // "EOSV"
  // v2 adds the format epoch to the superblock and hole maps to the
  // directory; v1 volumes (epoch 0, no checksums) still open.
  static constexpr uint32_t kVersion = 2;
  // Epoch stamped into every page trailer of a checksummed volume. 0 in
  // the superblock means the volume predates checksums (or opted out) and
  // the device is used unwrapped.
  static constexpr uint16_t kFormatEpoch = 1;
  static constexpr PageId kSuperblockPage = 0;
  static constexpr PageId kFirstSpacePage = 1;

  // Creates a new volume file (truncating any existing one).
  static StatusOr<std::unique_ptr<Database>> Create(
      const std::string& path, const DatabaseOptions& options);

  // Opens an existing volume; geometry comes from the superblock, runtime
  // knobs (pager size, LOB config) from `options`.
  static StatusOr<std::unique_ptr<Database>> Open(
      const std::string& path, const DatabaseOptions& options);

  // Volatile volume for tests, examples and benches.
  static StatusOr<std::unique_ptr<Database>> CreateInMemory(
      const DatabaseOptions& options);

  // Formats a volume on a caller-supplied device (e.g. a ChaosPageDevice
  // wrapping the real backend); the device is grown as needed.
  static StatusOr<std::unique_ptr<Database>> CreateOnDevice(
      std::unique_ptr<PageDevice> device, const DatabaseOptions& options);

  // Opens a previously formatted volume on a caller-supplied device (e.g.
  // the cloned image of a crashed chaos device).
  static StatusOr<std::unique_ptr<Database>> OpenOnDevice(
      std::unique_ptr<PageDevice> device, const DatabaseOptions& options);

  // Formats a database across N member volumes (DESIGN.md §15): each
  // member gets its own verified stack, and the logical page space is
  // placed chunk-by-chunk across them — one buddy space per chunk when
  // set_options.chunk_pages is 0 (the default), so extents never straddle
  // members. With set_options.mirrored every chunk has a replica on a
  // second member: reads fail over, writes degrade typed, and
  // Scrub/RepairObject reconstruct bad pages from the replica.
  static StatusOr<std::unique_ptr<Database>> CreateOnVolumeSet(
      std::vector<std::unique_ptr<PageDevice>> members,
      VolumeSetOptions set_options, const DatabaseOptions& options);

  // Opens a previously formatted volume set. Members must come in their
  // formatted order; placement geometry is read from the member headers.
  static StatusOr<std::unique_ptr<Database>> OpenOnVolumeSet(
      std::vector<std::unique_ptr<PageDevice>> members,
      VolumeSetOptions set_options, const DatabaseOptions& options);

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ----- object directory --------------------------------------------------

  // Creates an empty large object and returns its id.
  StatusOr<uint64_t> CreateObject();
  StatusOr<uint64_t> CreateObjectFrom(ByteView data);

  // Destroys the object's storage and removes it from the directory.
  Status DropObject(uint64_t id);

  StatusOr<LobDescriptor> GetRoot(uint64_t id);
  Status PutRoot(uint64_t id, const LobDescriptor& d);
  StatusOr<std::vector<uint64_t>> ListObjects();

  // Per-object segment size threshold hint (Section 4.4); applies to all
  // subsequent operations on `id` through this Database handle. 0 resets
  // to the manager default; an unknown id is ignored.
  void SetObjectThreshold(uint64_t id, uint32_t threshold_pages);

  // Rewrites the object into its optimal layout (LobManager::Reorganize).
  Status ReorganizeObject(uint64_t id);

  // ----- online defragmentation (DESIGN.md §12) ------------------------------

  // One scan-and-migrate pass of the online defragmenter: scores every
  // object's scatter, migrates the worst cold offenders within the
  // configured per-tick budget. Runs whether or not the background thread
  // is enabled; safe concurrently with any other operation.
  Status DefragTick(DefragReport* report = nullptr);

  Defragmenter* defragmenter() { return defrag_.get(); }

  // ----- convenience object operations --------------------------------------

  // ----- snapshot MVCC (DESIGN.md §13) ---------------------------------------

  // Pins the object's current committed version and returns a Snapshot
  // that reads it. Never blocks on writers: only the (short, uncontended)
  // version-chain latch is taken.
  StatusOr<Snapshot> BeginSnapshot(uint64_t id);

  // Reads min(n, snap.size() - offset) bytes at `offset` from the pinned
  // version, latch-free with respect to the directory: concurrent
  // mutations of the same object do not block this and are never observed
  // by it.
  StatusOr<Bytes> SnapshotRead(const Snapshot& snap, uint64_t offset,
                               uint64_t n);

  // One entry of an object's version chain, for eos_inspect and tests.
  struct VersionInfo {
    uint64_t vseq = 0;
    uint64_t lsn = 0;
    uint64_t size = 0;
    uint64_t pins = 0;
    PageId root_page = kInvalidPage;  // first child page; invalid if none
    uint32_t retired_extents = 0;     // extents parked until this version GCs
    bool current = false;
    bool dead = false;  // drop marker (object destroyed)
  };

  // The object's version chain, oldest first. A freshly opened volume
  // holds one unpinned current version per object.
  StatusOr<std::vector<VersionInfo>> ListVersions(uint64_t id);

  StatusOr<uint64_t> Size(uint64_t id);
  StatusOr<Bytes> Read(uint64_t id, uint64_t offset, uint64_t n);
  Status Append(uint64_t id, ByteView data);
  Status Insert(uint64_t id, uint64_t offset, ByteView data);
  Status Delete(uint64_t id, uint64_t offset, uint64_t n);
  Status Replace(uint64_t id, uint64_t offset, ByteView data);
  StatusOr<LobStats> ObjectStats(uint64_t id);

  // ----- plumbing ------------------------------------------------------------

  // Writes the object directory if it changed since the last flush,
  // rewrites the superblock to point at it, flushes the pager and syncs the
  // device. If the directory write fails, the superblock keeps the
  // previous directory and the next Flush() retries the write.
  Status Flush();

  // Flush(), then (crash-safe mode) returns the segments freed since the
  // last checkpoint to the buddy system — they can no longer be reached
  // from any durable root, so reuse is safe from here on.
  Status Checkpoint();

  // Crash recovery on a freshly opened volume whose superblock may lag the
  // log and whose allocation maps may be stale:
  //   1. rebuilds every space's allocation map from reachability (the
  //      directory object plus every directory root);
  //   2. per object — including ids only the log knows — redoes committed
  //      records and removes in-flight effects (Recovery::RecoverObject);
  //   3. drops objects whose last committed record is a destroy, and
  //      checkpoints, which writes the recovered directory.
  // `log` is the surviving write-ahead log, in emit order.
  Status Recover(const std::vector<LogRecord>& log);

  // Buddy invariants of every space plus tree invariants of every object.
  Status CheckIntegrity();

  // Read-only audit: walks every reachable extent (directory object, all
  // object trees, checkpoint-parked frees) and compares the union against
  // the buddy allocation maps, reporting leaked and doubly-referenced
  // storage. OK with an empty report on a healthy volume; Corruption if
  // anything leaks or overlaps.
  Status LeakCheck(LeakCheckReport* report);

  // ----- scrub / quarantine / repair ----------------------------------------

  // Flushes, then verifies every reachable page by reading it back through
  // the device: superblock, each space's allocation map, the directory
  // object, and every object tree. Appends one issue per unreadable page;
  // on a verified device those pages end up quarantined as a side effect.
  Status Scrub(ScrubReport* report);

  // Rebuilds a damaged object from whatever Salvage can still read: the
  // unrecoverable byte ranges are zero-filled and recorded as the object's
  // hole map (persisted with the directory), the content is rewritten into
  // fresh storage, and the allocation maps are rebuilt from reachability —
  // the corrupt subtrees cannot be freed through, so the old pages are
  // reclaimed by rebuilding instead. Reads of the repaired object work
  // normally; GetHoles() says which bytes are fabricated zeroes.
  Status RepairObject(uint64_t id);

  // The object's persisted hole map (empty if never repaired, or repaired
  // losslessly). Ranges are advisory: they describe the bytes at repair
  // time and are not maintained through later updates.
  std::vector<HoleRange> GetHoles(uint64_t id) const;

  // Non-null iff the volume runs with the integrity layer stacked.
  VerifiedPageDevice* verified_device() { return verified_; }

  // Non-null iff the database runs on a multi-volume set (each member
  // carries its own integrity layer; verified_device() is null then).
  VolumeSetDevice* volume_set() { return volume_set_; }

  // Root of the directory object as last written (at the most recent
  // Flush()/Checkpoint()); later creates, drops and edits live only in the
  // DRAM directory until the next one.
  const LobDescriptor& dir_object() const { return dir_object_; }

  // Estimated DRAM of the per-object state: directory slots (root image,
  // hole map) and version chains (each version's root image copy and
  // retired extents), table buckets and nodes included, heap headers not.
  // O(objects); for benches and inspection.
  uint64_t DirectoryMemoryBytes() const;

  LobManager* lob() { return lob_.get(); }
  // Non-null iff options.cache_bytes > 0.
  ExtentCache* extent_cache() { return cache_.get(); }
  SegmentAllocator* allocator() { return allocator_.get(); }
  Pager* pager() { return pager_.get(); }
  PageDevice* device() { return device_.get(); }

  // Attaches a log manager; subsequent object operations are logged with
  // the object id (Section 4.5).
  void AttachLog(LogManager* log);

 private:
  friend class Snapshot;

  Database() = default;

  static StatusOr<std::unique_ptr<Database>> Init(
      std::unique_ptr<PageDevice> device, const DatabaseOptions& options,
      bool fresh);

  Status WriteSuperblock();
  Status ReadSuperblock(uint32_t* space_pages, uint32_t* num_spaces);

  // Recover() minus the fatal-path post-mortem dump.
  Status RecoverImpl(const std::vector<LogRecord>& log);

  // Begins periodic "<path>.obs.json" exports when the options ask for
  // them (no-op otherwise); Create/Open call this, in-memory volumes don't.
  void StartSnapshotWriter(const std::string& volume_path);

  // Largest directory root the superblock can hold.
  uint32_t DirRootSlotBytes() const;

  // v2 directory streams open with an 8-byte sentinel no v1 entry can
  // produce (object ids are monotone from 1), then a format version:
  // [sentinel u64 = ~0][version u32]
  // [id u64][root_len u32][hole_count u32][root][(off u64, len u64)...]...
  // v1 streams ([id u64][len u32][root]...) still parse.
  Status LoadDirectory();
  // Serializes directory_ into a new directory object, then destroys the
  // previous one. On failure dir_object_ and directory_dirty_ are left as
  // they were. Caller holds dir_latch_ exclusive.
  Status SaveDirectory();

  // The one write path of the public object mutations: latches, admits the
  // mutation (a `reclaims` one — Delete — instead runs under the emergency
  // reserve), runs `lob_call` on the object's root with its frees captured
  // as the superseded version's retire batch, publishes the new root,
  // commits it, and waits for the commit to be durable after unlatching.
  using LobCall = std::function<Status(LobDescriptor*)>;
  Status MutateObject(const char* op, uint64_t id, bool reclaims,
                      const LobCall& lob_call);

  // ----- latch-free internals (caller holds dir_latch_) ---------------------

  StatusOr<uint64_t> CreateObjectLocked();
  // MutateObject minus the span, latch and commit wait; `commit_lsn`
  // receives the marker's LSN (0 without a log).
  Status MutateObjectLocked(uint64_t id, bool reclaims,
                            const LobCall& lob_call, uint64_t* commit_lsn);
  struct ObjectSlot;
  // The slot's root with its threshold hint applied.
  static StatusOr<LobDescriptor> DecodeRoot(const ObjectSlot& slot);
  StatusOr<LobDescriptor> GetRootLocked(uint64_t id);
  // Makes `d` the current root of `id`, whose slot is `slot`: stores and
  // publishes it and marks the directory for the next flush.
  Status PutRootLocked(uint64_t id, ObjectSlot* slot, const LobDescriptor& d);
  // Writes the directory if dirty, then SyncVolumeLocked(). Caller holds
  // dir_latch_ exclusive.
  Status FlushLocked();
  // Rewrites the superblock around the current dir_object_, flushes the
  // pager and syncs the device. Shared dir_latch_ suffices: it changes no
  // directory state.
  Status SyncVolumeLocked();
  Status CheckpointLocked();
  // Per-object leg of Scrub(); fans out across threads on a multi-member
  // volume set with parallel_io.
  Status ScrubObjectsLocked(ScrubReport* report);
  // Records a foreground mutation of the slot's object on the heat clock,
  // so the defragmenter can tell cold objects from ones still being
  // written.
  void TouchLocked(ObjectSlot* slot);

  // The version tag Read() binds into the extent cache for `id`: the
  // chain-current vseq. 0 (don't cache) when the cache is off or the id is
  // unknown. Caller holds dir_latch_ (shared suffices).
  uint64_t CacheVseqLocked(uint64_t id);

  // ----- version chains (MVCC, DESIGN.md §13) --------------------------------

  // One committed version of one object. `retired` is the storage that
  // died when this version was superseded — the frees the successor's
  // commit replayed — parked here until pins reaches zero.
  struct ObjectVersion {
    uint64_t vseq = 0;
    Bytes root;  // serialized LobDescriptor; empty for a drop marker
    uint64_t lsn = 0;
    uint64_t pins = 0;
    bool dead = false;
    std::vector<Extent> retired;
  };
  // Oldest first; chains are short unless a snapshot pins an old version.
  using VersionChain = std::vector<ObjectVersion>;

  // Rebuilds every chain from directory_ (open, recovery): one unpinned
  // current version per object. Clears gc staging and stale capture state.
  void SeedVersionChains();
  // Forgets every chain and retire batch ahead of a reachability rebuild
  // (Recover, RepairObject). The rebuild reclaims that storage — and the
  // `reclaimed` extents — without the allocator's free path, so their
  // cached pager frames are dropped here, as SegmentAllocator::FreeInternal
  // would: a stale dirty frame must never trample a later reuse.
  void DropVersionsLocked(std::vector<Extent> reclaimed);
  // Appends a new current version for `id` under dir_latch_ exclusive,
  // attaching pending_retired_ to the superseded version, then drains
  // whatever became collectable into gc_ready_.
  void PublishVersion(uint64_t id, const Bytes& root, uint64_t lsn,
                      bool dead);
  // FIFO-drains the chain front (collectable = unpinned and superseded, or
  // an unpinned drop marker), staging retire batches into gc_ready_. When
  // the front advances, cached extents of the collected versions — which no
  // reader can pin anymore — are dropped from the extent cache. Caller
  // holds versions_latch_ (the cache's shard latches are leaves below it).
  void CollectChainLocked(uint64_t id, VersionChain* chain);
  // Unpin from Snapshot teardown: may run on any thread, takes only
  // versions_latch_, never calls into the allocator (a writer may have a
  // capturing interceptor installed) — collectable storage waits in
  // gc_ready_ for the next exclusive-latched drain.
  void ReleaseSnapshotPin(uint64_t id, uint64_t vseq);
  // Frees gc_ready_ through the normal allocator path (landing in the
  // CheckpointFreeList in crash-safe mode). Caller holds dir_latch_
  // exclusive with no capture scope installed.
  Status DrainVersionGcLocked();
  // True if any snapshot pin is open.
  bool HasOpenPins();
  // Emits the WAL commit marker for a successful mutation — under
  // dir_latch_, so the marker is ordered after the mutation's own records.
  // No-op (commit_lsn stays 0) without an attached log.
  Status CommitMutationLocked(uint64_t id, uint64_t* commit_lsn);
  // Waits until a log sync covers `commit_lsn` (0 = nothing to wait for).
  // Called *after* releasing dir_latch_: the fsync wait is where group
  // commit batches, and holding the latch through it would serialize the
  // very committers it should batch.
  Status SyncCommit(uint64_t commit_lsn);

  // ----- DefragHost (the defragmenter's view of this database) --------------

  StatusOr<std::vector<DefragHost::ObjectFacts>> CollectObjectFacts() override;
  uint64_t MutationClock() override;
  Status MigrateObject(uint64_t id, uint64_t horizon,
                       uint32_t headroom_pages) override;
  Status ReleaseMigratedStorage() override;
  void RefreshFragGauges() override;

  DatabaseOptions options_;
  std::unique_ptr<obs::SnapshotWriter> snapshot_writer_;
  std::unique_ptr<PageDevice> device_;
  VerifiedPageDevice* verified_ = nullptr;  // aliases device_ when stacked
  VolumeSetDevice* volume_set_ = nullptr;   // aliases device_ when multi-volume
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<SegmentAllocator> allocator_;
  std::unique_ptr<LobManager> lob_;
  std::unique_ptr<ExtentCache> cache_;  // options.cache_bytes > 0 only
  std::unique_ptr<CheckpointFreeList> deferred_frees_;  // crash-safe only
  LogManager* log_ = nullptr;

  // One object's directory entry. Only `root` and `holes` are persisted;
  // the threshold hint and heat stamp live for this handle only.
  struct ObjectSlot {
    Bytes root;                    // serialized LobDescriptor
    std::vector<HoleRange> holes;  // RepairObject's hole map
    uint32_t threshold_hint = 0;   // SetObjectThreshold; 0 = manager default
    uint64_t last_mutation = 0;    // heat clock stamp (TouchLocked)
  };

  uint64_t next_object_id_ = 1;
  LobDescriptor dir_object_;  // the directory object as last written
  // The DRAM directory, the source of truth for every object's root. It
  // reaches the volume only at FlushLocked(): between checkpoints the WAL
  // orders every create, drop and edit, and recovery replays them onto the
  // checkpointed copy.
  std::unordered_map<uint64_t, ObjectSlot> directory_;
  // directory_ differs from the copy dir_object_ holds.
  bool directory_dirty_ = false;

  // Reader/writer latch over the directory and all object state above;
  // shared for reads/stats, exclusive for mutations. Mutable so const
  // accessors (GetHoles) can latch.
  mutable SharedLatch dir_latch_;
  // Heat clock for ObjectSlot::last_mutation; atomic so the defragmenter
  // can read it latch-free.
  std::atomic<uint64_t> mutation_clock_{0};
  std::unique_ptr<Defragmenter> defrag_;

  // MVCC state. versions_/gc_ready_ are guarded by versions_latch_ — a
  // leaf latch below dir_latch_ (writers hold both; BeginSnapshot and pin
  // release take only versions_latch_, which is what keeps readers off the
  // directory latch). pending_retired_ is a writer-side staging slot and
  // is guarded by dir_latch_ exclusive alone.
  std::unordered_map<uint64_t, VersionChain> versions_;
  std::vector<Extent> gc_ready_;
  mutable Latch versions_latch_;
  std::vector<Extent> pending_retired_;
};

}  // namespace eos

#endif  // EOS_EOS_DATABASE_H_
