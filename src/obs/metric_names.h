#ifndef EOS_OBS_METRIC_NAMES_H_
#define EOS_OBS_METRIC_NAMES_H_

// Canonical metric names shared by the instrumented components, the
// OpTracer snapshots, and eos_inspect. Units are part of the contract and
// documented in DESIGN.md ("Observability"): counters are event counts,
// *_pages gauges/histograms are in pages, *_bytes in bytes, op.*.us
// histograms in microseconds of wall time.

namespace eos {
namespace obs {

// --- pager -----------------------------------------------------------------
inline constexpr char kPagerHit[] = "pager.hit";
inline constexpr char kPagerMiss[] = "pager.miss";
inline constexpr char kPagerEviction[] = "pager.eviction";
inline constexpr char kPagerWriteback[] = "pager.writeback";
inline constexpr char kPagerCachedPages[] = "pager.cached_pages";  // gauge

// --- buddy space manager ---------------------------------------------------
inline constexpr char kBuddyAlloc[] = "buddy.alloc";
inline constexpr char kBuddyAllocPages[] = "buddy.alloc_pages";  // histogram
inline constexpr char kBuddyFree[] = "buddy.free";
inline constexpr char kBuddyFreeDeferred[] = "buddy.free_deferred";
inline constexpr char kBuddySplit[] = "buddy.split";
inline constexpr char kBuddyCoalesce[] = "buddy.coalesce";
inline constexpr char kBuddyFreePages[] = "buddy.free_pages";        // gauge
inline constexpr char kBuddyManagedPages[] = "buddy.managed_pages";  // gauge
inline constexpr char kBuddySpaceAdded[] = "buddy.space_added";
inline constexpr char kBuddyDirectoryVisit[] = "buddy.directory_visit";

// --- large object manager --------------------------------------------------
inline constexpr char kLobReshufflePlans[] = "lob.reshuffle.plans";
// Plans computed with threshold T > 1 (page reshuffling enabled) vs T == 1
// (pure byte reshuffling), the Section 4.4 decision.
inline constexpr char kLobReshufflePageMode[] = "lob.reshuffle.page_mode";
inline constexpr char kLobReshuffleByteMode[] = "lob.reshuffle.byte_mode";
inline constexpr char kLobReshuffleMovedBytes[] =
    "lob.reshuffle.moved_bytes";  // histogram
inline constexpr char kLobSegmentsWritten[] = "lob.segments_written";
inline constexpr char kLobSegmentPages[] = "lob.segment_pages";  // histogram
inline constexpr char kLobTreeLevel[] = "lob.tree_level";        // gauge
inline constexpr char kLobCompactUnsafeRuns[] = "lob.compact_unsafe_runs";
inline constexpr char kLobAppenderChunks[] = "lob.appender.chunks";

// --- transactions / recovery -----------------------------------------------
inline constexpr char kTxnLogRecords[] = "txn.log.records";
inline constexpr char kTxnLogBytes[] = "txn.log.bytes";
inline constexpr char kTxnRedoApplied[] = "txn.recovery.redo";
inline constexpr char kTxnUndoApplied[] = "txn.recovery.undo";
inline constexpr char kTxnObjectsRecovered[] = "txn.recovery.objects";

// --- multi-version concurrency (snapshot MVCC, DESIGN.md §13) ---------------
inline constexpr char kTxnSnapshotsOpen[] = "txn.snapshots_open";  // gauge
inline constexpr char kTxnVersionsPublished[] = "txn.versions_published";
inline constexpr char kTxnVersionsGcd[] = "txn.versions_gcd";
// Commit markers made durable per shared fsync (group commit).
inline constexpr char kTxnGroupCommitBatch[] =
    "txn.group_commit_batch";  // histogram

// --- verified I/O (page integrity layer) -----------------------------------
inline constexpr char kIoChecksumFail[] = "io.checksum_fail";
inline constexpr char kIoReadRetry[] = "io.read_retry";
inline constexpr char kIoWriteRetry[] = "io.write_retry";
inline constexpr char kIoQuarantinedPages[] = "io.quarantined_pages";

// --- device byte throughput (rate source for `eos_inspect top`) -------------
inline constexpr char kIoBytesRead[] = "io.bytes_read";
inline constexpr char kIoBytesWritten[] = "io.bytes_written";

// --- parallel I/O engine (executor, batch API, read-ahead) ------------------
inline constexpr char kIoBatchRuns[] = "io.batch_runs";
inline constexpr char kIoPrefetchIssued[] = "io.prefetch_issued";
inline constexpr char kIoPrefetchHit[] = "io.prefetch_hit";
inline constexpr char kIoPrefetchCancelled[] = "io.prefetch_cancelled";

// --- buffer pool (zero-copy staging) ----------------------------------------
inline constexpr char kPoolBuffersReused[] = "pool.buffers_reused";
inline constexpr char kPoolBuffersAllocated[] = "pool.buffers_allocated";

// --- hot-object DRAM cache tier (DESIGN.md §14) -----------------------------
inline constexpr char kCacheHit[] = "cache.hit";
inline constexpr char kCacheMiss[] = "cache.miss";
inline constexpr char kCacheAdmit[] = "cache.admit";
inline constexpr char kCacheReject[] = "cache.reject";
inline constexpr char kCacheEvict[] = "cache.evict";
inline constexpr char kCacheInvalidate[] = "cache.invalidate";
inline constexpr char kCacheFillFail[] = "cache.fill_fail";
inline constexpr char kCacheResidentBytes[] = "cache.resident_bytes";  // gauge

// --- scrub / repair ---------------------------------------------------------
inline constexpr char kScrubPagesVerified[] = "scrub.pages_verified";
inline constexpr char kScrubCorruptPages[] = "scrub.corrupt_pages";
inline constexpr char kScrubRepairedObjects[] = "scrub.repaired_objects";

// --- space reservation / admission control ---------------------------------
inline constexpr char kSpaceReserved[] = "space.reserved";
inline constexpr char kSpaceRefused[] = "space.refused";
inline constexpr char kSpaceUnwoundExtents[] = "space.unwound_extents";

// --- cost-model conformance (predicted vs actual I/O, DESIGN.md §6) ---------
// Histograms of 100 * actual page transfers / model-predicted transfers;
// a value persistently above 100 is the fragmentation early-warning.
inline constexpr char kCostReadRatio[] = "cost.read_actual_over_model";
inline constexpr char kCostInsertRatio[] = "cost.insert_actual_over_model";
inline constexpr char kCostAppendRatio[] = "cost.append_actual_over_model";
inline constexpr char kCostDeleteRatio[] = "cost.delete_actual_over_model";
inline constexpr char kCostModelPages[] = "cost.model_pages";    // histogram
inline constexpr char kCostActualPages[] = "cost.actual_pages";  // histogram
inline constexpr char kCostOpsCompared[] = "cost.ops_compared";

// --- fragmentation aging (free-space shape + per-object scatter) ------------
// Gauges refreshed by SegmentAllocator::FragStats(); the entropy gauge is
// the normalized [0,1] free-list entropy scaled to thousandths.
inline constexpr char kFragFreeEntropy[] = "frag.free_entropy";    // gauge
inline constexpr char kFragFreeSegments[] = "frag.free_segments";  // gauge
inline constexpr char kFragLargestFreePages[] =
    "frag.largest_free_pages";  // gauge
// Histogram of 100 * (per-scan page I/O of the object's current layout /
// the same object's ideal layout), recorded for every object a defrag scan
// visits. Values persistently above 100 mirror cost.read_actual_over_model
// without needing a physical read.
inline constexpr char kFragObjectScatter[] = "frag.object_scatter";

// --- online defragmenter (background reorganizer, DESIGN.md §12) ------------
inline constexpr char kDefragTicks[] = "defrag.ticks";
inline constexpr char kDefragObjectsScanned[] = "defrag.objects_scanned";
inline constexpr char kDefragObjectsMigrated[] = "defrag.objects_migrated";
inline constexpr char kDefragBytesMigrated[] = "defrag.bytes_migrated";
inline constexpr char kDefragMigrateFailed[] = "defrag.migrate_failed";
inline constexpr char kDefragSkippedHot[] = "defrag.skipped_hot";
inline constexpr char kDefragRefused[] = "defrag.refused";

// --- multi-volume set (placement, failover, repair, DESIGN.md §15) ----------
inline constexpr char kVolumeFailoverReads[] = "volume.failover_read";
inline constexpr char kVolumeRepairedPages[] = "volume.repaired_from_replica";
inline constexpr char kVolumeDegradedWrites[] = "volume.degraded_write";
inline constexpr char kVolumeShedPlacements[] = "volume.placement_shed";
inline constexpr char kVolumeMembersOffline[] =
    "volume.members_offline";  // gauge

// --- event journal (flight recorder) ----------------------------------------
inline constexpr char kJournalEvents[] = "journal.events";
inline constexpr char kJournalPostMortems[] = "journal.postmortems";

// --- chaos device (fault injection) ----------------------------------------
inline constexpr char kChaosInjectedFaults[] = "chaos.injected_faults";
inline constexpr char kChaosTornWrites[] = "chaos.torn_writes";
inline constexpr char kChaosBitRot[] = "chaos.bit_rot";
inline constexpr char kChaosCrashes[] = "chaos.crashes";

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_METRIC_NAMES_H_
