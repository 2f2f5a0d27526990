// eos_inspect — command-line volume inspector.
//
//   eos_inspect <volume> [--page-size N]        overview + object list
//   eos_inspect <volume> --object <id>          one object's structure
//   eos_inspect <volume> versions <id>          one object's version chain
//                                               (a freshly opened volume
//                                               holds one current version)
//   eos_inspect <volume> --check                full integrity check
//   eos_inspect <volume> verify                 integrity + read every byte
//   eos_inspect <volume> --spaces               buddy free-list report
//   eos_inspect <volume> stats                  metrics snapshot summary
//   eos_inspect <volume> cache                  extent-cache effectiveness
//                                               (hits, admission, eviction,
//                                               residency)
//   eos_inspect <volume> trace                  recent operation spans
//   eos_inspect <volume> trace --chrome=out.json  export spans as Chrome
//                                               trace events (chrome://tracing)
//   eos_inspect <volume> top [--interval MS] [--count N]
//                                               live rates from successive
//                                               sidecar snapshots
//   eos_inspect <volume> scrub                  checksum-verify every page
//   eos_inspect <volume> repair                 scrub, then rebuild damaged
//                                               objects (lossy: see holes)
//   eos_inspect <volume> leak-check             allocation maps vs object
//                                               reachability
//   eos_inspect <m0> volumes <m1> [<m2> ...]    multi-volume set health:
//                                               per-member fill, watermark
//                                               state, quarantined pages,
//                                               repairs from replica
//   eos_inspect <volume> defrag [--apply] [--min-scatter X]
//                                               per-object layout-drift
//                                               report; --apply migrates
//                                               the offenders (DESIGN §12)
//
// `stats` and `trace` read the "<volume>.obs.json" sidecar written by
// instrumented processes (see src/obs/snapshot.h); they do not open the
// volume itself. Everything else is read-only except the superblock flush
// performed on clean close.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eos/database.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/snapshot.h"

namespace {

using eos::Database;
using eos::DatabaseOptions;
using eos::LobStats;
using eos::SpaceReport;
using eos::Status;

int Usage() {
  std::fprintf(stderr,
               "usage: eos_inspect <volume> [--page-size N] "
               "[--object ID | versions ID | --check | verify | --spaces | "
               "stats | cache | trace [--chrome=OUT] | top [--interval MS] "
               "[--count N] | scrub | repair | leak-check | "
               "defrag [--apply] [--min-scatter X] | "
               "volumes <member1> [<member2> ...]]\n");
  return 2;
}

void Fail(const Status& s, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

void PrintOverview(Database* db) {
  auto ids = db->ListObjects();
  if (!ids.ok()) Fail(ids.status(), "list");
  std::printf("volume: page_size=%u spaces=%u (%.1f MB managed)\n",
              db->device()->page_size(), db->allocator()->num_spaces(),
              db->allocator()->num_spaces() *
                  static_cast<double>(db->allocator()->geometry().space_pages) *
                  db->device()->page_size() / 1048576.0);
  auto free_pages = db->allocator()->TotalFreePages();
  if (!free_pages.ok()) Fail(free_pages.status(), "free pages");
  std::printf("free: %llu pages\n",
              static_cast<unsigned long long>(*free_pages));
  std::printf("%8s %14s %10s %10s %8s %8s\n", "object", "bytes", "segments",
              "leaf pgs", "depth", "util");
  for (uint64_t id : *ids) {
    auto st = db->ObjectStats(id);
    if (!st.ok()) Fail(st.status(), "stats");
    std::printf("%8llu %14llu %10llu %10llu %8u %7.1f%%\n",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(st->size_bytes),
                static_cast<unsigned long long>(st->num_segments),
                static_cast<unsigned long long>(st->leaf_pages), st->depth,
                100.0 * st->leaf_utilization);
  }
}

void PrintObject(Database* db, uint64_t id) {
  auto root = db->GetRoot(id);
  if (!root.ok()) Fail(root.status(), "object");
  auto st = db->ObjectStats(id);
  if (!st.ok()) Fail(st.status(), "stats");
  std::printf("object %llu: %llu bytes, lsn %llu\n",
              static_cast<unsigned long long>(id),
              static_cast<unsigned long long>(root->size()),
              static_cast<unsigned long long>(root->lsn));
  std::printf(
      "  tree: depth %u, %llu index pages, %llu segments "
      "(min %llu / avg %.1f / max %llu pages)\n",
      st->depth, static_cast<unsigned long long>(st->index_pages),
      static_cast<unsigned long long>(st->num_segments),
      static_cast<unsigned long long>(st->min_segment_pages),
      st->avg_segment_pages,
      static_cast<unsigned long long>(st->max_segment_pages));
  std::printf("  utilization: %.2f%% leaf, %.2f%% incl. index\n",
              100.0 * st->leaf_utilization, 100.0 * st->total_utilization);
  std::printf("  root entries (cumulative count -> page):\n");
  uint64_t cum = 0;
  for (const eos::LobEntry& e : root->root.entries) {
    cum += e.count;
    std::printf("    %12llu -> page %llu\n",
                static_cast<unsigned long long>(cum),
                static_cast<unsigned long long>(e.page));
  }
}

void PrintSpaces(Database* db) {
  auto report = db->allocator()->Report();
  if (!report.ok()) Fail(report.status(), "report");
  std::printf("%6s %12s %14s   free segments by size (pages x count)\n",
              "space", "free pages", "largest free");
  for (const SpaceReport& r : *report) {
    std::printf("%6u %12llu %14s   ", r.space,
                static_cast<unsigned long long>(r.free_pages),
                r.max_free_type < 0
                    ? "-"
                    : std::to_string(uint64_t{1} << r.max_free_type)
                          .c_str());
    for (size_t t = 0; t < r.free_counts.size(); ++t) {
      if (r.free_counts[t] > 0) {
        std::printf("%llux%u ",
                    static_cast<unsigned long long>(uint64_t{1} << t),
                    r.free_counts[t]);
      }
    }
    std::printf("\n");
  }
}

// Deep verification, the post-recovery health check the crash torture
// relies on programmatically: structural invariants of every space and
// every object, then a full read of every object's bytes (exercising each
// leaf segment and index node on disk). Exit 1 on the first problem.
void Verify(Database* db) {
  Status s = db->CheckIntegrity();
  if (!s.ok()) Fail(s, "integrity");
  auto ids = db->ListObjects();
  if (!ids.ok()) Fail(ids.status(), "list");
  uint64_t objects = 0;
  uint64_t bytes = 0;
  for (uint64_t id : *ids) {
    auto size = db->Size(id);
    if (!size.ok()) Fail(size.status(), "size");
    auto data = db->Read(id, 0, *size);
    if (!data.ok()) Fail(data.status(), "read");
    if (data->size() != *size) {
      std::fprintf(stderr,
                   "object %llu: read returned %llu of %llu bytes\n",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(data->size()),
                   static_cast<unsigned long long>(*size));
      std::exit(1);
    }
    ++objects;
    bytes += *size;
  }
  std::printf("verify OK: %llu objects, %llu bytes read back\n",
              static_cast<unsigned long long>(objects),
              static_cast<unsigned long long>(bytes));
}

// Loads the "<volume>.obs.json" sidecar; prints the satellite-friendly
// "no stats recorded" line and exits 0 when it is absent (uninstrumented
// or never-exercised volumes are not an error).
eos::obs::JsonValue LoadSnapshotOrExit(const std::string& volume) {
  std::string path = eos::obs::SnapshotPathFor(volume);
  auto snap = eos::obs::ReadSnapshotFile(path);
  if (snap.status().IsNotFound()) {
    std::printf("no stats recorded for %s (missing %s)\n", volume.c_str(),
                path.c_str());
    std::exit(0);
  }
  if (!snap.ok()) Fail(snap.status(), "stats snapshot");
  return std::move(snap).value();
}

double CounterOf(const eos::obs::JsonValue& snap, const char* name) {
  const eos::obs::JsonValue* metrics = snap.Find("metrics");
  const eos::obs::JsonValue* counters =
      metrics == nullptr ? nullptr : metrics->Find("counters");
  return counters == nullptr ? 0.0 : counters->NumberOr(name, 0.0);
}

double GaugeOf(const eos::obs::JsonValue& snap, const char* name) {
  const eos::obs::JsonValue* metrics = snap.Find("metrics");
  const eos::obs::JsonValue* gauges =
      metrics == nullptr ? nullptr : metrics->Find("gauges");
  return gauges == nullptr ? 0.0 : gauges->NumberOr(name, 0.0);
}

void PrintStats(const std::string& volume) {
  namespace obs = eos::obs;
  obs::JsonValue snap = LoadSnapshotOrExit(volume);

  double hits = CounterOf(snap, obs::kPagerHit);
  double misses = CounterOf(snap, obs::kPagerMiss);
  double fetches = hits + misses;
  std::printf("pager: %.0f fetches, %.1f%% hit rate, %.0f evictions, "
              "%.0f dirty writebacks\n",
              fetches, fetches == 0 ? 0.0 : 100.0 * hits / fetches,
              CounterOf(snap, obs::kPagerEviction),
              CounterOf(snap, obs::kPagerWriteback));

  double managed = GaugeOf(snap, obs::kBuddyManagedPages);
  double free_pages = GaugeOf(snap, obs::kBuddyFreePages);
  std::printf("buddy: %.0f allocs, %.0f frees (%.0f deferred), "
              "%.0f splits, %.0f coalesces\n",
              CounterOf(snap, obs::kBuddyAlloc),
              CounterOf(snap, obs::kBuddyFree),
              CounterOf(snap, obs::kBuddyFreeDeferred),
              CounterOf(snap, obs::kBuddySplit),
              CounterOf(snap, obs::kBuddyCoalesce));
  std::printf("buddy: %.0f/%.0f pages in use (%.1f%% utilization), "
              "%.0f directory visits\n",
              managed - free_pages, managed,
              managed == 0 ? 0.0 : 100.0 * (managed - free_pages) / managed,
              CounterOf(snap, obs::kBuddyDirectoryVisit));

  std::printf("reshuffle: %.0f plans (%.0f page-mode, %.0f byte-mode), "
              "%.0f unsafe-run compactions\n",
              CounterOf(snap, obs::kLobReshufflePlans),
              CounterOf(snap, obs::kLobReshufflePageMode),
              CounterOf(snap, obs::kLobReshuffleByteMode),
              CounterOf(snap, obs::kLobCompactUnsafeRuns));
  std::printf("txn: %.0f log records (%.0f bytes), %.0f redo, %.0f undo\n",
              CounterOf(snap, obs::kTxnLogRecords),
              CounterOf(snap, obs::kTxnLogBytes),
              CounterOf(snap, obs::kTxnRedoApplied),
              CounterOf(snap, obs::kTxnUndoApplied));

  const obs::JsonValue* metrics = snap.Find("metrics");
  const obs::JsonValue* hists =
      metrics == nullptr ? nullptr : metrics->Find("histograms");
  if (hists != nullptr && hists->is_object()) {
    bool header = false;
    for (const auto& [name, h] : hists->members()) {
      if (name.rfind("op.", 0) != 0) continue;
      if (!header) {
        std::printf("%-28s %10s %10s %10s %10s\n", "operation latency",
                    "count", "p50 us", "p99 us", "max us");
        header = true;
      }
      std::printf("%-28s %10.0f %10.0f %10.0f %10.0f\n", name.c_str(),
                  h.NumberOr("count", 0), h.NumberOr("p50", 0),
                  h.NumberOr("p99", 0), h.NumberOr("max", 0));
    }
  }
}

// Extent-cache effectiveness from the sidecar (DESIGN.md §14): hit rate,
// admission-filter behaviour, eviction/invalidation churn and residency.
void PrintCacheStats(const std::string& volume) {
  namespace obs = eos::obs;
  obs::JsonValue snap = LoadSnapshotOrExit(volume);

  double hits = CounterOf(snap, obs::kCacheHit);
  double misses = CounterOf(snap, obs::kCacheMiss);
  double lookups = hits + misses;
  double admitted = CounterOf(snap, obs::kCacheAdmit);
  double rejected = CounterOf(snap, obs::kCacheReject);
  double offered = admitted + rejected;
  double resident = GaugeOf(snap, obs::kCacheResidentBytes);

  if (lookups == 0 && offered == 0) {
    std::printf("cache: no activity recorded (cache_bytes=0 or no reads)\n");
    return;
  }
  std::printf("%-22s %14s %14s\n", "extent cache", "count", "rate");
  std::printf("%-22s %14.0f %13.1f%%\n", "  hits", hits,
              lookups == 0 ? 0.0 : 100.0 * hits / lookups);
  std::printf("%-22s %14.0f %13.1f%%\n", "  misses", misses,
              lookups == 0 ? 0.0 : 100.0 * misses / lookups);
  std::printf("%-22s %14.0f %13.1f%%\n", "  admitted", admitted,
              offered == 0 ? 0.0 : 100.0 * admitted / offered);
  std::printf("%-22s %14.0f %13.1f%%\n", "  rejected (TinyLFU)", rejected,
              offered == 0 ? 0.0 : 100.0 * rejected / offered);
  std::printf("%-22s %14.0f\n", "  evicted",
              CounterOf(snap, obs::kCacheEvict));
  std::printf("%-22s %14.0f\n", "  invalidated",
              CounterOf(snap, obs::kCacheInvalidate));
  std::printf("%-22s %14.0f\n", "  fill failures",
              CounterOf(snap, obs::kCacheFillFail));
  std::printf("resident: %.1f MB\n", resident / 1048576.0);
}

void PrintTrace(const std::string& volume) {
  eos::obs::JsonValue snap = LoadSnapshotOrExit(volume);
  const eos::obs::JsonValue* trace = snap.Find("trace");
  if (trace == nullptr || !trace->is_array() || trace->elements().empty()) {
    std::printf("no trace spans recorded\n");
    return;
  }
  std::printf("%6s %5s %-22s %6s %9s %6s %6s %9s %3s\n", "seq", "depth",
              "op", "obj", "us", "seeks", "xfers", "hit/miss", "ok");
  for (const eos::obs::JsonValue& s : trace->elements()) {
    const eos::obs::JsonValue* op = s.Find("op");
    char hm[32];
    std::snprintf(hm, sizeof(hm), "%.0f/%.0f", s.NumberOr("pager_hits", 0),
                  s.NumberOr("pager_misses", 0));
    std::printf("%6.0f %5.0f %-22s %6.0f %9.0f %6.0f %6.0f %9s %3s\n",
                s.NumberOr("seq", 0), s.NumberOr("depth", 0),
                op != nullptr && op->is_string() ? op->str().c_str() : "?",
                s.NumberOr("object", 0), s.NumberOr("wall_us", 0),
                s.NumberOr("seeks", 0),
                s.NumberOr("pages_read", 0) + s.NumberOr("pages_written", 0),
                hm,
                s.Find("ok") != nullptr && s.Find("ok")->boolean() ? "ok"
                                                                   : "ERR");
  }
}

// Writes the sidecar's spans as Chrome trace-event JSON; load the file in
// chrome://tracing or https://ui.perfetto.dev.
void ExportChromeTrace(const std::string& volume, const std::string& out) {
  eos::obs::JsonValue snap = LoadSnapshotOrExit(volume);
  std::string json = eos::obs::ChromeTraceJson(snap);
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "chrome trace: cannot open %s\n", out.c_str());
    std::exit(1);
  }
  size_t put = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  if (std::fclose(f) != 0 || put != json.size()) {
    std::fprintf(stderr, "chrome trace: write to %s failed\n", out.c_str());
    std::exit(1);
  }
  const eos::obs::JsonValue* trace = snap.Find("trace");
  std::printf("chrome trace: %zu span(s) -> %s\n",
              trace != nullptr && trace->is_array()
                  ? trace->elements().size()
                  : size_t{0},
              out.c_str());
}

// ----- top: rate deltas between successive snapshots -------------------------

// The cumulative quantities `top` differentiates, pulled from one sidecar
// snapshot.
struct TopSample {
  bool valid = false;
  double ops = 0;            // total op.* span count
  double bytes_read = 0;
  double bytes_written = 0;
  double cost_sum = 0;       // cost.read_actual_over_model sum (percent)
  double cost_count = 0;
  double cache_hits = 0;     // extent-cache lookups
  double cache_misses = 0;
  double busiest_count = 0;  // for picking the latency line
  std::string busiest_op;
  double p50 = 0;
  double p99 = 0;
};

TopSample ReadTopSample(const std::string& volume) {
  TopSample t;
  std::string path = eos::obs::SnapshotPathFor(volume);
  auto snap = eos::obs::ReadSnapshotFile(path);
  if (!snap.ok()) return t;
  t.valid = true;
  t.bytes_read = CounterOf(*snap, eos::obs::kIoBytesRead);
  t.bytes_written = CounterOf(*snap, eos::obs::kIoBytesWritten);
  t.cache_hits = CounterOf(*snap, eos::obs::kCacheHit);
  t.cache_misses = CounterOf(*snap, eos::obs::kCacheMiss);
  const eos::obs::JsonValue* metrics = snap->Find("metrics");
  const eos::obs::JsonValue* hists =
      metrics == nullptr ? nullptr : metrics->Find("histograms");
  if (hists == nullptr || !hists->is_object()) return t;
  for (const auto& [name, h] : hists->members()) {
    if (name.rfind("op.", 0) == 0) {
      double c = h.NumberOr("count", 0);
      t.ops += c;
      if (c > t.busiest_count) {
        t.busiest_count = c;
        t.busiest_op = name;
        t.p50 = h.NumberOr("p50", 0);
        t.p99 = h.NumberOr("p99", 0);
      }
    } else if (name == eos::obs::kCostReadRatio) {
      t.cost_sum = h.NumberOr("sum", 0);
      t.cost_count = h.NumberOr("count", 0);
    }
  }
  return t;
}

// Renders rate deltas between successive sidecar snapshots, like top(1)
// for a volume: ops/s and MB/s are per-interval rates, the latency
// percentiles are the busiest operation's cumulative histogram, `conf` is
// the interval's mean read conformance ratio (actual/model I/O — creeping
// above 1.00 means fragmentation; see DESIGN.md), and `cache%` is the
// interval's extent-cache hit rate ("-" when the cache saw no lookups).
void Top(const std::string& volume, uint64_t interval_ms, uint64_t count) {
  if (interval_ms == 0) interval_ms = 1000;
  std::printf("%8s %9s %9s %9s %22s %8s %8s %6s %6s\n", "ops/s", "rd MB/s",
              "wr MB/s", "total ops", "busiest op", "p50 us", "p99 us",
              "conf", "cache%");
  TopSample prev = ReadTopSample(volume);
  if (!prev.valid) {
    std::printf("waiting for %s ...\n",
                eos::obs::SnapshotPathFor(volume).c_str());
  }
  for (uint64_t i = 0; count == 0 || i < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    TopSample cur = ReadTopSample(volume);
    if (!cur.valid) continue;
    double dt = static_cast<double>(interval_ms) / 1000.0;
    double ops_s = prev.valid ? (cur.ops - prev.ops) / dt : 0;
    double rd = prev.valid
                    ? (cur.bytes_read - prev.bytes_read) / dt / 1048576.0
                    : 0;
    double wr = prev.valid
                    ? (cur.bytes_written - prev.bytes_written) / dt / 1048576.0
                    : 0;
    // Interval-local conformance when new samples arrived, else cumulative.
    double dsum = cur.cost_sum - (prev.valid ? prev.cost_sum : 0);
    double dcount = cur.cost_count - (prev.valid ? prev.cost_count : 0);
    double conf = dcount > 0 ? dsum / dcount / 100.0
                             : (cur.cost_count > 0
                                    ? cur.cost_sum / cur.cost_count / 100.0
                                    : 0);
    double dhits = cur.cache_hits - (prev.valid ? prev.cache_hits : 0);
    double dlookups =
        dhits + cur.cache_misses - (prev.valid ? prev.cache_misses : 0);
    char cache_col[16];
    if (dlookups > 0) {
      std::snprintf(cache_col, sizeof(cache_col), "%5.1f%%",
                    100.0 * dhits / dlookups);
    } else {
      std::snprintf(cache_col, sizeof(cache_col), "%6s", "-");
    }
    std::printf("%8.1f %9.2f %9.2f %9.0f %22s %8.0f %8.0f %6.2f %6s\n",
                ops_s, rd, wr, cur.ops,
                cur.busiest_op.empty() ? "-" : cur.busiest_op.c_str(),
                cur.p50, cur.p99, conf, cache_col);
    std::fflush(stdout);
    prev = cur;
  }
}

void PrintScrubReport(const eos::ScrubReport& report) {
  std::printf("scrub: %llu pages verified, %zu issue(s)\n",
              static_cast<unsigned long long>(report.pages_verified),
              report.issues.size());
  if (report.repaired_from_replica > 0) {
    std::printf("  %llu page(s) repaired from their mirror copy\n",
                static_cast<unsigned long long>(report.repaired_from_replica));
  }
  for (const eos::ScrubIssue& i : report.issues) {
    std::printf("  [%s] object %llu page %llu: %s\n",
                eos::PageRoleName(i.role),
                static_cast<unsigned long long>(i.object_id),
                static_cast<unsigned long long>(i.page), i.message.c_str());
  }
}

void Scrub(Database* db) {
  eos::ScrubReport report;
  Status s = db->Scrub(&report);
  if (!s.ok()) Fail(s, "scrub");
  PrintScrubReport(report);
  if (!report.clean()) std::exit(1);
}

// Scrub, then rebuild every damaged object in place. Unreadable byte
// ranges come back as zeroes and are reported (and persisted) as the
// object's hole map. Damage outside object trees (superblock, allocation
// maps, the directory itself) is beyond object-level repair and exits 1.
void Repair(Database* db) {
  eos::ScrubReport report;
  Status s = db->Scrub(&report);
  if (!s.ok()) Fail(s, "scrub");
  PrintScrubReport(report);
  if (report.clean()) {
    std::printf("repair: nothing to do\n");
    return;
  }
  bool unrepairable = false;
  std::vector<uint64_t> damaged;
  for (const eos::ScrubIssue& i : report.issues) {
    if (i.role == eos::PageRole::kLeaf ||
        i.role == eos::PageRole::kIndexNode) {
      if (damaged.empty() || damaged.back() != i.object_id) {
        damaged.push_back(i.object_id);
      }
    } else {
      std::fprintf(stderr, "repair: %s damage is not object-repairable\n",
                   eos::PageRoleName(i.role));
      unrepairable = true;
    }
  }
  for (uint64_t id : damaged) {
    Status r = db->RepairObject(id);
    if (!r.ok()) Fail(r, "repair");
    auto holes = db->GetHoles(id);
    uint64_t lost = 0;
    for (const eos::HoleRange& h : holes) lost += h.length;
    std::printf("repair: object %llu rebuilt, %zu hole(s), %llu bytes "
                "zero-filled\n",
                static_cast<unsigned long long>(id), holes.size(),
                static_cast<unsigned long long>(lost));
    for (const eos::HoleRange& h : holes) {
      std::printf("    hole [%llu, %llu)\n",
                  static_cast<unsigned long long>(h.offset),
                  static_cast<unsigned long long>(h.offset + h.length));
    }
  }
  if (unrepairable) std::exit(1);
  eos::ScrubReport again;
  s = db->Scrub(&again);
  if (!s.ok()) Fail(s, "re-scrub");
  if (!again.clean()) {
    PrintScrubReport(again);
    std::fprintf(stderr, "repair: volume still has issues\n");
    std::exit(1);
  }
  std::printf("repair: volume clean\n");
}

// Cross-checks the buddy allocation maps against the union of every
// reachable extent: pages held by no reference are leaked storage, pages
// held by more than one are a double allocation. Read-only; exit 1 when
// the volume lost (or double-booked) any storage.
void LeakCheck(Database* db) {
  eos::LeakCheckReport report;
  Status s = db->LeakCheck(&report);
  std::printf("leak-check: %llu pages allocated, %llu reachable\n",
              static_cast<unsigned long long>(report.allocated_pages),
              static_cast<unsigned long long>(report.reachable_pages));
  for (const eos::Extent& e : report.leaked) {
    std::printf("  leaked: pages [%llu, %llu) (%u pages)\n",
                static_cast<unsigned long long>(e.first),
                static_cast<unsigned long long>(e.first + e.pages), e.pages);
  }
  for (const eos::Extent& e : report.doubly_referenced) {
    std::printf("  doubly referenced: pages [%llu, %llu) (%u pages)\n",
                static_cast<unsigned long long>(e.first),
                static_cast<unsigned long long>(e.first + e.pages), e.pages);
  }
  if (!s.ok()) Fail(s, "leak-check");
  std::printf("leak-check OK: no leaked or doubly-referenced storage\n");
}

// Layout-drift report (DESIGN.md §12): every object's scatter score — the
// seek-weighted cost of scanning its current layout over the ideal one —
// plus the buddy free-list fragmentation gauges. With `apply`, drains the
// defragmenter: one tick to establish the cold horizon (a tool session
// has no foreground mutators, so everything is cold on the next tick),
// then migrating ticks until a round moves nothing.
void Defrag(Database* db, bool apply) {
  auto ids = db->ListObjects();
  if (!ids.ok()) Fail(ids.status(), "list");
  const double threshold = db->defragmenter()->options().min_scatter;
  std::printf("%8s %12s %6s %6s %6s %9s\n", "id", "bytes", "segs", "leaf",
              "index", "scatter");
  size_t over = 0;
  for (uint64_t id : *ids) {
    auto stats = db->ObjectStats(id);
    if (!stats.ok()) Fail(stats.status(), "stats");
    double scatter = eos::Defragmenter::ScatterOf(
        *stats, db->lob()->page_size(), db->lob()->max_segment_pages());
    if (scatter >= threshold) ++over;
    std::printf("%8llu %12llu %6llu %6llu %6llu %8.2fx%s\n",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(stats->size_bytes),
                static_cast<unsigned long long>(stats->num_segments),
                static_cast<unsigned long long>(stats->leaf_pages),
                static_cast<unsigned long long>(stats->index_pages), scatter,
                scatter >= threshold ? "  <- candidate" : "");
  }
  auto frag = db->allocator()->FragStats();
  if (!frag.ok()) Fail(frag.status(), "frag stats");
  std::printf("free list: entropy %.2f, %llu free segments, largest run "
              "%llu pages\n",
              frag->free_entropy,
              static_cast<unsigned long long>(frag->free_segments),
              static_cast<unsigned long long>(frag->largest_free_pages));
  std::printf("%zu of %zu objects at or above the %.2fx migration "
              "threshold\n",
              over, ids->size(), threshold);
  if (!apply) return;
  // On a fresh open nothing has a recorded mutation, so the very first
  // tick already migrates; later ticks catch anything a per-tick cap
  // deferred. A sub-1.0 threshold never converges (a fresh layout still
  // scores 1.0), so the drain is additionally round-bounded.
  eos::DefragReport total;
  eos::DefragReport rep;
  int rounds = 0;
  do {
    Status s = db->DefragTick(&rep);
    if (!s.ok()) Fail(s, "defrag");
    total.migrated += rep.migrated;
    total.migrated_bytes += rep.migrated_bytes;
    total.skipped_hot += rep.skipped_hot;
    total.refused += rep.refused;
    total.failed += rep.failed;
  } while (rep.migrated > 0 && ++rounds < 16);
  std::printf("defrag: %llu object(s) migrated (%.1f MB), %llu refused, "
              "%llu failed\n",
              static_cast<unsigned long long>(total.migrated),
              total.migrated_bytes / 1048576.0,
              static_cast<unsigned long long>(total.refused),
              static_cast<unsigned long long>(total.failed));
  if (total.refused > 0 || total.failed > 0) std::exit(1);
}

// Health of a multi-volume set (DESIGN.md §15): per-member fill against
// the capacity cap, placement state (shedding/offline), quarantined pages
// in each member's integrity layer, and how many pages each member had
// rewritten from its mirror copy. argv[1] is member 0; the remaining
// paths are the other members in formatted order.
void PrintVolumes(const std::string& first,
                  const std::vector<std::string>& rest,
                  const DatabaseOptions& options) {
  std::vector<std::unique_ptr<eos::PageDevice>> members;
  auto add = [&](const std::string& p) {
    auto dev = eos::FilePageDevice::Open(p, options.page_size);
    if (!dev.ok()) Fail(dev.status(), p.c_str());
    members.push_back(std::move(dev).value());
  };
  add(first);
  for (const std::string& p : rest) add(p);
  eos::VolumeSetOptions vopt;
  auto db = Database::OpenOnVolumeSet(std::move(members), vopt, options);
  if (!db.ok()) Fail(db.status(), "open volume set");
  eos::VolumeSetDevice::Health h = (*db)->volume_set()->GetHealth();
  std::printf("volume set: %zu member(s), %s, chunk %u pages, %llu chunk(s)\n",
              h.members.size(), h.mirrored ? "mirrored" : "unmirrored",
              h.chunk_pages, static_cast<unsigned long long>(h.chunks));
  std::printf("set totals: %llu failover read(s), %llu degraded write(s), "
              "%llu shed placement(s), %llu page(s) repaired from replica\n",
              static_cast<unsigned long long>(h.failover_reads),
              static_cast<unsigned long long>(h.degraded_writes),
              static_cast<unsigned long long>(h.shed_placements),
              static_cast<unsigned long long>(h.repaired_pages));
  std::printf("%6s %-10s %7s %8s %8s %8s %12s %9s\n", "member", "state",
              "fill", "blocks", "primary", "replica", "quarantined",
              "repaired");
  for (const eos::VolumeSetDevice::MemberHealth& m : h.members) {
    const char* state =
        !m.online ? "OFFLINE" : (m.shedding ? "shedding" : "ok");
    std::printf("%6d %-10s %6.1f%% %8llu %8llu %8llu %12llu %9llu\n",
                m.index, state, m.fill_percent,
                static_cast<unsigned long long>(m.data_blocks),
                static_cast<unsigned long long>(m.primary_chunks),
                static_cast<unsigned long long>(m.replica_chunks),
                static_cast<unsigned long long>(m.quarantined_pages),
                static_cast<unsigned long long>(m.repaired_pages));
  }
}

// Prints an object's version chain (DESIGN.md §13). Version chains are
// in-process state: a freshly opened volume shows the single seeded
// current version; inside a live process the chain also lists every
// superseded version some snapshot still pins.
void PrintVersions(Database* db, uint64_t id) {
  auto chain = db->ListVersions(id);
  if (!chain.ok()) Fail(chain.status(), "versions");
  std::printf("object %llu: %zu version%s\n",
              static_cast<unsigned long long>(id), chain->size(),
              chain->size() == 1 ? "" : "s");
  std::printf("%8s %12s %12s %14s %6s %8s %s\n", "vseq", "root pg", "lsn",
              "bytes", "pins", "retired", "state");
  for (const auto& v : *chain) {
    char root_pg[24];
    if (v.root_page == eos::kInvalidPage) {
      std::snprintf(root_pg, sizeof(root_pg), "-");
    } else {
      std::snprintf(root_pg, sizeof(root_pg), "%llu",
                    static_cast<unsigned long long>(v.root_page));
    }
    std::printf("%8llu %12s %12llu %14llu %6llu %8u %s\n",
                static_cast<unsigned long long>(v.vseq), root_pg,
                static_cast<unsigned long long>(v.lsn),
                static_cast<unsigned long long>(v.size),
                static_cast<unsigned long long>(v.pins), v.retired_extents,
                v.dead ? "dead" : (v.current ? "current" : "superseded"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string path = argv[1];
  DatabaseOptions options;
  std::string mode = "overview";
  uint64_t object_id = 0;
  std::string chrome_out;
  uint64_t top_interval_ms = 1000;
  uint64_t top_count = 0;  // 0 = forever
  bool defrag_apply = false;
  std::vector<std::string> member_paths;
  // A tool session drains in one pass; the per-tick throttles exist for
  // background ticks racing a live foreground, which a CLI run has none of.
  options.defrag.max_objects_per_tick = 256;
  options.defrag.max_bytes_per_tick = 1ull << 30;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--page-size" && i + 1 < argc) {
      options.page_size = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--object" && i + 1 < argc) {
      mode = "object";
      object_id = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if ((arg == "versions" || arg == "--versions") && i + 1 < argc) {
      mode = "versions";
      object_id = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--check") {
      mode = "check";
    } else if (arg == "verify" || arg == "--verify") {
      mode = "verify";
    } else if (arg == "--spaces") {
      mode = "spaces";
    } else if (arg == "stats" || arg == "--stats") {
      mode = "stats";
    } else if (arg == "cache" || arg == "--cache") {
      mode = "cache";
    } else if (arg == "trace" || arg == "--trace") {
      mode = "trace";
    } else if (arg == "top" || arg == "--top") {
      mode = "top";
    } else if (arg.rfind("--chrome=", 0) == 0) {
      chrome_out = arg.substr(std::strlen("--chrome="));
    } else if (arg == "--chrome" && i + 1 < argc) {
      chrome_out = argv[++i];
    } else if (arg == "--interval" && i + 1 < argc) {
      top_interval_ms = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--count" && i + 1 < argc) {
      top_count = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "scrub" || arg == "--scrub") {
      mode = "scrub";
    } else if (arg == "repair" || arg == "--repair") {
      mode = "repair";
    } else if (arg == "leak-check" || arg == "--leak-check") {
      mode = "leak-check";
    } else if (arg == "defrag" || arg == "--defrag") {
      mode = "defrag";
    } else if (arg == "--apply") {
      defrag_apply = true;
    } else if (arg == "--min-scatter" && i + 1 < argc) {
      options.defrag.min_scatter = std::atof(argv[++i]);
    } else if (arg == "volumes" || arg == "--volumes") {
      mode = "volumes";
    } else if (mode == "volumes" && !arg.empty() && arg[0] != '-') {
      member_paths.push_back(arg);
    } else {
      return Usage();
    }
  }
  // The snapshot subcommands read only the sidecar; no volume open needed.
  if (mode == "stats") {
    PrintStats(path);
    return 0;
  }
  if (mode == "cache") {
    PrintCacheStats(path);
    return 0;
  }
  if (mode == "trace") {
    if (!chrome_out.empty()) {
      ExportChromeTrace(path, chrome_out);
    } else {
      PrintTrace(path);
    }
    return 0;
  }
  if (mode == "top") {
    Top(path, top_interval_ms, top_count);
    return 0;
  }
  if (mode == "volumes") {
    if (member_paths.empty()) return Usage();
    PrintVolumes(path, member_paths, options);
    return 0;
  }
  auto db = Database::Open(path, options);
  if (!db.ok()) Fail(db.status(), "open");
  if (mode == "overview") {
    PrintOverview(db->get());
  } else if (mode == "object") {
    PrintObject(db->get(), object_id);
  } else if (mode == "versions") {
    PrintVersions(db->get(), object_id);
  } else if (mode == "spaces") {
    PrintSpaces(db->get());
  } else if (mode == "check") {
    Status s = (*db)->CheckIntegrity();
    if (!s.ok()) Fail(s, "integrity");
    std::printf("integrity OK\n");
  } else if (mode == "verify") {
    Verify(db->get());
  } else if (mode == "scrub") {
    Scrub(db->get());
  } else if (mode == "repair") {
    Repair(db->get());
  } else if (mode == "defrag") {
    Defrag(db->get(), defrag_apply);
  } else if (mode == "leak-check") {
    LeakCheck(db->get());
  }
  return 0;
}
