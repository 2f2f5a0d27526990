// End-to-end wall-clock throughput of the parallel scatter-gather I/O
// engine on a real file-backed volume: sequential and fragmented reads
// (serial vs parallel, checksums off and on), bulk append, scrub, and the
// raw CRC32C kernels. Unlike the cost-model benches (which count seeks and
// transfers on a memory device), this one measures MB/s on FilePageDevice
// so the vectored syscalls, buffer recycling, and hardware checksums show
// up as time.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cache/extent_cache.h"
#include "common/crc32c.h"
#include "eos/database.h"
#include "io/chaos_device.h"
#include "io/io_executor.h"
#include "io/page_device.h"

namespace eos {
namespace bench {
namespace {

constexpr uint64_t kObjectBytes = 16u << 20;  // per-scenario object size
constexpr int kReadIters = 3;                 // best-of to damp noise

// Under EOS_CRC32C=software every metric gains a "swcrc_" prefix, so a
// hardware run and a forced-software run can share one baseline file and
// tools/run_checks.sh can report the end-to-end checksummed-read speedup.
std::string MetricPrefix() {
  return std::string(Crc32cBackend()).find("forced") != std::string::npos
             ? "swcrc_"
             : "";
}

void Emit(const std::string& metric, double value) {
  EmitJsonResult("throughput", MetricPrefix() + metric, value);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Mbps(uint64_t bytes, double secs) {
  return secs > 0 ? (static_cast<double>(bytes) / (1 << 20)) / secs : 0.0;
}

std::string VolumePath(const std::string& tag) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/eos_bench_" + tag +
         ".vol";
}

struct Volume {
  std::unique_ptr<Database> db;
  uint64_t id = 0;
  uint64_t size = 0;
};

// Creates a file-backed volume holding one object of kObjectBytes.
// `fragmented` caps segments at 8 pages (>= 512 extents for 16 MiB at 4 KiB
// pages); otherwise segments are maximal (well-clustered layout).
Volume MakeVolume(const std::string& tag, bool checksums, bool fragmented) {
  DatabaseOptions opt;
  opt.page_size = 4096;
  opt.checksums = checksums;
  if (fragmented) opt.lob.max_segment_pages = 8;
  Volume v;
  v.db = Stack::Unwrap(Database::Create(VolumePath(tag), opt), "create");
  Random rng(42);
  // Append in 1 MiB chunks through an appender-backed object so creation
  // itself exercises the coalesced write path.
  v.id = Stack::Unwrap(v.db->CreateObject(), "create object");
  Bytes chunk = RandomBytes(&rng, 1u << 20);
  auto t0 = std::chrono::steady_clock::now();
  while (v.size < kObjectBytes) {
    Stack::Check(v.db->Append(v.id, ByteView(chunk)), "append");
    v.size += chunk.size();
  }
  Stack::Check(v.db->Flush(), "flush");
  double secs = SecondsSince(t0);
  Emit(std::string("append_") + (checksums ? "checksum_" : "") +
           (fragmented ? "frag" : "seq") + "_mbps",
       Mbps(v.size, secs));
  return v;
}

// Cold-ish full-object read (pager evicted, head position forgotten; the
// OS page cache stays warm, which is fine for relative comparisons).
double ReadMbps(Volume* v, bool parallel) {
  v->db->lob()->set_io_executor(parallel ? IoExecutor::Default() : nullptr);
  double best = 0;
  for (int i = 0; i < kReadIters; ++i) {
    Stack::Check(v->db->pager()->EvictAll(), "evict");
    v->db->device()->ForgetHeadPosition();
    auto t0 = std::chrono::steady_clock::now();
    auto data = Stack::Unwrap(v->db->Read(v->id, 0, v->size), "read");
    double secs = SecondsSince(t0);
    if (data.size() != v->size) {
      std::fprintf(stderr, "short read: %zu\n", data.size());
      std::abort();
    }
    best = std::max(best, Mbps(v->size, secs));
  }
  v->db->lob()->set_io_executor(nullptr);
  return best;
}

void ReadScenario(const std::string& tag, bool checksums, bool fragmented) {
  Volume v = MakeVolume(tag, checksums, fragmented);
  double serial = ReadMbps(&v, /*parallel=*/false);
  double parallel = ReadMbps(&v, /*parallel=*/true);
  std::string base = std::string(fragmented ? "frag" : "seq") + "_read_" +
                     (checksums ? "checksum_" : "");
  Emit(base + "serial_mbps", serial);
  Emit(base + "parallel_mbps", parallel);
  Emit(base + "speedup", serial > 0 ? parallel / serial : 0.0);
  std::printf("%-28s serial %8.1f MB/s   parallel %8.1f MB/s   (%.2fx)\n",
              (tag + ":").c_str(), serial, parallel,
              serial > 0 ? parallel / serial : 0.0);

  if (checksums) {
    // Scrub: full-volume verified read-back through the device.
    auto t0 = std::chrono::steady_clock::now();
    ScrubReport report;
    Stack::Check(v.db->Scrub(&report), "scrub");
    double secs = SecondsSince(t0);
    if (!report.clean()) {
      std::fprintf(stderr, "scrub found %zu issues\n", report.issues.size());
      std::abort();
    }
    double mbps =
        Mbps(report.pages_verified * v.db->device()->page_size(), secs);
    Emit(std::string(fragmented ? "frag" : "seq") + "_scrub_mbps", mbps);
    std::printf("%-28s scrub  %8.1f MB/s (%llu pages)\n", (tag + ":").c_str(),
                mbps,
                static_cast<unsigned long long>(report.pages_verified));
  }
  v.db.reset();
  std::remove(VolumePath(tag).c_str());
}

void CrcKernels() {
  Bytes buf(8u << 20);
  Random rng(7);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  auto time_kernel = [&](uint32_t (*fn)(uint32_t, const void*, size_t)) {
    // One warmup pass, then the timed sweeps.
    uint32_t acc = fn(Crc32cInit(), buf.data(), buf.size());
    auto t0 = std::chrono::steady_clock::now();
    const int sweeps = 8;
    for (int i = 0; i < sweeps; ++i) {
      acc ^= fn(acc, buf.data(), buf.size());
    }
    double secs = SecondsSince(t0);
    if (acc == 0xDEADBEEF) std::printf(" ");  // defeat dead-code elimination
    return Mbps(uint64_t{sweeps} * buf.size(), secs);
  };
  double dispatched = time_kernel(&Crc32cExtend);
  double software = time_kernel(&Crc32cExtendSoftware);
  Emit("crc32c_dispatched_mbps", dispatched);
  Emit("crc32c_software_mbps", software);
  Emit("crc32c_kernel_speedup", software > 0 ? dispatched / software : 0.0);
  std::printf("crc32c [%s]:               %8.1f MB/s   (slice-by-8 %8.1f "
              "MB/s, %.2fx)\n",
              Crc32cBackend(), dispatched, software,
              software > 0 ? dispatched / software : 0.0);
}

// ----- Zipfian hot-key read mix (extent cache, DESIGN.md §14) ----------------
//
// A population of small objects on a checksummed fragmented file-backed
// volume, read with Zipf(0.99)-skewed partial reads — the hot-object
// workload the DRAM cache tier exists for. The volume sits behind a
// ChaosPageDevice injecting a fixed per-call read latency: the OS page
// cache would otherwise serve every "device" read from DRAM and hide
// exactly the cost the tier removes, so the bench models the storage a
// deployment actually has (a fast NVMe-class device) instead of the
// benchmark artifact. The same volume is reopened cache-off and cache-on;
// tools/run_checks.sh gates on the committed BENCH_9.json numbers: hot-set speedup >= 3x, hit
// rate >= 80%, cold-set (uniform, mostly-miss) within 10% of cache-off,
// and foreground p99 flat.

constexpr uint32_t kZipfObjects = 192;
constexpr uint64_t kZipfObjectBytes = 96u << 10;
constexpr double kZipfSkew = 0.99;
constexpr size_t kZipfCacheBytes = 8u << 20;
constexpr uint64_t kZipfReadBytes = 4096;
constexpr uint64_t kZipfDeviceReadUs = 20;  // injected per-call read latency
constexpr int kZipfWarmOps = 6000;
constexpr int kZipfHotOps = 16000;
constexpr int kZipfColdOps = 6000;

// Rank-indexed cumulative Zipf(s) distribution; Sample() maps a uniform
// draw to a rank, and a fixed coprime stride scatters ranks over object
// slots so popularity is uncorrelated with allocation order.
class ZipfPicker {
 public:
  ZipfPicker(uint32_t n, double s) : cdf_(n) {
    double sum = 0;
    for (uint32_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Sample(Random* rng) const {
    double u =
        static_cast<double>(rng->Next() % (1u << 30)) / (1u << 30);
    uint32_t rank = static_cast<uint32_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return (rank * 73u + 17u) % static_cast<uint32_t>(cdf_.size());
  }

 private:
  std::vector<double> cdf_;
};

// Run-structured payload: byte-value runs with seeded switches.
Bytes RunStructuredBytes(Random* rng, size_t n) {
  Bytes b(n);
  uint8_t v = static_cast<uint8_t>(rng->Next());
  for (size_t i = 0; i < n; ++i) {
    if (rng->OneIn(19)) v = static_cast<uint8_t>(rng->Next());
    b[i] = v;
  }
  return b;
}

struct ZipfPhase {
  double kops = 0;    // thousand reads per second
  double p99_us = 0;  // per-read latency tail
};

ZipfPhase RunZipfReads(Database* db, const std::vector<uint64_t>& ids,
                       const ZipfPicker* zipf, int ops, uint64_t seed) {
  Random rng(seed);
  std::vector<double> lat_us;
  lat_us.reserve(ops);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) {
    uint64_t id = zipf != nullptr
                      ? ids[zipf->Sample(&rng)]
                      : ids[rng.Next() % ids.size()];
    uint64_t off = rng.Uniform(kZipfObjectBytes - kZipfReadBytes);
    auto op0 = std::chrono::steady_clock::now();
    auto data = Stack::Unwrap(db->Read(id, off, kZipfReadBytes), "zipf read");
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - op0)
            .count());
    if (data.size() != kZipfReadBytes) {
      std::fprintf(stderr, "zipf short read: %zu\n", data.size());
      std::abort();
    }
  }
  double secs = SecondsSince(t0);
  ZipfPhase r;
  r.kops = secs > 0 ? ops / secs / 1000.0 : 0.0;
  std::sort(lat_us.begin(), lat_us.end());
  r.p99_us = lat_us[static_cast<size_t>(lat_us.size() * 0.99)];
  return r;
}

struct ZipfRun {
  ZipfPhase hot;
  ZipfPhase cold;
  double hit_rate = 0;  // timed hot phase, percent
};

ZipfRun RunZipfConfig(const std::string& path, size_t cache_bytes,
                      const std::vector<uint64_t>& ids,
                      const ZipfPicker& zipf) {
  DatabaseOptions opt;
  opt.page_size = 4096;
  opt.checksums = true;
  opt.lob.max_segment_pages = 8;
  opt.cache_bytes = cache_bytes;
  auto file = Stack::Unwrap(FilePageDevice::Open(path, opt.page_size),
                            "zipf device");
  auto chaos = std::make_unique<ChaosPageDevice>(std::move(file));
  ChaosPageDevice* dev = chaos.get();
  auto db =
      Stack::Unwrap(Database::OpenOnDevice(std::move(chaos), opt), "zipf open");
  // Arm the device-latency model only after open: superblock/directory
  // loading is not part of the measured read path.
  dev->InjectLatency(kZipfDeviceReadUs, /*write_us=*/0);

  ZipfRun run;
  // Warmup: builds the admission sketch and fills the hot set (no-op for
  // the cache-off baseline beyond OS/pager warmup).
  (void)RunZipfReads(db.get(), ids, &zipf, kZipfWarmOps, /*seed=*/101);
  ExtentCache::Stats before;
  if (db->extent_cache() != nullptr) before = db->extent_cache()->GetStats();
  run.hot = RunZipfReads(db.get(), ids, &zipf, kZipfHotOps, /*seed=*/202);
  if (db->extent_cache() != nullptr) {
    ExtentCache::Stats after = db->extent_cache()->GetStats();
    uint64_t hits = after.hits - before.hits;
    uint64_t lookups = hits + after.misses - before.misses;
    run.hit_rate = lookups > 0 ? 100.0 * hits / lookups : 0.0;
    // The cold phase measures the mostly-miss path, not a warm cache.
    db->extent_cache()->Clear();
  }
  run.cold = RunZipfReads(db.get(), ids, /*zipf=*/nullptr, kZipfColdOps,
                          /*seed=*/303);
  return run;
}

void ZipfScenario() {
  const std::string path = VolumePath("zipf");
  std::vector<uint64_t> ids;
  {
    DatabaseOptions opt;
    opt.page_size = 4096;
    opt.checksums = true;
    opt.lob.max_segment_pages = 8;
    auto db = Stack::Unwrap(Database::Create(path, opt), "zipf create");
    Random rng(4242);
    // Interleaved appends fragment every object's layout, so a cache miss
    // pays the scattered-extent read path the cache is hiding.
    for (uint32_t i = 0; i < kZipfObjects; ++i) {
      ids.push_back(Stack::Unwrap(db->CreateObject(), "zipf object"));
    }
    for (uint64_t grown = 0; grown < kZipfObjectBytes;
         grown += 16u << 10) {
      for (uint64_t id : ids) {
        Bytes chunk = RunStructuredBytes(&rng, 16u << 10);
        Stack::Check(db->Append(id, ByteView(chunk)), "zipf append");
      }
    }
    Stack::Check(db->Flush(), "zipf flush");
  }

  ZipfRun off =
      RunZipfConfig(path, 0, ids, ZipfPicker(kZipfObjects, kZipfSkew));
  ZipfRun on = RunZipfConfig(path, kZipfCacheBytes, ids,
                             ZipfPicker(kZipfObjects, kZipfSkew));
  std::remove(path.c_str());

  Emit("zipf_hot_cacheoff_kops", off.hot.kops);
  Emit("zipf_hot_cacheon_kops", on.hot.kops);
  double speedup = off.hot.kops > 0 ? on.hot.kops / off.hot.kops : 0.0;
  Emit("zipf_hot_speedup", speedup);
  Emit("zipf_hit_rate", on.hit_rate);
  Emit("zipf_cold_cacheoff_kops", off.cold.kops);
  Emit("zipf_cold_cacheon_kops", on.cold.kops);
  Emit("zipf_cold_ratio",
       off.cold.kops > 0 ? on.cold.kops / off.cold.kops : 0.0);
  Emit("zipf_hot_p99_ratio",
       off.hot.p99_us > 0 ? on.hot.p99_us / off.hot.p99_us : 0.0);
  std::printf("zipf(%.2f) hot 4K reads:       off %7.1f kops/s   on %7.1f "
              "kops/s   (%.2fx, hit %.1f%%)\n",
              kZipfSkew, off.hot.kops, on.hot.kops, speedup, on.hit_rate);
  std::printf("zipf uniform cold 4K reads:   off %7.1f kops/s   on %7.1f "
              "kops/s   (%.2fx)   p99 %.1f -> %.1f us\n",
              off.cold.kops, on.cold.kops,
              off.cold.kops > 0 ? on.cold.kops / off.cold.kops : 0.0,
              off.hot.p99_us, on.hot.p99_us);
}

void Main() {
  PrintHeader("I/O throughput on FilePageDevice (parallel engine)");
  std::printf("crc32c backend: %s, io threads: %zu\n", Crc32cBackend(),
              IoExecutor::Default()->threads());
  CrcKernels();
  ReadScenario("seq", /*checksums=*/false, /*fragmented=*/false);
  ReadScenario("seq_crc", /*checksums=*/true, /*fragmented=*/false);
  ReadScenario("frag", /*checksums=*/false, /*fragmented=*/true);
  ReadScenario("frag_crc", /*checksums=*/true, /*fragmented=*/true);
  ZipfScenario();
  EmitMetricsBlock("throughput");
}

}  // namespace
}  // namespace bench
}  // namespace eos

int main() {
  eos::bench::Main();
  return 0;
}
