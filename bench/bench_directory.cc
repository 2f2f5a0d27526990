// Experiment B13 (DESIGN.md §2 "Object directory"): what the object
// directory costs as the object count grows. The directory is a DRAM map
// keyed by object id and reaches the volume only at Checkpoint()/Flush(),
// so create, 64-byte read and drop should cost the same per operation at
// 10^3 and 10^5 objects. Checkpoint, which serializes every entry, and
// Open+Recover, which loads and walks every root, grow linearly.
//
// Durable configuration (crash_safe + checksums) on the in-memory device,
// 1 KiB pages, one-page (512-byte) objects, no log. For each N in
// {10^3, 10^4, 10^5}: create N objects, Checkpoint, read 64 bytes from
// each in a seeded random order, close, reopen + Recover, then drop all N
// in another random order. Each of kRounds rounds runs every N for
// kOpsPerRound creates (at least once). Every per-N figure is the median
// over all runs of its N; each *_growth figure is the median over rounds
// of that round's 10^5 median over its 10^3 median, so the two points of
// a ratio share the host's conditions. dir_bytes_per_object is
// Database::DirectoryMemoryBytes() over N: the directory slots plus the
// version chains, whose current version holds a second copy of each root.
// 10^6 objects does not fit a CI-sized in-memory volume.
//
// Emits one {"bench":"directory","metric":...,"value":...} line per
// result; tools/run_checks.sh gates the committed BENCH_13.json on
// create_growth and read_growth (µs/op at 10^5 objects over 10^3) being
// at most 1.5.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "eos/database.h"
#include "io/chaos_device.h"

namespace eos {
namespace bench {
namespace {

constexpr uint32_t kPage = 1024;
constexpr size_t kObjectBytes = 512;
constexpr uint64_t kReadBytes = 64;
constexpr int kRounds = 5;
constexpr uint64_t kOpsPerRound = 100000;

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

DatabaseOptions Options() {
  DatabaseOptions o;
  o.page_size = kPage;
  o.crash_safe = true;
  o.checksums = true;
  return o;
}

struct Result {
  double create_us = 0;  // per op
  double read_us = 0;
  double drop_us = 0;
  double dir_bytes_per_object = 0;
  double checkpoint_ms = 0;
  double open_recover_ms = 0;
};

void Shuffle(std::vector<uint64_t>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

Result RunOnce(uint64_t n, uint64_t seed) {
  Result r;
  Random rng(seed);
  // The volume outlives both Database handles: each opens it through a
  // non-owning pass-through wrapper.
  MemPageDevice volume(kPage, 1);
  Bytes payload = RandomBytes(&rng, kObjectBytes);
  std::vector<uint64_t> ids;
  ids.reserve(n);
  {
    auto db = Stack::Unwrap(
        Database::CreateOnDevice(std::make_unique<ChaosPageDevice>(&volume),
                                 Options()),
        "create volume");
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < n; ++i) {
      ids.push_back(Stack::Unwrap(db->CreateObjectFrom(payload), "create"));
    }
    r.create_us = UsSince(t0) / static_cast<double>(n);
    r.dir_bytes_per_object = static_cast<double>(db->DirectoryMemoryBytes()) /
                             static_cast<double>(n);

    t0 = Clock::now();
    Stack::Check(db->Checkpoint(), "checkpoint");
    r.checkpoint_ms = UsSince(t0) / 1000.0;

    Shuffle(&ids, &rng);
    t0 = Clock::now();
    for (uint64_t id : ids) {
      Bytes got = Stack::Unwrap(db->Read(id, 0, kReadBytes), "read");
      if (got.size() != kReadBytes ||
          !std::equal(got.begin(), got.end(), payload.begin())) {
        std::fprintf(stderr, "object %llu read back wrong bytes\n",
                     (unsigned long long)id);
        std::exit(1);
      }
    }
    r.read_us = UsSince(t0) / static_cast<double>(n);
  }

  auto t0 = Clock::now();
  auto db = Stack::Unwrap(
      Database::OpenOnDevice(std::make_unique<ChaosPageDevice>(&volume),
                             Options()),
      "reopen");
  Stack::Check(db->Recover({}), "recover");
  r.open_recover_ms = UsSince(t0) / 1000.0;
  uint64_t listed = Stack::Unwrap(db->ListObjects(), "list").size();
  if (listed != n) {
    std::fprintf(stderr, "reopened volume lists %llu of %llu objects\n",
                 (unsigned long long)listed, (unsigned long long)n);
    std::exit(1);
  }

  Shuffle(&ids, &rng);
  t0 = Clock::now();
  for (uint64_t id : ids) Stack::Check(db->DropObject(id), "drop");
  r.drop_us = UsSince(t0) / static_cast<double>(n);
  return r;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

Result MedianOf(const std::vector<Result>& runs) {
  auto med = [&](double Result::*field) {
    std::vector<double> v;
    for (const Result& r : runs) v.push_back(r.*field);
    return Median(std::move(v));
  };
  Result m;
  m.create_us = med(&Result::create_us);
  m.read_us = med(&Result::read_us);
  m.drop_us = med(&Result::drop_us);
  m.dir_bytes_per_object = med(&Result::dir_bytes_per_object);
  m.checkpoint_ms = med(&Result::checkpoint_ms);
  m.open_recover_ms = med(&Result::open_recover_ms);
  return m;
}

}  // namespace
}  // namespace bench
}  // namespace eos

int main() {
  using namespace eos;
  using namespace eos::bench;

  PrintHeader("B13: object directory cost vs object count");
  std::printf("%9s %10s %10s %10s %12s %12s %14s\n", "objects", "create_us",
              "read_us", "drop_us", "dir_B/obj", "checkpt_ms",
              "open+recov_ms");
  const std::vector<uint64_t> counts = {1000, 10000, 100000};
  std::vector<std::vector<Result>> runs(counts.size());
  // Growth from the smallest to the largest N, one ratio of medians per
  // round: host load that drifts between rounds cancels within each.
  std::vector<double> create_growth, read_growth, drop_growth;
  uint64_t seed = 4242;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Result> round_medians;
    for (size_t c = 0; c < counts.size(); ++c) {
      uint64_t reps = std::max<uint64_t>(1, kOpsPerRound / counts[c]);
      std::vector<Result> this_round;
      for (uint64_t i = 0; i < reps; ++i) {
        this_round.push_back(RunOnce(counts[c], seed++));
      }
      runs[c].insert(runs[c].end(), this_round.begin(), this_round.end());
      round_medians.push_back(MedianOf(this_round));
    }
    const Result& lo = round_medians.front();
    const Result& hi = round_medians.back();
    create_growth.push_back(hi.create_us / lo.create_us);
    read_growth.push_back(hi.read_us / lo.read_us);
    drop_growth.push_back(hi.drop_us / lo.drop_us);
  }
  for (size_t c = 0; c < counts.size(); ++c) {
    const uint64_t n = counts[c];
    Result m = MedianOf(runs[c]);
    std::printf("%9llu %10.2f %10.2f %10.2f %12.1f %12.2f %14.2f\n",
                (unsigned long long)n, m.create_us, m.read_us, m.drop_us,
                m.dir_bytes_per_object, m.checkpoint_ms, m.open_recover_ms);
    std::string at = "_" + std::to_string(n);
    EmitJsonResult("directory", "create_us" + at, m.create_us);
    EmitJsonResult("directory", "read_us" + at, m.read_us);
    EmitJsonResult("directory", "drop_us" + at, m.drop_us);
    EmitJsonResult("directory", "dir_bytes_per_object" + at,
                   m.dir_bytes_per_object);
    EmitJsonResult("directory", "checkpoint_ms" + at, m.checkpoint_ms);
    EmitJsonResult("directory", "open_recover_ms" + at, m.open_recover_ms);
  }
  double create = Median(create_growth);
  double read = Median(read_growth);
  double drop = Median(drop_growth);
  std::printf("10^5 over 10^3 objects (median of %d rounds): create %.2fx, "
              "read %.2fx, drop %.2fx\n",
              kRounds, create, read, drop);
  EmitJsonResult("directory", "create_growth", create);
  EmitJsonResult("directory", "read_growth", read);
  EmitJsonResult("directory", "drop_growth", drop);
  return 0;
}
