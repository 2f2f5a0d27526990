// Tests of the benchmark's own oracles and statistics: they must catch a
// corrupted read buffer and a wrong model operation, and the percentile
// helper must never report a value above the largest sample.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "check.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void CorruptedReadIsCaught() {
  perfbench::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t key = rng.Below(1000);
    uint64_t offset = rng.Below(1 << 20);
    std::vector<uint8_t> buf(1 + rng.Below(9000));
    perfbench::FillContent(42, key, offset, buf.data(), buf.size());
    Expect(perfbench::FirstContentMismatch(42, key, offset, buf.data(),
                                           buf.size()) == -1,
           "intact buffer passes");
    for (size_t i = 0; i < buf.size(); ++i) {
      Expect(buf[i] == perfbench::ContentByte(42, key, offset + i),
             "FillContent agrees with ContentByte");
    }
    size_t at = rng.Below(buf.size());
    buf[at] ^= static_cast<uint8_t>(1u << rng.Below(8));
    Expect(perfbench::FirstContentMismatch(42, key, offset, buf.data(),
                                           buf.size()) ==
               static_cast<int64_t>(at),
           "one flipped bit is found at its offset");
    perfbench::FillContent(42, key, offset, buf.data(), buf.size());
    Expect(perfbench::FirstContentMismatch(42, key, offset + 1, buf.data(),
                                           buf.size()) != -1 ||
               buf.size() < 2,
           "bytes from a shifted offset are caught");
    Expect(perfbench::FirstContentMismatch(42, key + 1, offset, buf.data(),
                                           buf.size()) != -1 ||
               buf.size() < 2,
           "bytes of another object are caught");
  }
}

// The model against a plain std::string applying the same edits, then a
// single wrong operation that comparison must expose. The large case makes
// the model split and empty chunks and edit across their seams.
void ModelOpsAreExactAndWrongOpIsCaught(size_t init_size, uint64_t max_edit) {
  perfbench::Rng rng(11);
  std::vector<uint8_t> init(init_size);
  perfbench::FillContent(3, 0, 0, init.data(), init.size());
  perfbench::EditModel model(init);
  std::string ref(init.begin(), init.end());
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> data(1 + rng.Below(max_edit));
    perfbench::FillContent(3, 1000 + i, 0, data.data(), data.size());
    std::string d(data.begin(), data.end());
    uint64_t size = ref.size();
    switch (rng.Below(4)) {
      case 0: {
        uint64_t off = rng.Below(size + 1);
        Expect(model.Insert(off, data.data(), data.size()), "insert accepted");
        ref.insert(off, d);
        break;
      }
      case 1: {
        uint64_t n = std::min<uint64_t>(data.size(), size);
        uint64_t off = rng.Below(size - n + 1);
        Expect(model.Delete(off, n), "delete accepted");
        ref.erase(off, n);
        break;
      }
      case 2: {
        uint64_t n = std::min<uint64_t>(data.size(), size);
        uint64_t off = rng.Below(size - n + 1);
        Expect(model.Replace(off, data.data(), n), "replace accepted");
        ref.replace(off, n, d.substr(0, n));
        break;
      }
      default:
        model.Append(data.data(), data.size());
        ref += d;
    }
  }
  std::vector<uint8_t> want(ref.begin(), ref.end());
  Expect(model.Matches(0, want.data(), want.size()), "model equals reference");
  Expect(!model.Matches(1, want.data(), want.size()), "out-of-range compare fails");

  // The same edit at a neighbouring offset leaves a model the reference
  // no longer matches.
  perfbench::EditModel wrong = model;
  const uint8_t x[] = {0xAB, 0xCD};
  Expect(model.Insert(100, x, 2), "insert");
  Expect(wrong.Insert(101, x, 2), "insert");
  Expect(!wrong.Matches(0, model.Contents().data(), model.size()),
         "insert at a wrong offset is caught");
  wrong = model;
  Expect(wrong.Delete(50, 3) && model.Delete(50, 2), "delete");
  Expect(!wrong.Matches(0, model.Contents().data(), model.size()),
         "delete of a wrong length is caught");
  wrong = model;
  const uint8_t y[] = {0x00};
  Expect(wrong.Replace(10, y, 1), "replace");
  Expect(model.Contents()[10] == 0x00 ||
             !wrong.Matches(0, model.Contents().data(), model.size()),
         "replace that should not have happened is caught");
  Expect(!model.Delete(model.size(), 1), "delete past the end is refused");
  Expect(!model.Replace(model.size() - 1, x, 2), "replace past the end is refused");
  Expect(!model.Insert(model.size() + 1, x, 1), "insert past the end is refused");
}

void PercentileNeverExceedsMax() {
  perfbench::Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> v(1 + rng.Below(3000));
    for (double& x : v) x = static_cast<double>(rng.LogUniform(1, 1 << 30));
    std::sort(v.begin(), v.end());
    for (double p : {0.5, 0.9, 0.99, 0.999, 1.0}) {
      double q = perfbench::NearestRank(v, p);
      Expect(q <= v.back(), "quantile <= max");
      Expect(std::binary_search(v.begin(), v.end(), q), "quantile is a sample");
      // Nearest rank: at least p of the samples are <= q.
      size_t at_or_below = std::upper_bound(v.begin(), v.end(), q) - v.begin();
      Expect(static_cast<double>(at_or_below) >= p * static_cast<double>(v.size()) - 1e-9,
             "at least p of the samples are at or below the quantile");
    }
  }
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(perfbench::NearestRank(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(perfbench::NearestRank(hundred, 0.5) == 50, "p50 of 1..100 is 50");
  Expect(perfbench::NearestRank({}, 0.5) == 0, "empty gives 0");
  Expect(perfbench::Median({3, 1, 2}) == 2, "median of three");
}

}  // namespace

int main() {
  CorruptedReadIsCaught();
  ModelOpsAreExactAndWrongOpIsCaught(5000, 300);
  ModelOpsAreExactAndWrongOpIsCaught(400 << 10, 96 << 10);
  PercentileNeverExceedsMax();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
