// Correctness oracles and statistics for the end-to-end benchmark.
//
// Nothing here includes or links engine code: the benchmark judges the
// engine's outputs against computations it makes on its own.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// SplitMix64 finalizer: a bijective 64-bit mix.
uint64_t Mix64(uint64_t x);

// Small deterministic generator (SplitMix64 stream).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_ += 0x9E3779B97F4A7C15ull); }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Log-uniform in [lo, hi] (lo >= 1): every power of two is equally likely,
  // so tiny and large sizes both occur often.
  uint64_t LogUniform(uint64_t lo, uint64_t hi);

 private:
  uint64_t state_;
};

// ----- content oracle ---------------------------------------------------------

// The byte stored at `offset` of the object the benchmark knows as `key`:
// a seeded pure function, so any read can be checked regardless of when
// it ran relative to writers.
uint8_t ContentByte(uint64_t seed, uint64_t key, uint64_t offset);
void FillContent(uint64_t seed, uint64_t key, uint64_t offset, uint8_t* out,
                 size_t n);
// Offset (relative to `data`) of the first byte that differs from the
// content function, or -1 if all `n` bytes match.
int64_t FirstContentMismatch(uint64_t seed, uint64_t key, uint64_t offset,
                             const uint8_t* data, size_t n);

// ----- byte-string model of one edited object -----------------------------------

// Applies insert, delete, replace and append to a plain byte string, the
// reference the edited object must equal byte for byte. The string is held
// in chunks of 64 to 128 KiB, so an edit moves at most one chunk's bytes
// rather than half the object's.
class EditModel {
 public:
  EditModel() = default;
  explicit EditModel(const std::vector<uint8_t>& bytes);

  uint64_t size() const { return size_; }
  // The whole string, concatenated.
  std::vector<uint8_t> Contents() const;

  // Each returns false (and changes nothing) when the range is invalid.
  bool Insert(uint64_t offset, const uint8_t* data, size_t n);
  bool Delete(uint64_t offset, uint64_t n);
  bool Replace(uint64_t offset, const uint8_t* data, size_t n);
  void Append(const uint8_t* data, size_t n);

  // True iff `data` equals the model's bytes [offset, offset + n).
  bool Matches(uint64_t offset, const uint8_t* data, size_t n) const;

 private:
  static constexpr size_t kChunk = 64 << 10;

  // The chunk holding byte `offset` and the offset within it; size() maps
  // to the end of the last chunk.
  std::pair<size_t, size_t> Locate(uint64_t offset) const;
  // Cuts chunk `i` into kChunk pieces once it is over twice that.
  void SplitIfLarge(size_t i);

  std::vector<std::vector<uint8_t>> chunks_{1};  // never empty
  uint64_t size_ = 0;
};

// ----- statistics ---------------------------------------------------------------

// Nearest-rank percentile of raw samples: the smallest sample with at
// least p of all samples at or below it. Always one of the samples, so it
// never exceeds the maximum. `sorted` must be ascending; p in (0, 1].
// Returns 0 for an empty vector.
double NearestRank(const std::vector<double>& sorted, double p);

// Median of unsorted values (nearest rank); 0 when empty.
double Median(std::vector<double> values);

// JSON string literal for `s` (quotes and backslashes escaped).
std::string JsonQuote(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
