#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t Rng::LogUniform(uint64_t lo, uint64_t hi) {
  double a = std::log(static_cast<double>(lo));
  double b = std::log(static_cast<double>(hi) + 1.0);
  uint64_t v = static_cast<uint64_t>(std::exp(a + (b - a) * Unit()));
  return std::clamp(v, lo, hi);
}

namespace {

// One 64-bit word of content covers eight consecutive offsets.
uint64_t ContentWord(uint64_t seed, uint64_t key, uint64_t word) {
  return Mix64(seed ^ Mix64(key * 0x9E3779B97F4A7C15ull + word));
}

}  // namespace

uint8_t ContentByte(uint64_t seed, uint64_t key, uint64_t offset) {
  return static_cast<uint8_t>(ContentWord(seed, key, offset / 8) >>
                              (8 * (offset % 8)));
}

void FillContent(uint64_t seed, uint64_t key, uint64_t offset, uint8_t* out,
                 size_t n) {
  size_t i = 0;
  while (i < n) {
    uint64_t pos = offset + i;
    uint64_t w = ContentWord(seed, key, pos / 8);
    for (uint64_t b = pos % 8; b < 8 && i < n; ++b, ++i) {
      out[i] = static_cast<uint8_t>(w >> (8 * b));
    }
  }
}

int64_t FirstContentMismatch(uint64_t seed, uint64_t key, uint64_t offset,
                             const uint8_t* data, size_t n) {
  uint8_t buf[4096];
  for (size_t done = 0; done < n;) {
    size_t len = std::min(sizeof(buf), n - done);
    FillContent(seed, key, offset + done, buf, len);
    if (std::memcmp(buf, data + done, len) != 0) {
      for (size_t i = 0; i < len; ++i) {
        if (buf[i] != data[done + i]) return static_cast<int64_t>(done + i);
      }
    }
    done += len;
  }
  return -1;
}

EditModel::EditModel(const std::vector<uint8_t>& bytes)
    : chunks_{bytes}, size_(bytes.size()) {
  SplitIfLarge(0);
}

std::vector<uint8_t> EditModel::Contents() const {
  std::vector<uint8_t> out;
  out.reserve(size_);
  for (const auto& c : chunks_) out.insert(out.end(), c.begin(), c.end());
  return out;
}

std::pair<size_t, size_t> EditModel::Locate(uint64_t offset) const {
  size_t i = 0;
  while (i + 1 < chunks_.size() && offset >= chunks_[i].size()) {
    offset -= chunks_[i].size();
    ++i;
  }
  return {i, static_cast<size_t>(offset)};
}

void EditModel::SplitIfLarge(size_t i) {
  const std::vector<uint8_t>& c = chunks_[i];
  if (c.size() <= 2 * kChunk) return;
  std::vector<std::vector<uint8_t>> parts;
  for (size_t at = 0; at < c.size(); at += kChunk) {
    parts.emplace_back(c.begin() + static_cast<ptrdiff_t>(at),
                       c.begin() + static_cast<ptrdiff_t>(std::min(at + kChunk, c.size())));
  }
  auto pos = chunks_.erase(chunks_.begin() + static_cast<ptrdiff_t>(i));
  chunks_.insert(pos, std::make_move_iterator(parts.begin()),
                 std::make_move_iterator(parts.end()));
}

bool EditModel::Insert(uint64_t offset, const uint8_t* data, size_t n) {
  if (offset > size_) return false;
  auto [i, at] = Locate(offset);
  std::vector<uint8_t>& c = chunks_[i];
  c.insert(c.begin() + static_cast<ptrdiff_t>(at), data, data + n);
  size_ += n;
  SplitIfLarge(i);
  return true;
}

bool EditModel::Delete(uint64_t offset, uint64_t n) {
  if (offset > size_ || n > size_ - offset) return false;
  while (n > 0) {
    auto [i, at] = Locate(offset);
    std::vector<uint8_t>& c = chunks_[i];
    size_t take = static_cast<size_t>(std::min<uint64_t>(n, c.size() - at));
    auto first = c.begin() + static_cast<ptrdiff_t>(at);
    c.erase(first, first + static_cast<ptrdiff_t>(take));
    if (c.empty() && chunks_.size() > 1) {
      chunks_.erase(chunks_.begin() + static_cast<ptrdiff_t>(i));
    }
    n -= take;
    size_ -= take;
  }
  return true;
}

bool EditModel::Replace(uint64_t offset, const uint8_t* data, size_t n) {
  if (offset > size_ || n > size_ - offset) return false;
  while (n > 0) {
    auto [i, at] = Locate(offset);
    size_t take = std::min(n, chunks_[i].size() - at);
    std::memcpy(chunks_[i].data() + at, data, take);
    offset += take;
    data += take;
    n -= take;
  }
  return true;
}

void EditModel::Append(const uint8_t* data, size_t n) {
  chunks_.back().insert(chunks_.back().end(), data, data + n);
  size_ += n;
  SplitIfLarge(chunks_.size() - 1);
}

bool EditModel::Matches(uint64_t offset, const uint8_t* data, size_t n) const {
  if (offset > size_ || n > size_ - offset) return false;
  while (n > 0) {
    auto [i, at] = Locate(offset);
    size_t take = std::min(n, chunks_[i].size() - at);
    if (std::memcmp(chunks_[i].data() + at, data, take) != 0) return false;
    offset += take;
    data += take;
    n -= take;
  }
  return true;
}

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(p * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
