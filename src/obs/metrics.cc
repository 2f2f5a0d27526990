#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace eos {
namespace obs {

namespace internal {

namespace {
bool InitFromEnv() {
  const char* e = std::getenv("EOS_OBS");
  return e == nullptr || std::strcmp(e, "0") != 0;
}
}  // namespace

std::atomic<bool> g_enabled{InitFromEnv()};

}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

size_t Histogram::BucketOf(uint64_t v) {
  if (v == 0) return 0;
  size_t b = 1;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b < kBuckets ? b : kBuckets - 1;
}

uint64_t Histogram::BucketUpperBound(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return ~uint64_t{0};
  return (uint64_t{1} << b) - 1;
}

uint64_t Histogram::Percentile(double p) const {
  uint64_t total = count();
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested quantile, 1-based: ceil(p * total), at least 1.
  // Rounding up keeps the result conservative — p99 over two samples must
  // report the larger one, not the smaller.
  double exact = p * static_cast<double>(total);
  uint64_t rank = static_cast<uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  // The bucket bound can overshoot every recorded sample (a bucket spans
  // a power of two); no quantile may exceed the largest one.
  const uint64_t top = max();
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen >= rank) return std::min(BucketUpperBound(b), top);
  }
  return top;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  LatchGuard g(latch_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  LatchGuard g(latch_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  LatchGuard g(latch_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::ResetAll() {
  LatchGuard g(latch_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, gg] : gauges_) gg->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ToText() const {
  LatchGuard g(latch_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += name + " = " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, gg] : gauges_) {
    out += name + " = " + std::to_string(gg->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + ": count=" + std::to_string(h->count()) +
           " mean=" + std::to_string(h->mean()) +
           " p50=" + std::to_string(h->Percentile(0.50)) +
           " p99=" + std::to_string(h->Percentile(0.99)) +
           " max=" + std::to_string(h->max()) + "\n";
  }
  return out;
}

JsonValue MetricsRegistry::ToJsonValue() const {
  LatchGuard g(latch_);
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, c] : counters_) {
    counters.Set(name, JsonValue::Number(static_cast<double>(c->value())));
  }
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gg] : gauges_) {
    gauges.Set(name, JsonValue::Number(static_cast<double>(gg->value())));
  }
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : histograms_) {
    JsonValue hist = JsonValue::Object();
    hist.Set("count", JsonValue::Number(static_cast<double>(h->count())));
    hist.Set("sum", JsonValue::Number(static_cast<double>(h->sum())));
    hist.Set("mean", JsonValue::Number(h->mean()));
    hist.Set("p50",
             JsonValue::Number(static_cast<double>(h->Percentile(0.50))));
    hist.Set("p90",
             JsonValue::Number(static_cast<double>(h->Percentile(0.90))));
    hist.Set("p99",
             JsonValue::Number(static_cast<double>(h->Percentile(0.99))));
    hist.Set("max", JsonValue::Number(static_cast<double>(h->max())));
    histograms.Set(name, std::move(hist));
  }
  root.Set("counters", std::move(counters));
  root.Set("gauges", std::move(gauges));
  root.Set("histograms", std::move(histograms));
  return root;
}

std::string MetricsRegistry::ToJson() const { return ToJsonValue().Dump(); }

namespace {

std::string PromName(const std::string& name) {
  std::string out = "eos_";
  for (char ch : name) {
    out += (ch == '.' || ch == '-') ? '_' : ch;
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  LatchGuard g(latch_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + "_total counter\n";
    out += p + "_total " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, gg] : gauges_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(gg->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " histogram\n";
    uint64_t cum = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      uint64_t n = h->bucket(b);
      if (n == 0) continue;
      cum += n;
      out += p + "_bucket{le=\"" +
             std::to_string(Histogram::BucketUpperBound(b)) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h->count()) + "\n";
    out += p + "_sum " + std::to_string(h->sum()) + "\n";
    out += p + "_count " + std::to_string(h->count()) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace eos
