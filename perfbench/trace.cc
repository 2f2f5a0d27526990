#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "check.h"

namespace perfbench {

thread_local SpanRecorder::ThreadState SpanRecorder::state_;

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadLog* SpanRecorder::ThisThread() {
  ThreadState& t = state_;
  if (t.log == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->tid = static_cast<uint32_t>(logs_.size());
    t.log = logs_.back().get();
  }
  return t.log;
}

void SpanRecorder::Retain(ThreadLog* log, const Span& s) {
  if (log->spans.size() < kRetainPerThread) {
    log->spans.push_back(s);
  } else {
    ++log->dropped;
  }
}

void SpanRecorder::FinishCall(const char* name, OpClass cls, uint64_t id,
                              int64_t start, int64_t end, int64_t child_ns) {
  ThreadLog* log = ThisThread();
  Retain(log, Span{name, id, 0, log->tid, start, end});
  double us = static_cast<double>(end - start) / 1e3;
  double self = static_cast<double>(end - start - child_ns) / 1e3;
  log->call_us[name].push_back(us);
  log->self_us[name].push_back(self);
  if (cls == kRead) log->read_self_us.push_back(self);
  if (cls == kWrite) log->write_self_us.push_back(self);
}

void SpanRecorder::DeviceSpan(const char* name, int64_t start, int64_t end) {
  ThreadState& t = state_;
  t.child_ns += end - start;
  ThreadLog* log = ThisThread();
  Retain(log, Span{name, next_id_.fetch_add(1, std::memory_order_relaxed),
                   t.call_id, log->tid, start, end});
}

std::vector<const SpanRecorder::ThreadLog*> SpanRecorder::Logs() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<const ThreadLog*> out;
  for (const auto& l : logs_) out.push_back(l.get());
  return out;
}

bool SpanRecorder::WriteFiles(const std::string& trace_path,
                              const std::string& self_path) const {
  std::vector<const ThreadLog*> logs = Logs();
  int64_t origin = INT64_MAX;
  for (const ThreadLog* l : logs) {
    for (const Span& s : l->spans) origin = std::min(origin, s.start_ns);
  }
  FILE* f = std::fopen(trace_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  uint64_t dropped = 0;
  for (const ThreadLog* l : logs) {
    dropped += l->dropped;
    for (const Span& s : l->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   first ? "" : ",", JsonQuote(s.name).c_str(),
                   s.parent == 0 ? "eos" : "io",
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans_dropped\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  bool ok = std::fclose(f) == 0;

  // Per call name: count, median duration and median self time.
  std::map<std::string, std::vector<double>> call_us, self_us;
  for (const ThreadLog* l : logs) {
    for (const auto& [name, v] : l->call_us) {
      auto& dst = call_us[name];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (const auto& [name, v] : l->self_us) {
      auto& dst = self_us[name];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  FILE* g = std::fopen(self_path.c_str(), "w");
  if (g == nullptr) return false;
  std::fputs("{", g);
  first = true;
  for (const auto& [name, v] : call_us) {
    std::fprintf(g, "%s\n%s:{\"count\":%zu,\"p50_us\":%.3f,\"self_p50_us\":%.3f}",
                 first ? "" : ",", JsonQuote(name).c_str(), v.size(),
                 Median(v), Median(self_us[name]));
    first = false;
  }
  std::fputs("\n}\n", g);
  return std::fclose(g) == 0 && ok;
}

// ----- TimingPageDevice -------------------------------------------------------

TimingPageDevice::TimingPageDevice(std::unique_ptr<eos::PageDevice> inner)
    : eos::PageDevice(inner->page_size(), inner->page_count()),
      inner_(std::move(inner)) {}

template <class F>
eos::Status TimingPageDevice::Forward(bool is_read, uint64_t pages,
                                      const char* name, F&& f) {
  ClassIo& io = io_[SpanRecorder::CurrentClass()];
  (is_read ? io.pages_read : io.pages_written)
      .fetch_add(pages, std::memory_order_relaxed);
  uint64_t seeks_before = inner_->stats().seeks;
  bool timed = SpanRecorder::InTracedCall();
  int64_t start = timed ? NowNs() : 0;
  eos::Status s = f();
  if (timed) {
    int64_t end = NowNs();
    (is_read ? io.read_ns : io.write_ns)
        .fetch_add(static_cast<uint64_t>(end - start),
                   std::memory_order_relaxed);
    SpanRecorder::Get().DeviceSpan(name, start, end);
  }
  io.seeks.fetch_add(inner_->stats().seeks - seeks_before,
                     std::memory_order_relaxed);
  return s;
}

eos::Status TimingPageDevice::DoRead(eos::PageId first, uint32_t n,
                                     uint8_t* out) {
  return Forward(true, n, "io.read",
                 [&] { return inner_->ReadPages(first, n, out); });
}

eos::Status TimingPageDevice::DoWrite(eos::PageId first, uint32_t n,
                                      const uint8_t* data) {
  return Forward(false, n, "io.write",
                 [&] { return inner_->WritePages(first, n, data); });
}

eos::Status TimingPageDevice::DoReadRuns(const eos::PageRun* runs, size_t n) {
  uint64_t pages = 0;
  for (size_t i = 0; i < n; ++i) pages += runs[i].pages;
  return Forward(true, pages, "io.read_runs",
                 [&] { return inner_->ReadRuns(runs, n); });
}

eos::Status TimingPageDevice::DoWriteRuns(const eos::ConstPageRun* runs,
                                          size_t n) {
  uint64_t pages = 0;
  for (size_t i = 0; i < n; ++i) pages += runs[i].pages;
  return Forward(false, pages, "io.write_runs",
                 [&] { return inner_->WriteRuns(runs, n); });
}

eos::Status TimingPageDevice::Grow(uint64_t new_page_count) {
  EOS_RETURN_IF_ERROR(inner_->Grow(new_page_count));
  SetPageCount(inner_->page_count());
  return eos::Status::OK();
}

eos::Status TimingPageDevice::Sync() {
  sync_calls_.fetch_add(1, std::memory_order_relaxed);
  bool timed = SpanRecorder::InTracedCall();
  int64_t start = NowNs();
  eos::Status s = inner_->Sync();
  int64_t end = NowNs();
  sync_ns_.fetch_add(static_cast<uint64_t>(end - start),
                     std::memory_order_relaxed);
  if (timed) SpanRecorder::Get().DeviceSpan("io.sync", start, end);
  return s;
}

}  // namespace perfbench
