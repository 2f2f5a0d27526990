// Benchmark-side tracing: a span recorder around every timed Database call
// and a timing PageDevice decorator whose device calls become child spans
// of the call running on the same thread. Both live outside the engine;
// the decorator forwards every call unchanged.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/page_device.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Which kind of user operation a device call serves.
enum OpClass : int { kOther = 0, kRead = 1, kWrite = 2, kClasses = 3 };

struct Span {
  const char* name = nullptr;  // string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a Database call, else the call's id
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Records spans while enabled. Each client thread owns a ThreadLog it
// alone writes; the recorder reads them only after the threads joined.
class SpanRecorder {
 public:
  static constexpr size_t kRetainPerThread = 16384;

  struct ThreadLog {
    uint32_t tid = 0;
    std::vector<Span> spans;  // first kRetainPerThread spans
    uint64_t dropped = 0;
    // Per call name: durations and self times (µs) of every traced call.
    std::map<const char*, std::vector<double>> call_us;
    std::map<const char*, std::vector<double>> self_us;
    std::vector<double> read_self_us;
    std::vector<double> write_self_us;
  };

  static SpanRecorder& Get();

  // Tracing is toggled between measurement slices; a call decides at its
  // start whether it is traced.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Runs `call` as one Database call named `name`, traced when enabled.
  template <class F>
  auto Call(const char* name, OpClass cls, F&& call) {
    ThreadState& t = state_;
    OpClass saved = t.cls;
    t.cls = cls;
    if (!enabled()) {
      auto r = call();
      t.cls = saved;
      return r;
    }
    uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    t.call_id = id;
    t.child_ns = 0;
    int64_t start = NowNs();
    auto r = call();
    int64_t end = NowNs();
    FinishCall(name, cls, id, start, end, t.child_ns);
    t.call_id = 0;
    t.cls = saved;
    return r;
  }

  // Device side: the class and call id current on this thread.
  static OpClass CurrentClass() { return state_.cls; }
  static bool InTracedCall() { return state_.call_id != 0; }
  void DeviceSpan(const char* name, int64_t start, int64_t end);

  // Writes the retained spans as Chrome-trace JSON and the per-call self
  // times as JSON. Call after every recording thread has joined.
  bool WriteFiles(const std::string& trace_path,
                  const std::string& self_path) const;

  // Joined view over all threads (after they joined).
  std::vector<const ThreadLog*> Logs() const;

 private:
  struct ThreadState {
    OpClass cls = kOther;
    uint64_t call_id = 0;
    int64_t child_ns = 0;
    ThreadLog* log = nullptr;
  };
  static thread_local ThreadState state_;

  // The calling thread's log (created on first use).
  ThreadLog* ThisThread();

  void FinishCall(const char* name, OpClass cls, uint64_t id, int64_t start,
                  int64_t end, int64_t child_ns);
  void Retain(ThreadLog* log, const Span& s);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// Device counters of one class of operations.
struct ClassIo {
  std::atomic<uint64_t> pages_read{0};
  std::atomic<uint64_t> pages_written{0};
  std::atomic<uint64_t> seeks{0};
  std::atomic<uint64_t> read_ns{0};   // traced calls only
  std::atomic<uint64_t> write_ns{0};  // traced calls only
};

// Forwards every call to `inner` and attributes pages, seeks and (while
// tracing) time to the operation class running on the calling thread.
// Stacked under the database through CreateOnDevice/OpenOnDevice, so it
// sees the physical pages the integrity layer writes.
class TimingPageDevice final : public eos::PageDevice {
 public:
  explicit TimingPageDevice(std::unique_ptr<eos::PageDevice> inner);

  eos::Status Grow(uint64_t new_page_count) override;
  eos::Status Sync() override;

  const ClassIo& io(OpClass c) const { return io_[c]; }
  uint64_t sync_calls() const { return sync_calls_.load(); }
  uint64_t sync_ns() const { return sync_ns_.load(); }

 protected:
  eos::Status DoRead(eos::PageId first, uint32_t n, uint8_t* out) override;
  eos::Status DoWrite(eos::PageId first, uint32_t n,
                      const uint8_t* data) override;
  eos::Status DoReadRuns(const eos::PageRun* runs, size_t n) override;
  eos::Status DoWriteRuns(const eos::ConstPageRun* runs, size_t n) override;

 private:
  template <class F>
  eos::Status Forward(bool is_read, uint64_t pages, const char* name, F&& f);

  std::unique_ptr<eos::PageDevice> inner_;
  ClassIo io_[kClasses];
  std::atomic<uint64_t> sync_calls_{0};
  std::atomic<uint64_t> sync_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
