#ifndef EOS_IO_PAGER_H_
#define EOS_IO_PAGER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/latch.h"
#include "common/status.h"
#include "io/page_device.h"
#include "obs/metrics.h"

namespace eos {

class Pager;

// RAII pin on a cached page. While a handle is alive the frame cannot be
// evicted; destruction unpins. Move-only.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;
  ~PageHandle();

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pager_ != nullptr; }
  PageId id() const;
  uint8_t* data();
  const uint8_t* data() const;

  // Marks the page dirty; it is written back on eviction or FlushAll().
  void MarkDirty();

  // Explicitly unpins early.
  void Reset();

 private:
  friend class Pager;
  PageHandle(Pager* pager, size_t frame, PageId id, uint8_t* data)
      : pager_(pager), frame_(frame), id_(id), data_(data) {}

  Pager* pager_ = nullptr;
  size_t frame_ = 0;
  // Cached under the pager latch at pin time so accessors never touch the
  // frame table; the buffer is stable while the pin is held.
  PageId id_ = kInvalidPage;
  uint8_t* data_ = nullptr;
};

// Small LRU buffer cache, used for pages that are touched repeatedly and
// randomly: buddy space directories and large-object index nodes. Leaf
// segment data deliberately bypasses the pager — the paper's design streams
// multi-page segments directly, and caching them would hide the seek
// behaviour the benches measure.
//
// Thread-safe: frame bookkeeping is latched; a pinned frame's buffer is
// stable (handles cache it at pin time and frame buffers never move), so
// handle data access needs no latch. Concurrent use of the same page's
// buffer is the caller's concern (pin the page through one owner at a
// time).
//
// `capacity` is a soft bound: in write-through mode a device outage can
// strand dirty frames that refuse to flush, and a read must never inherit
// that write error just because every evictable frame is stuck. When no
// clean victim exists the pager grows an overflow frame instead; growth
// stops once flushes succeed again and the overflow frames rejoin the
// normal reuse pool.
class Pager {
 public:
  // `capacity` frames; device must outlive the pager.
  Pager(PageDevice* device, size_t capacity);
  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // Pins the page, reading it from the device on a miss.
  StatusOr<PageHandle> Fetch(PageId id);

  // Pins a zero-filled frame for `id` without reading the device (for pages
  // being initialized); the frame starts dirty.
  StatusOr<PageHandle> Zeroed(PageId id);

  // Writes back every dirty frame (pinned or not).
  Status FlushAll();

  // Flushes and evicts every unpinned frame; benches call this to make the
  // next operation run cold.
  Status EvictAll();

  // Discards any cached copy of `id` without writing it back (the page was
  // freed). A frame that is still pinned is detached from the page map and
  // marked doomed instead; the pinned readers keep their stable buffer and
  // the frame returns to the free list at the last Unpin.
  void Invalidate(PageId id);

  // Write-through mode (crash-safe configuration): MarkDirty persists the
  // frame to the device immediately instead of deferring to eviction or
  // FlushAll. The tree layers write children before parents, so with
  // write-through every durable page only references other durable pages —
  // the WAL-style ordering recovery depends on. If the immediate write
  // fails the frame simply stays dirty and the error surfaces at the next
  // flush; durability is never over-reported.
  void set_write_through(bool on) { write_through_ = on; }
  bool write_through() const { return write_through_; }

  PageDevice* device() { return device_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t dirty_writebacks() const { return dirty_writebacks_; }
  size_t cached_pages() const { return map_.size(); }

 private:
  friend class PageHandle;

  struct Frame {
    PageId id = kInvalidPage;
    Bytes data;
    uint32_t pins = 0;
    bool dirty = false;
    // Invalidated while pinned: already out of map_, freed when pins drop
    // to zero. Never written back.
    bool doomed = false;
    uint64_t tick = 0;
  };

  StatusOr<size_t> GetFrame(PageId id, bool read, bool* was_hit);
  StatusOr<size_t> FindVictim(bool require_clean = false);
  Status FlushFrame(Frame& f);
  void Unpin(size_t frame);
  void MarkFrameDirty(size_t frame);

  mutable Latch latch_;
  PageDevice* device_;
  size_t capacity_;
  bool write_through_ = false;
  // Deque: overflow growth must not move existing frames (pinned handles
  // hold their buffer pointers; Unpin/MarkDirty index by frame number).
  std::deque<Frame> frames_;
  std::vector<size_t> free_frames_;
  std::unordered_map<PageId, size_t> map_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t dirty_writebacks_ = 0;

  // Process-wide metric mirrors (stable registry pointers, looked up once).
  obs::Counter* m_hit_;
  obs::Counter* m_miss_;
  obs::Counter* m_eviction_;
  obs::Counter* m_writeback_;
  obs::Gauge* m_cached_;
};

}  // namespace eos

#endif  // EOS_IO_PAGER_H_
