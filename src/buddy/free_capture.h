#ifndef EOS_BUDDY_FREE_CAPTURE_H_
#define EOS_BUDDY_FREE_CAPTURE_H_

#include <utility>
#include <vector>

#include "buddy/segment_allocator.h"

namespace eos {

// Scoped FreeInterceptor that parks every extent freed while it is
// installed instead of returning it to the buddy system, restoring the
// previously installed interceptor on destruction.
//
// This is the pin-aware free parking the MVCC layer builds on (DESIGN.md
// §13): a committed LOB mutation's SpaceReservation replays its parked
// frees through the normal Free path at commit, and those frees are
// exactly the extents only the superseded version still references. With a
// capture scope wrapped around the mutation, the replay lands here and the
// captured list becomes the old version's retire batch — storage that must
// stay allocated until no snapshot pins that version, at which point the
// database GC routes it through the regular free path (and so through the
// CheckpointFreeList in crash-safe mode).
//
// On a failed mutation the reservation unwinds instead of committing:
// parked frees are dropped, nothing reaches this interceptor, and the old
// version's storage is untouched.
//
// Not thread-safe by itself: install/uninstall must be serialized with all
// other allocator free traffic (the database layer holds its directory
// latch exclusively around the scope).
class ScopedFreeCapture final : public FreeInterceptor {
 public:
  explicit ScopedFreeCapture(SegmentAllocator* allocator)
      : allocator_(allocator), previous_(allocator->free_interceptor()) {
    allocator_->set_free_interceptor(this);
  }

  ~ScopedFreeCapture() override {
    allocator_->set_free_interceptor(previous_);
  }

  ScopedFreeCapture(const ScopedFreeCapture&) = delete;
  ScopedFreeCapture& operator=(const ScopedFreeCapture&) = delete;

  bool InterceptFree(const Extent& extent) override {
    captured_.push_back(extent);
    return true;
  }

  // Hands the captured extents to the caller (the retire batch) and
  // resets the scope for reuse.
  std::vector<Extent> TakeCaptured() { return std::move(captured_); }

  size_t captured() const { return captured_.size(); }

 private:
  SegmentAllocator* allocator_;
  FreeInterceptor* previous_;
  std::vector<Extent> captured_;
};

}  // namespace eos

#endif  // EOS_BUDDY_FREE_CAPTURE_H_
