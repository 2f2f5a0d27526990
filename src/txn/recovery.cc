#include "txn/recovery.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "txn/log_manager.h"

namespace eos {

namespace {

obs::Counter* RedoCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kTxnRedoApplied);
  return c;
}

obs::Counter* UndoCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kTxnUndoApplied);
  return c;
}

// Recovery replays operations through the normal update paths; logging must
// be suspended while it does, or replay would append to the log again.
class ScopedLogSuspend {
 public:
  explicit ScopedLogSuspend(LobManager* mgr)
      : mgr_(mgr), saved_(mgr->log_manager()) {
    mgr_->set_log_manager(nullptr);
  }
  ~ScopedLogSuspend() { mgr_->set_log_manager(saved_); }

 private:
  LobManager* mgr_;
  LogManager* saved_;
};

}  // namespace

Status Recovery::ApplyForward(LobDescriptor* d, const LogRecord& r) {
  switch (r.op) {
    case LogOp::kInsert:
      return mgr_->Insert(d, r.offset, r.data);
    case LogOp::kAppend:
      return mgr_->Append(d, r.data);
    case LogOp::kDelete:
      return mgr_->Delete(d, r.offset, r.old_data.size());
    case LogOp::kReplace:
      return mgr_->Replace(d, r.offset, r.data);
    case LogOp::kDestroy:
      return mgr_->Destroy(d);
    case LogOp::kCommit:
      return Status::OK();  // marker only, no object effect
  }
  return Status::Corruption("unknown log op");
}

Status Recovery::ApplyBackward(LobDescriptor* d, const LogRecord& r) {
  switch (r.op) {
    case LogOp::kInsert:
      return mgr_->Delete(d, r.offset, r.data.size());
    case LogOp::kAppend:
      return mgr_->Truncate(d, d->size() - r.data.size());
    case LogOp::kDelete:
      return mgr_->Insert(d, r.offset, r.old_data);
    case LogOp::kReplace:
      return mgr_->Replace(d, r.offset, r.old_data);
    case LogOp::kDestroy: {
      // Rebuild the object from its before-image.
      LobAppender app(mgr_, d, r.old_data.size());
      EOS_RETURN_IF_ERROR(app.Append(r.old_data));
      return app.Finish();
    }
    case LogOp::kCommit:
      return Status::OK();  // marker only, no object effect
  }
  return Status::Corruption("unknown log op");
}

std::map<uint64_t, Recovery::ObjectLog> Recovery::GroupByObject(
    const std::vector<LogRecord>& log) {
  std::map<uint64_t, ObjectLog> out;
  for (const LogRecord& r : log) out[r.object_id].push_back(&r);
  return out;
}

Recovery::ObjectLog Recovery::RecordsOf(uint64_t object_id,
                                        const std::vector<LogRecord>& log) {
  ObjectLog out;
  for (const LogRecord& r : log) {
    if (r.object_id == object_id) out.push_back(&r);
  }
  return out;
}

Status Recovery::Redo(LobDescriptor* d, const ObjectLog& records,
                      uint64_t up_to_lsn) {
  ScopedLogSuspend suspend(mgr_);
  for (const LogRecord* rp : records) {
    const LogRecord& r = *rp;
    if (r.lsn > up_to_lsn) break;
    if (r.lsn <= d->lsn) continue;  // already reflected: idempotence
    if (r.op == LogOp::kCommit) continue;
    EOS_RETURN_IF_ERROR(ApplyForward(d, r));
    RedoCounter()->Inc();
    d->lsn = r.lsn;
  }
  return Status::OK();
}

Status Recovery::Undo(LobDescriptor* d, const ObjectLog& records,
                      uint64_t stop_lsn) {
  ScopedLogSuspend suspend(mgr_);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const LogRecord& r = **it;
    if (r.op == LogOp::kCommit) continue;
    if (r.lsn > d->lsn) continue;  // never applied: idempotence
    if (r.lsn <= stop_lsn) break;
    EOS_RETURN_IF_ERROR(ApplyBackward(d, r));
    UndoCounter()->Inc();
    d->lsn = r.lsn - 1;
  }
  return Status::OK();
}

uint64_t Recovery::LastCommitLsn(const ObjectLog& records) {
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if ((*it)->op == LogOp::kCommit) return (*it)->lsn;
  }
  return 0;
}

Status Recovery::RecoverObject(LobDescriptor* d, const ObjectLog& records) {
  uint64_t commit_lsn = LastCommitLsn(records);
  // Roll forward to the last committed state first. Redo works through the
  // normal update paths and never reads existing object content, so it is
  // safe even when a torn in-flight replace left garbage bytes — and it
  // puts the root into the coordinate system the in-flight records' offsets
  // are expressed in.
  EOS_RETURN_IF_ERROR(Redo(d, records, commit_lsn));

  // In-flight records (after the last commit), each paired with the LSN of
  // its predecessor in the object's log — the state its update could only
  // have started on top of.
  struct InFlight {
    const LogRecord* r;
    uint64_t base_lsn;
  };
  std::vector<InFlight> tail;
  uint64_t base = 0;
  for (const LogRecord* rp : records) {
    const LogRecord& r = *rp;
    if (r.op == LogOp::kCommit) continue;
    if (r.lsn <= commit_lsn) {
      base = r.lsn;
    } else {
      tail.push_back({&r, base});
      base = r.lsn;
    }
  }

  // Remove in-flight effects, newest first.
  ScopedLogSuspend suspend(mgr_);
  for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
    const LogRecord& r = *it->r;
    if (r.op == LogOp::kReplace) {
      // In-place update: the leaf bytes may be torn even though the root
      // LSN never advanced, so the before-image is restored whenever the
      // write could have started — i.e. every earlier record is reflected
      // in the recovered root, which guarantees the offset's coordinate
      // system. A restore that was never needed is idempotent.
      if (d->lsn >= it->base_lsn &&
          r.offset + r.old_data.size() <= d->size()) {
        EOS_RETURN_IF_ERROR(mgr_->Replace(d, r.offset, r.old_data));
        UndoCounter()->Inc();
      }
      if (d->lsn >= r.lsn) d->lsn = r.lsn - 1;
      continue;
    }
    if (r.lsn > d->lsn) continue;  // structural op never applied: no trace
    EOS_RETURN_IF_ERROR(ApplyBackward(d, r));
    UndoCounter()->Inc();
    d->lsn = r.lsn - 1;
  }
  static obs::Counter* recovered =
      obs::MetricsRegistry::Default().counter(obs::kTxnObjectsRecovered);
  recovered->Inc();
  return Status::OK();
}

}  // namespace eos
