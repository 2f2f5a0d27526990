#ifndef EOS_TXN_RECOVERY_H_
#define EOS_TXN_RECOVERY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "lob/descriptor.h"
#include "lob/lob_manager.h"
#include "txn/log_record.h"

namespace eos {

// Idempotent redo/undo of logical large-object log records (Section 4.5).
//
// The LSN of the most recent applied update lives in the object's root, so
// redo skips records the object already reflects and undo skips records it
// never saw — applying recovery twice is a no-op.
//
// Entry points take one object's records (an ObjectLog); Redo, Undo and
// LastCommitLsn also come in a form taking the whole log and an object id.
// Volume recovery groups the log once (GroupByObject) and hands each object
// its own records, so recovering N objects costs one pass over the log
// instead of N.
class Recovery {
 public:
  // One object's records in log order, pointing into the full log (which
  // must outlive it).
  using ObjectLog = std::vector<const LogRecord*>;

  explicit Recovery(LobManager* mgr) : mgr_(mgr) {}

  // Splits `log` by object id in one pass.
  static std::map<uint64_t, ObjectLog> GroupByObject(
      const std::vector<LogRecord>& log);
  // The records of `object_id` alone.
  static ObjectLog RecordsOf(uint64_t object_id,
                             const std::vector<LogRecord>& log);

  // Reapplies, in log order, every record for `object_id` with
  // lsn > d->lsn (and, if `up_to_lsn` is given, lsn <= up_to_lsn). The
  // object's root LSN advances to the last record applied.
  Status Redo(LobDescriptor* d, uint64_t object_id,
              const std::vector<LogRecord>& log,
              uint64_t up_to_lsn = ~uint64_t{0}) {
    return Redo(d, RecordsOf(object_id, log), up_to_lsn);
  }
  Status Redo(LobDescriptor* d, const ObjectLog& records,
              uint64_t up_to_lsn = ~uint64_t{0});

  // Rolls back, in reverse log order, every record for `object_id` with
  // lsn <= d->lsn and lsn > stop_lsn (pass 0 to undo everything). The
  // root LSN retreats below each undone record.
  Status Undo(LobDescriptor* d, uint64_t object_id,
              const std::vector<LogRecord>& log, uint64_t stop_lsn) {
    return Undo(d, RecordsOf(object_id, log), stop_lsn);
  }
  Status Undo(LobDescriptor* d, const ObjectLog& records, uint64_t stop_lsn);

  // Full crash recovery for one object: restores `d` to the object's last
  // committed state (the state at its newest kCommit record). Redoes the
  // committed tail first — bringing the root to last-committed coordinates
  // — then removes any in-flight (post-commit) effects, newest first.
  //
  // Structural updates (insert/append/delete/destroy) never modify pages an
  // older durable root can reach (index shadowing + commit-deferred frees),
  // so an in-flight record the durable root does not reflect needs no undo.
  // Replace is the exception: it patches leaf bytes in place, so a crash
  // mid-replace can leave torn bytes under the committed root even though
  // the root LSN never advanced — its before-image is therefore restored
  // unconditionally.
  Status RecoverObject(LobDescriptor* d, const ObjectLog& records);

  // LSN of the newest kCommit record for `object_id` (0 if none).
  static uint64_t LastCommitLsn(uint64_t object_id,
                                const std::vector<LogRecord>& log) {
    return LastCommitLsn(RecordsOf(object_id, log));
  }
  static uint64_t LastCommitLsn(const ObjectLog& records);

 private:
  Status ApplyForward(LobDescriptor* d, const LogRecord& r);
  Status ApplyBackward(LobDescriptor* d, const LogRecord& r);

  LobManager* mgr_;
};

}  // namespace eos

#endif  // EOS_TXN_RECOVERY_H_
