// Access instrumentation for the race verifier — the recording half of a
// ThreadSanitizer-for-the-DAG (see verifier.hpp for the checking half).
//
// Task bodies annotate every solver-state access with the *object class*
// they touch: a cell's conserved state, or one side of a face's flux
// accumulator. Records land in per-worker buffers of an AccessLog (no
// cross-thread contention on the hot path), tagged with the task id the
// runtime is currently executing, and are merged and deduplicated when
// the happens-before checker runs.
//
// Zero cost when disabled: the record_* functions are a single
// thread-local pointer load + branch unless a TaskRecordScope is active
// on the calling thread, so the uninstrumented solver and runtime paths
// are unchanged.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

namespace tamp::verify {

/// The solver-state object classes whose accesses are tracked. One
/// (kind, object-id) pair names one independently-racing memory region:
/// all kNumVars components of a cell's state share one fate, as do the
/// kNumVars slots of one side of a face accumulator.
enum class ObjectKind : std::uint8_t {
  cell_state = 0,      ///< u_[*][cell] / phi_[cell]
  face_acc_side0 = 1,  ///< acc_[0][*][face]
  face_acc_side1 = 2,  ///< acc_[1][*][face]
};
inline constexpr int kNumObjectKinds = 3;

[[nodiscard]] const char* to_string(ObjectKind kind);

enum class AccessMode : std::uint8_t { read = 0, write = 1 };

/// One recorded access: task `task` touched (`kind`, `object`).
struct Access {
  index_t task = invalid_index;
  index_t object = invalid_index;
  ObjectKind kind = ObjectKind::cell_state;
  AccessMode mode = AccessMode::read;

  friend bool operator==(const Access&, const Access&) = default;
};

/// One recorded range access: task `task` touched every object of `kind`
/// in [begin, end). The range form exists for the run-streaming sweeps
/// of the solver's class layout: annotating a range-valued task costs
/// O(1) per range instead of O(objects). Semantically a RangeAccess is
/// exactly the per-object records it expands to — AccessLog::merged()
/// performs the expansion, so the happens-before checker is unchanged.
struct RangeAccess {
  index_t task = invalid_index;
  index_t begin = 0;
  index_t end = 0;  ///< exclusive
  ObjectKind kind = ObjectKind::cell_state;
  AccessMode mode = AccessMode::read;

  friend bool operator==(const RangeAccess&, const RangeAccess&) = default;
};

/// Accumulates the accesses of one (or several, for multi-schedule
/// sweeps) instrumented executions. Thread-safe on the recording side via
/// per-thread buffers; analysis-side methods must not run concurrently
/// with recording.
class AccessLog {
public:
  explicit AccessLog(index_t num_tasks);
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  [[nodiscard]] index_t num_tasks() const { return num_tasks_; }

  /// Raw records across all worker buffers (duplicates included; a range
  /// record counts once, not per object).
  [[nodiscard]] std::size_t num_records() const;

  /// All records merged, deduplicated on (task, kind, object, mode) and
  /// sorted by (kind, object, task, mode). A task that both read and
  /// wrote an object keeps both records.
  [[nodiscard]] std::vector<Access> merged() const;

  /// The calling worker's buffer pair (per-object + range records),
  /// registered on first use and cached thread-locally (keyed by a
  /// process-unique log id, so a cache entry can never outlive its log
  /// into a look-alike successor). Used by TaskRecordScope; exposed for
  /// tests.
  struct WorkerBuffers {
    std::vector<Access> accesses;
    std::vector<RangeAccess> ranges;
  };
  WorkerBuffers& thread_buffer();

  /// Number of per-worker buffers registered so far.
  [[nodiscard]] std::size_t num_worker_buffers() const;

private:
  index_t num_tasks_;
  std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<WorkerBuffers>> buffers_;
};

namespace detail {
/// Thread-local recording state: null buffer = recording disabled.
struct ThreadRecorder {
  AccessLog::WorkerBuffers* buffer = nullptr;
  index_t task = invalid_index;
};
inline thread_local ThreadRecorder tl_recorder;
}  // namespace detail

/// Is an instrumented task scope active on this thread?
[[nodiscard]] inline bool recording_active() {
  return detail::tl_recorder.buffer != nullptr;
}

/// Record one access of the currently-executing task. No-op (one
/// thread-local load + branch) outside a TaskRecordScope.
inline void record_access(ObjectKind kind, index_t object, AccessMode mode) {
  detail::ThreadRecorder& r = detail::tl_recorder;
  if (r.buffer == nullptr) return;
  r.buffer->accesses.push_back(Access{r.task, object, kind, mode});
}
inline void record_read(ObjectKind kind, index_t object) {
  record_access(kind, object, AccessMode::read);
}
inline void record_write(ObjectKind kind, index_t object) {
  record_access(kind, object, AccessMode::write);
}

/// Record one access covering every object of `kind` in [begin, end) —
/// O(1) however many objects the range spans. Equivalent to calling
/// record_access once per object; empty ranges are dropped.
inline void record_access_range(ObjectKind kind, index_t begin, index_t end,
                                AccessMode mode) {
  detail::ThreadRecorder& r = detail::tl_recorder;
  if (r.buffer == nullptr || begin >= end) return;
  r.buffer->ranges.push_back(RangeAccess{r.task, begin, end, kind, mode});
}
inline void record_read_range(ObjectKind kind, index_t begin, index_t end) {
  record_access_range(kind, begin, end, AccessMode::read);
}
inline void record_write_range(ObjectKind kind, index_t begin, index_t end) {
  record_access_range(kind, begin, end, AccessMode::write);
}

/// RAII: route this thread's record_* calls into `log` under `task`'s id
/// for the scope's lifetime. Nests correctly (restores the previous
/// recorder) and is exception-safe.
class TaskRecordScope {
public:
  TaskRecordScope(AccessLog& log, index_t task)
      : previous_(detail::tl_recorder) {
    TAMP_EXPECTS(task >= 0 && task < log.num_tasks(), "task id out of range");
    detail::tl_recorder = {&log.thread_buffer(), task};
  }
  ~TaskRecordScope() { detail::tl_recorder = previous_; }
  TaskRecordScope(const TaskRecordScope&) = delete;
  TaskRecordScope& operator=(const TaskRecordScope&) = delete;

private:
  detail::ThreadRecorder previous_;
};

/// Wrap `body` so every task execution records its accesses into `log`.
/// The wrapper is what runtime::execute (or collect_serial) runs.
[[nodiscard]] runtime::TaskBody instrument(runtime::TaskBody body,
                                           AccessLog& log);

}  // namespace tamp::verify
