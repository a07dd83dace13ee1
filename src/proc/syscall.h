// The errno-style result types of the Kernel system-call surface.
//
// Every syscall returns a SyscallResult<T> (or ForkOutcome for fork):
// the value plus an Errno describing how the call ended. This replaces
// two older conventions — Mmap's 0-on-failure return and the silent
// OOM-kill inside Munmap/Mprotect (which callers could only detect by
// checking task.alive afterwards) — and it folds fork's per-call
// statistics into the return value, so no syscall leaves its outcome in
// shared kernel-level state that concurrent driver jobs would have to
// coordinate over.

#ifndef SRC_PROC_SYSCALL_H_
#define SRC_PROC_SYSCALL_H_

#include <cstdint>

#include "src/vm/vm_manager.h"

namespace sat {

struct Task;

// How a system call ended, errno-style.
enum class Errno : uint8_t {
  kOk = 0,
  kEnomem,   // allocation failed after reclaim / swap-out / OOM-kill
  kEfault,   // the range touches no mapping (bad address)
  kEinval,   // malformed arguments (unaligned or zero-length range)
  kKilled,   // the *calling* task was OOM-killed inside the syscall
};

const char* ErrnoName(Errno error);

// Value-plus-errno. `value` is always the T default on failure, so code
// ported from the old 0-on-failure convention keeps working off `.value`.
template <typename T>
struct SyscallResult {
  T value{};
  Errno error = Errno::kOk;

  bool ok() const { return error == Errno::kOk; }
  explicit operator bool() const { return ok(); }

  static SyscallResult Ok(T v) { return SyscallResult{v, Errno::kOk}; }
  static SyscallResult Err(Errno e) { return SyscallResult{T{}, e}; }
};

// Valueless syscalls (munmap, mprotect) carry only the errno.
template <>
struct SyscallResult<void> {
  Errno error = Errno::kOk;

  bool ok() const { return error == Errno::kOk; }
  explicit operator bool() const { return ok(); }

  static SyscallResult Ok() { return SyscallResult{Errno::kOk}; }
  static SyscallResult Err(Errno e) { return SyscallResult{e}; }
};

// Fork's result: the child and the per-fork statistics (Table 4's
// cycles/PTPs/PTEs), returned together. `child` is nullptr when the fork
// failed: `error` is kEnomem when the copy failed even after reclaim and
// OOM-kills, kKilled when the parent was dead or an oops killed it.
struct ForkOutcome {
  Task* child = nullptr;
  ForkResult stats;
  Errno error = Errno::kOk;

  bool ok() const { return error == Errno::kOk; }
  explicit operator bool() const { return ok(); }
};

}  // namespace sat

#endif  // SRC_PROC_SYSCALL_H_
