// Task: the simulated task_struct.

#ifndef SRC_PROC_TASK_H_
#define SRC_PROC_TASK_H_

#include <memory>
#include <string>

#include "src/arch/domain.h"
#include "src/arch/types.h"
#include "src/vm/mm.h"

namespace sat {

struct Task {
  Pid pid = 0;
  std::string name;
  // Null once the task is dead: Exit and the kills free the address space.
  std::unique_ptr<MmStruct> mm;
  Asid asid = 0;

  // Cores this task has run on since its last full TLB purge — the
  // mm_cpumask analogue bounding TLB-shootdown broadcasts. 64-bit, like
  // CpuMask: the machine scales to 64 cores.
  uint64_t cpu_mask = 0;
  uint32_t last_core = 0;

  // The paper's two new task_struct flags (Section 3.2.2): `zygote` is set
  // by exec when the zygote starts; `zygote_child` is set by fork for its
  // descendants.
  bool zygote = false;
  bool zygote_child = false;

  // Loaded into the simulated DACR on every switch to this task.
  DomainAccessControl dacr = DomainAccessControl::StockDefault();

  bool alive = true;
  // Set when the OOM killer (not a voluntary Exit) terminated the task.
  bool oom_killed = false;
  // Set when a recoverable kernel oops killed the task (blast-radius
  // containment for corrupted state it was sharing; see src/arch/check.h).
  bool oops_killed = false;

  bool IsZygoteLike() const { return zygote || zygote_child; }
};

}  // namespace sat

#endif  // SRC_PROC_TASK_H_
