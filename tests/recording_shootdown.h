// A TLB-shootdown sink for tests without a machine behind their page
// tables: it records, in order, every address space the page-table and VM
// layers ask to flush.

#ifndef TESTS_RECORDING_SHOOTDOWN_H_
#define TESTS_RECORDING_SHOOTDOWN_H_

#include <cstdint>
#include <vector>

#include "src/pt/ptp.h"

namespace sat {

class RecordingShootdown : public TlbShootdown {
 public:
  void FlushSpace(const PageTable& table) override { spaces.push_back(&table); }
  void FlushPte(PtpId, uint32_t, bool) override {}

  std::vector<const PageTable*> spaces;
};

}  // namespace sat

#endif  // TESTS_RECORDING_SHOOTDOWN_H_
