#include "src/vm/vm_area.h"

#include <iomanip>
#include <sstream>

namespace sat {

std::string VmArea::ToString() const {
  std::ostringstream os;
  os << "VmArea{0x" << std::hex << std::setw(8) << std::setfill('0') << start
     << "-0x" << std::setw(8) << end << std::dec << " " << prot.ToString();
  switch (kind) {
    case VmKind::kFilePrivate:
      os << "p file=" << file << "+" << file_page_offset;
      break;
    case VmKind::kFileShared:
      os << "s file=" << file << "+" << file_page_offset;
      break;
    case VmKind::kAnonPrivate:
      os << "p anon";
      break;
    case VmKind::kAnonShared:
      os << "s anon";
      break;
  }
  if (global) {
    os << " global";
  }
  if (is_stack) {
    os << " stack";
  }
  if (name != nullptr) {
    os << " \"" << *name << "\"";
  }
  os << "}";
  return os.str();
}

}  // namespace sat
