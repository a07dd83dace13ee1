// Page-table entry formats for the simulated ARMv7 short-descriptor scheme.
//
// Three entry kinds are modelled:
//   * HwPte      — a hardware second-level ("small page" / "large page")
//                  descriptor. These are what the MMU's table walker reads
//                  and what gets loaded into the TLB.
//   * LinuxPte   — the parallel software entry Linux/ARM keeps alongside
//                  each hardware entry, holding the "young" (referenced)
//                  and "dirty" bits the hardware format lacks.
//   * L1Entry    — a first-level entry. In this simulation L1 entries are
//                  managed at the paired 2 MB granularity (see types.h), so
//                  an L1Entry here corresponds to a *pair* of hardware
//                  first-level descriptors pointing into one PTP. The
//                  NEED_COPY bit of the paper lives here.
//
// The hardware bit layout follows the ARMv7-A short descriptor format
// closely enough that the simulated cache hierarchy can treat a PTE as a
// real 4-byte datum at a real physical address inside its page-table page.

#ifndef SRC_ARCH_PTE_H_
#define SRC_ARCH_PTE_H_

#include <cstdint>
#include <string>

#include "src/arch/types.h"

namespace sat {

// Access-permission encoding, a simplified version of ARM's AP[2:0].
enum class PtePerm : uint8_t {
  kNone = 0,         // no user access
  kReadOnly = 1,     // user read (and execute unless XN)
  kReadWrite = 2,    // user read/write
};

// The one permission rule, for TLB hits in a client domain and the PTEs
// the page-granular touch path reads (inline: both TLBs run it per hit).
constexpr bool PermitsAccess(PtePerm perm, bool executable, AccessType access) {
  switch (access) {
    case AccessType::kRead:
      return perm != PtePerm::kNone;
    case AccessType::kWrite:
      return perm == PtePerm::kReadWrite;
    case AccessType::kExecute:
      return perm != PtePerm::kNone && executable;
  }
  return false;
}

// A hardware second-level descriptor.
//
// Simulated layout (bit positions chosen to mirror ARMv7 small pages):
//   [31:12] physical frame number
//   [11]    nG   (not-global; 0 means the mapping is global)
//   [10:9]  AP   (PtePerm)
//   [8]     large (part of a 64 KB large-page run)
//   [2]     XN   (execute never)
//   [1:0]   type (0 = invalid, 2 = valid small/large page)
class HwPte {
 public:
  constexpr HwPte() = default;

  static HwPte MakePage(FrameNumber frame, PtePerm perm, bool global,
                        bool executable, bool large = false) {
    HwPte pte;
    pte.raw_ = (static_cast<uint32_t>(frame) << kPageShift) |
               (global ? 0u : kNotGlobalBit) |
               (static_cast<uint32_t>(perm) << kApShift) |
               (large ? kLargeBit : 0u) | (executable ? 0u : kXnBit) | kTypePage;
    return pte;
  }

  // Reconstitutes an entry from its raw 4-byte image. Chaos injection and
  // scrub repair operate on the raw word, the same view the hardware
  // walker has.
  static constexpr HwPte FromRaw(uint32_t raw) {
    HwPte pte;
    pte.raw_ = raw;
    return pte;
  }

  constexpr bool valid() const { return (raw_ & kTypeMask) == kTypePage; }
  constexpr FrameNumber frame() const { return raw_ >> kPageShift; }
  constexpr bool global() const { return valid() && (raw_ & kNotGlobalBit) == 0; }
  constexpr bool executable() const { return (raw_ & kXnBit) == 0; }
  constexpr bool large() const { return (raw_ & kLargeBit) != 0; }

  constexpr PtePerm perm() const {
    return static_cast<PtePerm>((raw_ >> kApShift) & 0x3u);
  }

  void set_perm(PtePerm perm) {
    raw_ = (raw_ & ~(0x3u << kApShift)) | (static_cast<uint32_t>(perm) << kApShift);
  }

  void set_global(bool global) {
    if (global) {
      raw_ &= ~kNotGlobalBit;
    } else {
      raw_ |= kNotGlobalBit;
    }
  }

  // Write-protects the entry (AP read-write -> read-only). Used both for
  // COW at fork and for the write-protect pass when a PTP becomes shared.
  void WriteProtect() {
    if (perm() == PtePerm::kReadWrite) {
      set_perm(PtePerm::kReadOnly);
    }
  }

  void Clear() { raw_ = 0; }

  constexpr uint32_t raw() const { return raw_; }
  constexpr bool operator==(const HwPte& other) const = default;

  std::string ToString() const;

 private:
  static constexpr uint32_t kTypeMask = 0x3u;
  static constexpr uint32_t kTypePage = 0x2u;
  static constexpr uint32_t kXnBit = 1u << 2;
  static constexpr uint32_t kLargeBit = 1u << 8;
  static constexpr uint32_t kApShift = 9;
  static constexpr uint32_t kNotGlobalBit = 1u << 11;

  uint32_t raw_ = 0;
};

// Identifier of a compressed swap slot in the zram store (src/mem/zram).
using SwapSlotId = uint32_t;
inline constexpr SwapSlotId kNoSwapSlot = ~SwapSlotId{0};

// The parallel Linux software entry. ARMv7 second-level descriptors have no
// referenced/dirty bits, so Linux keeps them in a shadow table that shares
// the PTP's 4 KB frame with the hardware tables.
//
// A non-present software entry can instead hold a *swap entry* — the ARM
// Linux trick of encoding the swap slot in the free bits of the invalid
// descriptor. The hardware entry stays invalid (type 0) so the walker
// faults; the fault handler recognises the swap bit and decompresses the
// page from the zram store.
class LinuxPte {
 public:
  constexpr LinuxPte() = default;

  constexpr bool present() const { return (raw_ & kPresentBit) != 0; }
  constexpr bool young() const { return (raw_ & kYoungBit) != 0; }
  constexpr bool dirty() const { return (raw_ & kDirtyBit) != 0; }
  // Set when the *region* allows writes even though the hardware entry may
  // currently be write-protected (COW / shared-PTP protection).
  constexpr bool writable() const { return (raw_ & kWritableBit) != 0; }

  void set_present(bool v) { SetBit(kPresentBit, v); }
  void set_young(bool v) { SetBit(kYoungBit, v); }
  void set_dirty(bool v) { SetBit(kDirtyBit, v); }
  void set_writable(bool v) { SetBit(kWritableBit, v); }

  // Swap-entry encoding: slot number in the high bits, swap marker in a
  // free low bit, present bit clear. A swap entry carries no other flags.
  static LinuxPte MakeSwap(SwapSlotId slot) {
    LinuxPte pte;
    pte.raw_ = kSwapBit | (slot << kSwapSlotShift);
    return pte;
  }
  constexpr bool is_swap() const { return (raw_ & kSwapBit) != 0; }
  constexpr SwapSlotId swap_slot() const { return raw_ >> kSwapSlotShift; }
  static constexpr SwapSlotId kMaxSwapSlot =
      (1u << (32 - 5 /*kSwapSlotShift*/)) - 1;

  void Clear() { raw_ = 0; }

  constexpr uint32_t raw() const { return raw_; }
  constexpr bool operator==(const LinuxPte& other) const = default;

 private:
  static constexpr uint32_t kPresentBit = 1u << 0;
  static constexpr uint32_t kYoungBit = 1u << 1;
  static constexpr uint32_t kDirtyBit = 1u << 2;
  static constexpr uint32_t kWritableBit = 1u << 3;
  static constexpr uint32_t kSwapBit = 1u << 4;
  static constexpr uint32_t kSwapSlotShift = 5;

  void SetBit(uint32_t bit, bool v) {
    if (v) {
      raw_ |= bit;
    } else {
      raw_ &= ~bit;
    }
  }

  uint32_t raw_ = 0;
};

// Identifier of a page-table page object in the simulated kernel. PTPs live
// in a slab owned by the PtpAllocator (src/pt); L1 entries refer to them by
// id rather than by pointer so that sharing and reference counting stay
// explicit.
using PtpId = int32_t;
inline constexpr PtpId kNoPtp = -1;

// One half of an L1 pair mapped as an ARMv7 1 MB *section*: a single
// first-level descriptor naming 256 physically contiguous frames, no
// second level at all. kNoSectionFrame marks the half as not
// section-mapped (the normal case).
inline constexpr FrameNumber kNoSectionFrame = 0xFFFFFFFFu;

struct SectionDesc {
  FrameNumber base = kNoSectionFrame;  // first of 256 contiguous frames
  bool global = false;                 // nG clear (zygote shared code)
  bool executable = false;

  bool present() const { return base != kNoSectionFrame; }

  void Clear() {
    base = kNoSectionFrame;
    global = false;
    executable = false;
  }

  bool operator==(const SectionDesc& other) const = default;
};

// A first-level entry at 2 MB (PTP-pair) granularity.
//
// The NEED_COPY flag is the paper's spare-bit annotation: it marks the
// referenced PTP as shared copy-on-write, meaning any modification of the
// 2 MB range must first unshare (privatize) the PTP.
//
// The two `section` halves model the pair's hardware descriptors being
// *section* mappings (1 MB each) instead of pointers into the PTP: a half
// that is section-mapped translates without any second-level walk, and
// takes precedence over any PTE the PTP might hold for the same range
// (the kernel never installs both). Sections here always map permanent
// read-only kernel-owned frames (the eager zygote-code mapping), so they
// carry no refcounts and are copied by value at fork.
struct L1Entry {
  PtpId ptp = kNoPtp;
  DomainId domain = 0;
  bool need_copy = false;
  SectionDesc section[2];

  bool present() const { return ptp != kNoPtp; }

  bool has_section(uint32_t half) const { return section[half].present(); }
  bool any_section() const {
    return section[0].present() || section[1].present();
  }

  void Clear() {
    ptp = kNoPtp;
    domain = 0;
    need_copy = false;
    section[0].Clear();
    section[1].Clear();
  }

  bool operator==(const L1Entry& other) const = default;
};

}  // namespace sat

#endif  // SRC_ARCH_PTE_H_
