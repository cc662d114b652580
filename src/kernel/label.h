// Execution labels: (module, function) pairs attached to every simulated
// activity. The latency cause tool (Section 2.3 of the paper) samples the
// instruction pointer on each PIT interrupt and attributes it, via symbol
// files, to a module+function; our simulator attributes samples via these
// labels instead, producing Table 4-style episode reports.

#ifndef SRC_KERNEL_LABEL_H_
#define SRC_KERNEL_LABEL_H_

#include <cstring>
#include <string>

namespace wdmlat::kernel {

// Both strings must have static storage duration (string literals); labels
// are copied freely and compared by content.
struct Label {
  const char* module = "IDLE";
  const char* function = "_idle";
};

// True when both labels point at the same literals: the common case, since a
// label is defined once and copied, and a sufficient test for equality.
inline bool SameAddress(const Label& a, const Label& b) {
  return a.module == b.module && a.function == b.function;
}

inline bool operator==(const Label& a, const Label& b) {
  // Labels are built from literals but may come from different translation
  // units, so equal text at different addresses is still equal.
  return SameAddress(a, b) ||
         (std::strcmp(a.module, b.module) == 0 && std::strcmp(a.function, b.function) == 0);
}

inline std::string ToString(const Label& label) {
  return std::string(label.module) + "!" + label.function;
}

// Well-known labels used by the kernel itself.
inline constexpr Label kIdleLabel{"IDLE", "_idle"};
inline constexpr Label kDispatcherLabel{"NTOSKRNL", "_SwapContext"};
inline constexpr Label kClockIsrLabel{"HAL", "_HalpClockInterrupt"};
inline constexpr Label kTrapDispatchLabel{"HAL", "_KiInterruptDispatch"};
// SMP (kernel::Smp): inter-processor interrupt delivery and spinlock spin.
inline constexpr Label kIpiLabel{"HAL", "_HalRequestIpi"};
inline constexpr Label kSpinlockLabel{"NTOSKRNL", "_KiAcquireSpinLock"};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_LABEL_H_
