// sim::InvariantAuditor — periodic + on-failure self-check of simulator
// state.
//
// A corrupted calendar or pool does not necessarily crash: it silently skews
// the latency distributions the whole experiment exists to measure. The
// auditor makes corruption loud instead. It owns the built-in engine checks
// (calendar consistency — fire-order sort, no entry in the past, issued
// sequence numbers, each entry owned by a scheduled one-shot or its timer's
// arming and one entry per pending slot — plus pool free-list consistency
// and time monotonicity across audits) and accepts named external checks
// from the layers the sim library cannot see (the kernel dispatcher's
// IRQL/lock discipline, the lab layer's histogram count conservation). The lab run
// loop audits between simulation slices and once more after the run; a
// non-empty report degrades the cell to `failed` (runtime::FailureKind::
// kInvariantViolation) so the merged matrix result never absorbs data from
// a sick simulator.
//
// Audits are read-only and scheduled in host space, never via the calendar,
// so an armed auditor cannot perturb the simulation: a supervised run with
// auditing on is bit-identical to one with auditing off.

#ifndef SRC_SIM_INVARIANT_AUDITOR_H_
#define SRC_SIM_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::sim {

// The outcome of one audit pass. Empty violations == healthy.
struct AuditReport {
  Cycles at = 0;
  std::uint64_t pass = 0;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  // Multi-line rendering: "audit pass N at cycle T: K violation(s)" followed
  // by one indented line per violation.
  std::string Render() const;
};

class InvariantAuditor {
 public:
  // An external check appends violation lines; it must not mutate any
  // simulator state.
  using Check = InplaceFunction<void(std::vector<std::string>*)>;

  explicit InvariantAuditor(Engine& engine) : engine_(&engine) {}

  // Register a named check run on every audit pass. The name prefixes any
  // line the check emits, so a violation is attributable without the check
  // repeating itself.
  void AddCheck(std::string name, Check check) {
    checks_.emplace_back(std::move(name), std::move(check));
  }

  // Run one full pass: engine calendar + pool consistency, time
  // monotonicity versus the previous pass, then every registered check.
  AuditReport Audit();

  std::uint64_t passes() const { return passes_; }
  std::uint64_t violations_seen() const { return violations_seen_; }

 private:
  Engine* engine_;
  std::vector<std::pair<std::string, Check>> checks_;
  Cycles last_now_ = 0;
  bool have_last_now_ = false;
  std::uint64_t passes_ = 0;
  std::uint64_t violations_seen_ = 0;
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_INVARIANT_AUDITOR_H_
