// runtime::RunSupervised — the exception barrier and watchdog around one
// experiment cell.
//
// The matrix runner's headline statistics (expected hourly/daily/weekly
// worst cases) only exist if multi-hour loaded runs complete reliably, so a
// single throwing cell must not discard the whole run. RunSupervised wraps
// a cell body in an exception barrier that converts any escaping exception
// into a structured CellFailure (taxonomy + message + diagnostic bundle
// filled in by the caller) and arms a host-clock watchdog that the cell
// polls cooperatively between simulation slices. Every in-process failure
// is deterministic — the same seed would fail the same way — so none is
// retried; a worker process that dies or hangs is the fleet's to retry
// (runtime::FleetSupervisor).
//
// The watchdog is host-clock by design: simulated time is deterministic and
// cannot hang, but the host running the simulation can (a pathological fault
// plan, a runaway workload parameter). Checks are cooperative — a cell that
// wedges inside a single event callback cannot be preempted, only detected
// once the run returns to a slice boundary.

#ifndef SRC_RUNTIME_SUPERVISOR_H_
#define SRC_RUNTIME_SUPERVISOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wdmlat::runtime {

// Error taxonomy of a supervised cell. Stable snake_case names (quarantine
// "taxonomy" strings) via FailureKindName.
enum class FailureKind : std::uint8_t {
  kNone,
  // The cell body threw (std::exception or otherwise): a deterministic
  // failure, not retried — the same seed would throw again.
  kException,
  // The cell exceeded its host-clock deadline budget.
  kTimeout,
  // A periodic or end-of-run invariant audit found corrupted simulator
  // state; the cell's results are untrustworthy and are discarded.
  kInvariantViolation,
  // A fleet worker process that was killed or hung (never an in-process
  // verdict): FleetSupervisor re-spawns its shard window, which resumes
  // from the flushed records with the same seeds.
  kHostTransient,
};

const char* FailureKindName(FailureKind kind);
bool FailureKindFromName(std::string_view name, FailureKind* out);

// Thrown by Watchdog::Check when the budget is exhausted.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what) : std::runtime_error(what) {}
};

// Thrown by the lab layer when a sim::InvariantAuditor pass fails; carries
// the rendered violation list.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what) : std::runtime_error(what) {}
};

// A host-clock deadline budget. Armed once per cell by RunSupervised and
// polled cooperatively (Check) by the cell between simulation slices.
class Watchdog {
 public:
  // Start (or restart) the budget from now. timeout_ms <= 0 disarms.
  void Arm(double timeout_ms);
  void Disarm() { armed_ = false; }

  bool armed() const { return armed_; }
  double elapsed_ms() const;
  bool expired() const;

  // Throws DeadlineExceeded when armed and past the deadline. No-op when
  // disarmed, so callers can Check() unconditionally.
  void Check() const;

 private:
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point deadline_{};
  double timeout_ms_ = 0.0;
  bool armed_ = false;
};

// One structured cell failure: everything the quarantine manifest, the CLI report and a
// post-mortem need to understand what died without re-running it.
struct CellFailure {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  FailureKind kind = FailureKind::kException;
  std::string message;
  double elapsed_ms = 0.0;
  // Diagnostic bundle: flight-recorder tail, metrics snapshot, audit report.
  // Filled by the caller's diagnose hook (the supervisor itself is
  // simulation-agnostic).
  std::vector<std::string> diagnostics;

  // One-paragraph rendering (taxonomy, message, bundle) for logs.
  std::string Render() const;
};

// Run `body(watchdog)` under the exception barrier, with the watchdog armed
// for `cell_timeout_ms` (<= 0 leaves it disarmed). Returns nullopt on
// success, or the structured failure; `diagnose`, when set, runs once on
// that failure to attach the diagnostic bundle.
std::optional<CellFailure> RunSupervised(
    std::size_t cell, std::uint64_t seed, double cell_timeout_ms,
    const std::function<void(Watchdog& watchdog)>& body,
    const std::function<void(CellFailure&)>& diagnose = nullptr);

}  // namespace wdmlat::runtime

#endif  // SRC_RUNTIME_SUPERVISOR_H_
