#include "src/sim/invariant_auditor.h"

#include <sstream>

namespace wdmlat::sim {

std::string AuditReport::Render() const {
  std::ostringstream out;
  out << "audit pass " << pass << " at cycle " << at << ": " << violations.size()
      << (violations.size() == 1 ? " violation" : " violations");
  for (const std::string& v : violations) {
    out << "\n  " << v;
  }
  return out.str();
}

AuditReport InvariantAuditor::Audit() {
  AuditReport report;
  report.at = engine_->now();
  report.pass = ++passes_;

  engine_->AuditCalendar(&report.violations);

  // Time monotonicity is a cross-pass property: the calendar itself can only
  // show the current instant, so the auditor remembers the previous one.
  if (have_last_now_ && engine_->now() < last_now_) {
    report.violations.push_back("engine: time ran backwards (now=" +
                                std::to_string(engine_->now()) + " < previous audit at " +
                                std::to_string(last_now_) + ")");
  }
  last_now_ = engine_->now();
  have_last_now_ = true;

  for (auto& [name, check] : checks_) {
    std::vector<std::string> lines;
    check(&lines);
    for (std::string& line : lines) {
      report.violations.push_back(name + ": " + std::move(line));
    }
  }

  violations_seen_ += report.violations.size();
  return report;
}

}  // namespace wdmlat::sim
