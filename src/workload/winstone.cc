#include "src/workload/winstone.h"

#include <cassert>
#include <utility>

namespace wdmlat::workload {

using kernel::Label;

WinstoneScript::WinstoneScript(StressLoad::Deps deps, Config config, sim::Rng rng)
    : deps_(deps), cfg_(config), rng_(rng) {
  assert(deps_.kernel != nullptr && deps_.disk != nullptr);
}

void WinstoneScript::Start(DoneCallback done) {
  done_ = std::move(done);
  remaining_iterations_ = cfg_.iterations;
  started_at_ = deps_.kernel->GetCycleCount();
  deps_.kernel->PsCreateSystemThread("Winstone", cfg_.priority, [this] { Iterate(); });
}

void WinstoneScript::Iterate() {
  kernel::Kernel& k = *deps_.kernel;
  if (remaining_iterations_ == 0) {
    finished_ = true;
    elapsed_seconds_ = sim::CyclesToSec(k.GetCycleCount() - started_at_);
    if (done_) {
      done_(elapsed_seconds_);
    }
    k.ExitThread();
    return;
  }
  --remaining_iterations_;
  // Application CPU phase.
  k.Compute(cfg_.cpu_us_per_iteration * rng_.Uniform(0.7, 1.3), [this] {
    if (rng_.Bernoulli(cfg_.ui_event_probability)) {
      if (deps_.sound_scheme != nullptr) {
        deps_.sound_scheme->OnUiEvent();
      }
      deps_.kernel->ExQueueWorkItem(rng_.Uniform(20.0, 100.0), Label{"WIN32K", "_Repaint"});
    }
    DoFileOps(cfg_.file_ops_per_iteration);
  });
}

void WinstoneScript::DoFileOps(int remaining) {
  kernel::Kernel& k = *deps_.kernel;
  if (remaining == 0) {
    Iterate();
    return;
  }
  const auto bytes =
      static_cast<std::uint32_t>(rng_.Uniform(0.5 * cfg_.file_bytes, 1.5 * cfg_.file_bytes));
  if (deps_.virus_scanner != nullptr) {
    deps_.virus_scanner->OnFileOperation(bytes);
  }
  // Synchronous read: submit, then block until the completion DPC signals.
  deps_.disk->SubmitIo(bytes, [this] { deps_.kernel->KeSetEvent(&io_event_); });
  k.Wait(&io_event_, [this, remaining] {
    // File-system CPU in the caller's context: the OS-dependent term.
    kernel::Kernel& kernel = *deps_.kernel;
    kernel.Compute(kernel.profile().file_op_kernel_us.SampleUs(rng_),
                   [this, remaining] { DoFileOps(remaining - 1); });
  });
}

std::vector<WinstoneApp> BusinessWinstone97() {
  auto app = [](const char* name, const char* category, int iterations, double cpu_us,
                int file_ops, double bytes, double ui_probability) {
    WinstoneApp a;
    a.name = name;
    a.category = category;
    a.iterations = iterations;
    a.cpu_us_per_iteration = cpu_us;
    a.file_ops_per_iteration = file_ops;
    a.file_bytes = bytes;
    a.ui_event_probability = ui_probability;
    return a;
  };
  return {
      app("Access 7.0", "Database", 45, 4000.0, 3, 64.0 * 1024, 0.5),
      app("Paradox 7.0", "Database", 40, 3500.0, 3, 56.0 * 1024, 0.5),
      app("CorelDRAW 6.0", "Publishing", 50, 7000.0, 2, 96.0 * 1024, 0.7),
      app("PageMaker 6.0", "Publishing", 40, 5500.0, 2, 80.0 * 1024, 0.7),
      app("PowerPoint 7.0", "Publishing", 40, 4500.0, 2, 72.0 * 1024, 0.8),
      app("Excel 7.0", "WP and Spreadsheet", 50, 4000.0, 2, 40.0 * 1024, 0.6),
      app("Word 7.0", "WP and Spreadsheet", 55, 3500.0, 2, 36.0 * 1024, 0.8),
      app("WordPro 96", "WP and Spreadsheet", 40, 4000.0, 2, 40.0 * 1024, 0.8),
  };
}

std::vector<WinstoneApp> HighEndWinstone97() {
  auto app = [](const char* name, const char* category, int iterations, double cpu_us,
                int file_ops, double bytes, double ui_probability) {
    WinstoneApp a;
    a.name = name;
    a.category = category;
    a.iterations = iterations;
    a.cpu_us_per_iteration = cpu_us;
    a.file_ops_per_iteration = file_ops;
    a.file_bytes = bytes;
    a.ui_event_probability = ui_probability;
    return a;
  };
  // "Workstation applications are inherently more stressful than business
  // applications, and are CPU, disk or network bound more of the time."
  return {
      app("AVS 3.0", "Mechanical CAD", 45, 14000.0, 3, 192.0 * 1024, 0.3),
      app("Microstation 95", "Mechanical CAD", 45, 12000.0, 3, 160.0 * 1024, 0.3),
      app("Photoshop 3.0.5", "Photoediting", 40, 16000.0, 4, 384.0 * 1024, 0.4),
      app("Picture Publisher 6.0", "Photoediting", 35, 12000.0, 3, 256.0 * 1024, 0.4),
      app("P-V Wave 6.0", "Photoediting", 35, 13000.0, 3, 224.0 * 1024, 0.3),
      app("Visual C++ 4.1 Compiler", "S/W Engineering", 60, 9000.0, 6, 48.0 * 1024, 0.1),
  };
}

WinstoneSuite::WinstoneSuite(StressLoad::Deps deps, std::vector<WinstoneApp> apps,
                             sim::Rng rng)
    : deps_(deps), apps_(std::move(apps)), rng_(rng) {
  assert(deps_.kernel != nullptr && deps_.disk != nullptr);
}

void WinstoneSuite::Start(WinstoneScript::DoneCallback done) {
  done_ = std::move(done);
  started_at_ = deps_.kernel->GetCycleCount();
  deps_.kernel->PsCreateSystemThread("Winstone suite", 9, [this] { RunApp(0); });
}

void WinstoneSuite::RunApp(std::size_t index) {
  kernel::Kernel& k = *deps_.kernel;
  if (index >= apps_.size()) {
    finished_ = true;
    elapsed_seconds_ = sim::CyclesToSec(k.GetCycleCount() - started_at_);
    if (done_) {
      done_(elapsed_seconds_);
    }
    k.ExitThread();
    return;
  }
  app_index_ = index;
  const WinstoneApp& app = apps_[index];
  current_file_bytes_ = app.file_bytes;
  // InstallShield: a burst of file traffic plus unpacking CPU.
  phase_ = Phase::kInstall;
  DoFileOps(app.install_file_ops);
}

void WinstoneSuite::Iterate(int remaining) {
  const WinstoneApp& app = apps_[app_index_];
  if (remaining == 0) {
    // Uninstall and move on.
    phase_ = Phase::kUninstall;
    DoFileOps(app.uninstall_file_ops);
    return;
  }
  phase_ = Phase::kIterate;
  iterations_remaining_ = remaining;
  deps_.kernel->Compute(app.cpu_us_per_iteration * rng_.Uniform(0.7, 1.3), [this, &app] {
    if (rng_.Bernoulli(app.ui_event_probability)) {
      if (deps_.sound_scheme != nullptr) {
        deps_.sound_scheme->OnUiEvent();
      }
      deps_.kernel->ExQueueWorkItem(rng_.Uniform(20.0, 100.0),
                                    kernel::Label{"WIN32K", "_Repaint"});
    }
    DoFileOps(app.file_ops_per_iteration);
  });
}

void WinstoneSuite::FileOpsDone() {
  switch (phase_) {
    case Phase::kInstall:
      Iterate(apps_[app_index_].iterations);
      return;
    case Phase::kIterate:
      Iterate(iterations_remaining_ - 1);
      return;
    case Phase::kUninstall:
      ++apps_completed_;
      RunApp(app_index_ + 1);
      return;
  }
}

void WinstoneSuite::DoFileOps(int remaining) {
  kernel::Kernel& k = *deps_.kernel;
  if (remaining == 0) {
    FileOpsDone();
    return;
  }
  const auto bytes = static_cast<std::uint32_t>(
      rng_.Uniform(0.5 * current_file_bytes_, 1.5 * current_file_bytes_));
  if (deps_.virus_scanner != nullptr) {
    deps_.virus_scanner->OnFileOperation(bytes);
  }
  deps_.disk->SubmitIo(bytes, [this] { deps_.kernel->KeSetEvent(&io_event_); });
  k.Wait(&io_event_, [this, remaining] {
    kernel::Kernel& kernel = *deps_.kernel;
    kernel.Compute(kernel.profile().file_op_kernel_us.SampleUs(rng_),
                   [this, remaining] { DoFileOps(remaining - 1); });
  });
}

}  // namespace wdmlat::workload
