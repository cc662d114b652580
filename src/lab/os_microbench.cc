#include "src/lab/os_microbench.h"

#include <memory>
#include <utility>

#include "src/kernel/kernel.h"

namespace wdmlat::lab {

namespace {
using kernel::Label;
}  // namespace

MicrobenchResults RunOsMicrobench(lab::TestSystem& system, int iterations) {
  MicrobenchResults results;
  results.iterations = static_cast<std::uint64_t>(iterations);
  kernel::Kernel& k = system.kernel();
  k.SetClockFrequency(1000.0);
  system.RunFor(0.05);  // let the new rate take effect

  // --- 1. Thread ping-pong (context switch) ---------------------------------
  // The probe state is shared with the threads' continuations, which outlive
  // this function (thread B stays parked on its event).
  {
    struct PingPong {
      kernel::KEvent ea;
      kernel::KEvent eb;
      int remaining = 0;
      sim::Cycles start = 0;
      sim::Cycles end = 0;

      static void LoopA(kernel::Kernel& k, const std::shared_ptr<PingPong>& s) {
        k.Wait(&s->ea, [&k, s] {
          if (--s->remaining <= 0) {
            s->end = k.GetCycleCount();
            k.ExitThread();
            return;
          }
          k.KeSetEvent(&s->eb);
          LoopA(k, s);
        });
      }
      static void LoopB(kernel::Kernel& k, const std::shared_ptr<PingPong>& s) {
        k.Wait(&s->eb, [&k, s] {
          k.KeSetEvent(&s->ea);
          LoopB(k, s);
        });
      }
    };
    auto state = std::make_shared<PingPong>();
    state->remaining = iterations;
    k.PsCreateSystemThread("pingpong-a", 20, [&k, state] { PingPong::LoopA(k, state); });
    k.PsCreateSystemThread("pingpong-b", 20, [&k, state] { PingPong::LoopB(k, state); });
    system.engine().ScheduleAfter(sim::MsToCycles(1.0), [&k, state] {
      state->start = k.GetCycleCount();
      k.KeSetEvent(&state->ea);
    });
    system.RunFor(0.001 * iterations + 1.0);
    if (state->end > state->start && iterations > 0) {
      results.context_switch_us = sim::CyclesToUs(state->end - state->start) / (2.0 * iterations);
    }
  }

  // --- 2. Event signal to thread wake ----------------------------------------
  {
    struct WakeProbe {
      kernel::KEvent event;
      sim::Cycles signaled_at = 0;
      sim::Cycles total = 0;
      int woken = 0;

      static void Loop(kernel::Kernel& k, const std::shared_ptr<WakeProbe>& s) {
        k.Wait(&s->event, [&k, s] {
          s->total += k.GetCycleCount() - s->signaled_at;
          ++s->woken;
          Loop(k, s);
        });
      }
    };
    auto state = std::make_shared<WakeProbe>();
    k.PsCreateSystemThread("wake-probe", 28, [&k, state] { WakeProbe::Loop(k, state); });
    for (int i = 0; i < iterations; ++i) {
      system.engine().ScheduleAfter(sim::UsToCycles(200.0 * (i + 1)), [&k, state] {
        state->signaled_at = k.GetCycleCount();
        k.KeSetEvent(&state->event);
      });
    }
    system.RunFor(200e-6 * iterations + 0.5);
    if (state->woken > 0) {
      results.event_wake_us = sim::CyclesToUs(state->total) / state->woken;
    }
  }

  // --- 3. DPC dispatch ---------------------------------------------------------
  {
    auto inserted_at = std::make_shared<sim::Cycles>(0);
    auto total = std::make_shared<sim::Cycles>(0);
    auto runs = std::make_shared<int>(0);
    auto dpc = std::make_shared<kernel::KDpc>(
        [&k, inserted_at, total, runs] {
          *total += k.GetCycleCount() - *inserted_at;
          ++*runs;
        },
        sim::DurationDist::Constant(1.0), Label{"UBENCH", "_dpc"});
    for (int i = 0; i < iterations; ++i) {
      system.engine().ScheduleAfter(sim::UsToCycles(150.0 * (i + 1)),
                                    [&k, dpc, inserted_at] {
                                      *inserted_at = k.GetCycleCount();
                                      k.KeInsertQueueDpc(dpc.get());
                                    });
    }
    system.RunFor(150e-6 * iterations + 0.5);
    if (*runs > 0) {
      results.dpc_dispatch_us = sim::CyclesToUs(*total) / *runs;
    }
  }

  // --- 4. Interrupt dispatch ------------------------------------------------------
  {
    const int line = system.kernel().pic().ConnectLine("UBENCH", static_cast<kernel::Irql>(11));
    k.IoConnectInterrupt(line, static_cast<kernel::Irql>(11), Label{"UBENCH", "_isr"},
                         [] { return sim::UsToCycles(1.0); });
    // Observe ISR entries for the run, still passing each one on to the
    // observer installed before it; the original is reinstalled afterwards.
    sim::Cycles total = 0;
    int fires = 0;
    kernel::Dispatcher& dispatcher = k.dispatcher();
    auto previous = std::move(dispatcher.on_isr_entry);
    dispatcher.on_isr_entry = [line, &total, &fires, &previous](int l, sim::Cycles a,
                                                                sim::Cycles e) {
      if (l == line) {
        total += e - a;
        ++fires;
      }
      if (previous) {
        previous(l, a, e);
      }
    };
    for (int i = 0; i < iterations; ++i) {
      system.engine().ScheduleAfter(sim::UsToCycles(170.0 * (i + 1)),
                                    [&system, line] { system.kernel().pic().Assert(line); });
    }
    system.RunFor(170e-6 * iterations + 0.5);
    dispatcher.on_isr_entry = std::move(previous);
    if (fires > 0) {
      results.interrupt_dispatch_us = sim::CyclesToUs(total) / fires;
    }
  }

  // --- 5. Timer expiry error -------------------------------------------------------
  {
    auto timer = std::make_shared<kernel::KTimer>();
    auto due = std::make_shared<sim::Cycles>(0);
    auto total = std::make_shared<sim::Cycles>(0);
    auto fires = std::make_shared<int>(0);
    auto dpc = std::make_shared<kernel::KDpc>(
        [&k, due, total, fires] {
          *total += k.GetCycleCount() - *due;
          ++*fires;
        },
        sim::DurationDist::Constant(1.0), Label{"UBENCH", "_timer"});
    const int timer_iterations = iterations / 4 + 1;
    for (int i = 0; i < timer_iterations; ++i) {
      // Odd spacing so the due times sweep the tick phase uniformly.
      system.engine().ScheduleAfter(sim::UsToCycles(4170.0 * (i + 1)),
                                    [&k, timer, dpc, due] {
                                      *due = k.GetCycleCount() + sim::MsToCycles(2.0);
                                      k.KeSetTimerMs(timer.get(), 2.0, dpc.get());
                                    });
    }
    system.RunFor(4170e-6 * timer_iterations + 0.5);
    if (*fires > 0) {
      results.timer_error_ms = sim::CyclesToMs(*total) / *fires;
    }
  }

  return results;
}

}  // namespace wdmlat::lab
