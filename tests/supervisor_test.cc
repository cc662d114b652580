// runtime::RunSupervised: the exception barrier and watchdog around one
// experiment cell. Tested without any simulation — the supervisor is
// simulation-agnostic by design.

#include "src/runtime/supervisor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

namespace wdmlat::runtime {
namespace {

TEST(FailureKindTest, NamesRoundTrip) {
  for (FailureKind kind : {FailureKind::kNone, FailureKind::kException,
                           FailureKind::kTimeout, FailureKind::kInvariantViolation,
                           FailureKind::kHostTransient}) {
    FailureKind parsed{};
    ASSERT_TRUE(FailureKindFromName(FailureKindName(kind), &parsed))
        << FailureKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  FailureKind parsed{};
  EXPECT_FALSE(FailureKindFromName("segfault", &parsed));
}

TEST(WatchdogTest, DisarmedCheckIsANoOp) {
  Watchdog dog;
  EXPECT_FALSE(dog.armed());
  EXPECT_NO_THROW(dog.Check());
  dog.Arm(0.0);  // timeout <= 0 disarms
  EXPECT_FALSE(dog.armed());
  EXPECT_NO_THROW(dog.Check());
}

TEST(WatchdogTest, ExpiresAndThrowsPastDeadline) {
  Watchdog dog;
  dog.Arm(1.0);
  EXPECT_TRUE(dog.armed());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(dog.expired());
  EXPECT_THROW(dog.Check(), DeadlineExceeded);
  dog.Disarm();
  EXPECT_NO_THROW(dog.Check());
}

TEST(WatchdogTest, GenerousBudgetDoesNotExpire) {
  Watchdog dog;
  dog.Arm(60'000.0);
  EXPECT_FALSE(dog.expired());
  EXPECT_NO_THROW(dog.Check());
  EXPECT_GE(dog.elapsed_ms(), 0.0);
}

TEST(SupervisorTest, SuccessReturnsNulloptAndRunsTheBodyOnce) {
  int calls = 0;
  bool armed = true;
  const auto failure = RunSupervised(7, 99, 0.0, [&](Watchdog& dog) {
    armed = dog.armed();
    ++calls;
  });
  EXPECT_FALSE(failure.has_value());
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(armed);  // a zero budget leaves the watchdog disarmed
}

TEST(SupervisorTest, ExceptionIsDeterministicAndNeverRetried) {
  int calls = 0;
  const auto failure = RunSupervised(3, 42, 0.0, [&](Watchdog&) {
    ++calls;
    throw std::runtime_error("boom");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(calls, 1);  // the same seed would throw again
  EXPECT_EQ(failure->kind, FailureKind::kException);
  EXPECT_EQ(failure->cell, 3u);
  EXPECT_EQ(failure->seed, 42u);
  EXPECT_EQ(failure->message, "boom");
}

// Without a timeout the watchdog is disarmed; the failure still reports how
// long the body ran.
TEST(SupervisorTest, FailureElapsedTimeNeedsNoTimeout) {
  const auto failure = RunSupervised(5, 1, 0.0, [](Watchdog& dog) {
    EXPECT_FALSE(dog.armed());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    throw std::runtime_error("boom");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kException);
  EXPECT_GE(failure->elapsed_ms, 5.0);
}

TEST(SupervisorTest, InvariantViolationMapsToItsTaxonomy) {
  const auto failure = RunSupervised(0, 1, 0.0, [](Watchdog&) {
    throw InvariantViolation("heap order broken");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kInvariantViolation);
}

TEST(SupervisorTest, DeadlineMapsToTimeout) {
  const auto failure = RunSupervised(0, 1, 1.0, [](Watchdog& dog) {
    EXPECT_TRUE(dog.armed());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dog.Check();  // cooperative poll, as the sliced lab run does
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kTimeout);
  EXPECT_GE(failure->elapsed_ms, 1.0);
}

TEST(SupervisorTest, DiagnoseHookRunsOnceOnFinalFailure) {
  int diagnosed = 0;
  const auto failure = RunSupervised(
      5, 9, 0.0, [](Watchdog&) { throw InvariantViolation("ready queue torn"); },
      [&](CellFailure& f) {
        ++diagnosed;
        f.diagnostics.push_back("black-box tail line");
      });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(diagnosed, 1);
  ASSERT_EQ(failure->diagnostics.size(), 1u);

  const std::string rendered = failure->Render();
  EXPECT_NE(rendered.find("cell 5 seed 9 failed [invariant_violation] ("), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("): ready queue torn"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("| black-box tail line"), std::string::npos);
}

TEST(SupervisorTest, DiagnoseHookSkipsSuccess) {
  int diagnosed = 0;
  const auto failure =
      RunSupervised(0, 0, 0.0, [](Watchdog&) {}, [&](CellFailure&) { ++diagnosed; });
  EXPECT_FALSE(failure.has_value());
  EXPECT_EQ(diagnosed, 0);
}

TEST(SupervisorTest, NonStandardExceptionIsStillCaptured) {
  const auto failure = RunSupervised(0, 0, 0.0, [](Watchdog&) { throw 42; });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kException);
  EXPECT_EQ(failure->message, "non-standard exception");
}

}  // namespace
}  // namespace wdmlat::runtime
