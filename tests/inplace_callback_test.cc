#include "src/sim/inplace_callback.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace wdmlat::sim {
namespace {

TEST(InplaceCallbackTest, DefaultIsEmpty) {
  InplaceCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  InplaceCallback null_cb = nullptr;
  EXPECT_FALSE(static_cast<bool>(null_cb));
}

TEST(InplaceCallbackTest, InvokesInlineLambda) {
  int count = 0;
  InplaceCallback cb = [&count] { ++count; };
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(count, 2);
}

TEST(InplaceCallbackTest, DispatcherSizedCapturesStayInline) {
  // The dispatcher's hottest lambdas capture {this, frame*}; a std::function
  // is 32 bytes on libstdc++. Both must be inline-eligible or the engine hot
  // path regresses to allocating.
  struct Dummy {};
  Dummy* a = nullptr;
  Dummy* b = nullptr;
  auto two_pointers = [a, b] { (void)a, (void)b; };
  static_assert(InplaceCallback::kFitsInline<decltype(two_pointers)>);
  static_assert(InplaceCallback::kFitsInline<std::function<void()>>);
}

TEST(InplaceCallbackTest, MoveTransfersOwnership) {
  int count = 0;
  InplaceCallback a = [&count] { ++count; };
  InplaceCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(count, 1);
  InplaceCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(count, 2);
}

TEST(InplaceCallbackTest, ResetReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  InplaceCallback cb = [token] { (void)*token; };
  EXPECT_EQ(token.use_count(), 2);
  cb.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InplaceCallbackTest, AssignNullptrReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  InplaceCallback cb = [token] { (void)*token; };
  EXPECT_EQ(token.use_count(), 2);
  cb = nullptr;
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceCallbackTest, DestructorReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  {
    InplaceCallback cb = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceCallbackTest, OversizedCaptureTakesHeapFallbackAndWorks) {
  std::array<std::uint8_t, 128> big{};
  big[0] = 1;
  big[127] = 2;
  int sum = 0;
  auto fn = [big, &sum] { sum += big[0] + big[127]; };
  static_assert(!InplaceCallback::kFitsInline<decltype(fn)>);
  InplaceCallback cb = fn;
  cb();
  EXPECT_EQ(sum, 3);
  // Moving a heap-fallback callback steals the pointer; both invoke and
  // destroy must keep working through the new owner.
  InplaceCallback moved = std::move(cb);
  moved();
  EXPECT_EQ(sum, 6);
}

TEST(InplaceCallbackTest, HeapFallbackReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  std::array<std::uint8_t, 128> big{};
  {
    InplaceCallback cb = [token, big] { (void)*token, (void)big[0]; };
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceCallbackTest, MoveAssignmentDestroysPreviousCallable) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  InplaceCallback cb = [first] { (void)*first; };
  cb = InplaceCallback([second] { (void)*second; });
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 2);
}

TEST(InplaceCallbackTest, EmplaceReplacesCallableWithoutRelocation) {
  auto first = std::make_shared<int>(1);
  InplaceCallback cb = [first] { (void)*first; };
  int count = 0;
  cb.emplace([&count] { ++count; });
  EXPECT_EQ(first.use_count(), 1);
  cb();
  EXPECT_EQ(count, 1);
}

TEST(InplaceCallbackTest, ForwardedStdFunctionIsCopiedNotConsumed) {
  int count = 0;
  std::function<void()> fn = [&count] { ++count; };
  InplaceCallback cb = fn;  // lvalue: must copy, leaving fn intact
  cb();
  fn();
  EXPECT_EQ(count, 2);
}

TEST(InplaceFunctionTest, ReturnsTheCallablesValue) {
  InplaceFunction<int(int)> twice = [](int x) { return 2 * x; };
  EXPECT_EQ(twice(21), 42);
  // A void signature discards whatever the callable returns.
  int calls = 0;
  InplaceCallback cb = [&calls] { return ++calls; };
  cb();
  EXPECT_EQ(calls, 1);
}

TEST(InplaceFunctionTest, ForwardsArgumentsByReference) {
  InplaceFunction<void(std::vector<int>&, int)> append = [](std::vector<int>& v, int x) {
    v.push_back(x);
  };
  std::vector<int> values;
  append(values, 3);
  append(values, 4);
  EXPECT_EQ(values, (std::vector<int>{3, 4}));
  // A const reference reaches the callable as the caller's object, not a copy.
  InplaceFunction<const int*(const int&)> address = [](const int& x) { return &x; };
  const int value = 7;
  EXPECT_EQ(address(value), &value);
  // A by-value move-only argument is moved through.
  InplaceFunction<int(std::unique_ptr<int>)> consume = [](std::unique_ptr<int> p) { return *p; };
  EXPECT_EQ(consume(std::make_unique<int>(9)), 9);
}

TEST(InplaceFunctionTest, HoldsAMoveOnlyCapture) {
  auto owned = std::make_unique<int>(5);
  auto fn = [owned = std::move(owned)](int x) { return *owned + x; };
  static_assert(InplaceFunction<int(int)>::kFitsInline<decltype(fn)>);
  InplaceFunction<int(int)> add = std::move(fn);
  EXPECT_EQ(add(1), 6);
  InplaceFunction<int(int)> moved = std::move(add);
  EXPECT_FALSE(static_cast<bool>(add));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved(2), 7);
}

TEST(InplaceFunctionTest, OversizedCaptureWithArgumentsTakesHeapFallback) {
  std::array<std::uint8_t, 128> big{};
  big[3] = 40;
  auto token = std::make_shared<int>(0);
  auto fn = [big, token](std::size_t i, int& out) {
    out = big[i];
    return big[i] + 2;
  };
  static_assert(!InplaceFunction<int(std::size_t, int&)>::kFitsInline<decltype(fn)>);
  {
    InplaceFunction<int(std::size_t, int&)> f = std::move(fn);
    int out = 0;
    EXPECT_EQ(f(3, out), 42);
    EXPECT_EQ(out, 40);
    InplaceFunction<int(std::size_t, int&)> moved = std::move(f);
    out = 0;
    EXPECT_EQ(moved(3, out), 42);
    EXPECT_EQ(out, 40);
    EXPECT_EQ(token.use_count(), 2);  // the heap copy, moved out of `fn`
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace wdmlat::sim
