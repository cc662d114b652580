// Small-buffer-optimized move-only callable: the one callable type of the
// simulation hot path.
//
// The engine schedules and fires hundreds of millions of events per
// wall-clock minute, and every layer above it (dispatcher frames, thread
// continuations, DPC routines, ISRs, IRP completions, device and workload
// callbacks) runs one or more callables per simulated event. A heap
// allocation per callable, or virtual dispatch through a copyable wrapper we
// never copy, would dominate that path. InplaceFunction<R(Args...)> stores up
// to kInlineSize bytes of capture in-line (enough for every dispatcher lambda
// — sim::Timer static_asserts it for every timer callable) and
// falls back to the heap only for oversized captures, so steady-state
// scheduling performs zero allocations. InplaceCallback is the nullary form
// the engine stores.

#ifndef SRC_SIM_INPLACE_CALLBACK_H_
#define SRC_SIM_INPLACE_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wdmlat::sim {

template <typename Signature>
class InplaceFunction;

template <typename R, typename... Args>
class InplaceFunction<R(Args...)> {
 public:
  // Sized for the engine's clients: dispatcher completions capture
  // {this, frame*}, device models and drivers a handful of pointers/integers.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  template <typename F>
  static constexpr bool kFitsInline = sizeof(std::decay_t<F>) <= kInlineSize &&
                                      alignof(std::decay_t<F>) <= kInlineAlign &&
                                      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  // Destroy the current callable (if any) and construct `f` in place —
  // the zero-relocation path the engine uses to build a callback directly
  // inside its pool slot.
  template <typename F>
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, InplaceFunction>) {
      MoveFrom(f);
    } else {
      Construct(std::forward<F>(f));
    }
  }

  InplaceFunction(InplaceFunction&& other) noexcept { MoveFrom(other); }
  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      MoveFrom(other);
    }
    return *this;
  }
  InplaceFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;
  ~InplaceFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Destroy the held callable (releasing captured state) without invoking it.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Precondition: non-empty. The callable stays held (and may be invoked
  // again); callers that need captured state released move the callable out
  // first or reset() afterwards.
  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static R Call(Fn& fn, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      fn(std::forward<Args>(args)...);
    } else {
      return fn(std::forward<Args>(args)...);
    }
  }

  template <typename Fn>
  struct InlineOps {
    static Fn* Ptr(void* storage) { return std::launder(reinterpret_cast<Fn*>(storage)); }
    static R Invoke(void* storage, Args&&... args) {
      return Call(*Ptr(storage), std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      Fn* from = Ptr(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* storage) { Ptr(storage)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Ptr(void* storage) { return *reinterpret_cast<Fn**>(storage); }
    static R Invoke(void* storage, Args&&... args) {
      return Call(*Ptr(storage), std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      *reinterpret_cast<Fn**>(dst) = Ptr(src);  // pointer steal; src is dropped
    }
    static void Destroy(void* storage) { delete Ptr(storage); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  void MoveFrom(InplaceFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

using InplaceCallback = InplaceFunction<void()>;

}  // namespace wdmlat::sim

#endif  // SRC_SIM_INPLACE_CALLBACK_H_
