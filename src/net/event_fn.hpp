// Move-only callable for simulation events.
//
// Two reasons this exists instead of std::function<void()>:
//   * Event callbacks now carry move-only state — a Datagram's pooled
//     WireBuffer payload moves from the encoder into the deferred delivery
//     lambda without a copy, and std::function requires copyable targets.
//   * Delivery/timeout lambdas (~90 bytes of captures) blow past
//     std::function's small-buffer, so every scheduled event used to heap-
//     allocate. The inline buffer here is sized for the datapath's largest
//     hot-path lambda, making event scheduling allocation-free.
//
// Only what the event queue needs is implemented: construct from a
// callable, move, call, null-check, null-assign. Dispatch is a static ops
// table (one per callable type), not a virtual base, so inline targets
// need no heap at all.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace recwild::net {

class EventFn {
  // Sized for Network's deferred-delivery lambda (handler shared_ptr +
  // Datagram + node ids) with headroom; bigger or throwing-move callables
  // fall back to the heap transparently.
  static constexpr std::size_t kInlineSize = 112;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineSize && alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

 public:
  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(*-explicit-*)

  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, EventFn> &&
             std::invocable<std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(*-explicit-*)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_))
          Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  EventFn(EventFn&& o) noexcept { steal(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Shallow-const like std::function: calling through a const EventFn
  /// invokes the (possibly mutable) target.
  void operator()() const { ops_->call(const_cast<std::byte*>(storage_)); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Callables that did not fit inline and went to the heap, counted over
  /// all threads since start. The simulator's hot paths keep this at zero.
  static std::uint64_t heap_fallbacks() noexcept {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<std::uint64_t> heap_fallbacks_{0};

  struct Ops {
    void (*call)(void* storage);
    /// Move-constructs into raw `dst` storage and destroys the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* dst, void* src) noexcept {
        Fn* f = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* s) noexcept { delete *static_cast<Fn**>(s); },
  };

  void steal(EventFn& o) noexcept {
    if (o.ops_ != nullptr) {
      o.ops_->relocate(storage_, o.storage_);
      ops_ = o.ops_;
      o.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) std::byte storage_[kInlineSize];
};

}  // namespace recwild::net
