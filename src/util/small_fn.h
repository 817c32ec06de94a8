// SmallFn: a move-only `void()` callable with small-buffer optimization.
//
// std::function heap-allocates most capturing lambdas (libstdc++'s inline
// buffer is 16 bytes), which made every scheduled event pay a malloc/free
// pair.  SmallFn stores closures up to kInlineSize bytes inline - sized so
// the simulator's timer closures never spill - and falls back to the heap
// only for oversized captures.
//
// Move-only by design: the event queue and timer heap move callbacks in and
// out exactly once, and closures capturing move-only state stay legal.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mtds::util {

class SmallFn {
 public:
  // 32 bytes fits the largest closure the simulator schedules: the
  // std::function<void()> that runtime::SimRuntime::after hands over for
  // every engine timer (sim_runtime.h asserts it fits).  The rest capture
  // `this` plus an index.  Messages are records in sim::Network's pools,
  // not closures, so no message rides this buffer.  At 32 bytes an
  // EventQueue slab slot is one 64-byte cache line; raising it grows every
  // slot, so measure before touching.
  static constexpr std::size_t kInlineSize = 32;

  SmallFn() noexcept = default;

  // mtds:no-alloc
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every schedule/at/after call site
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      // mtds:alloc-ok(oversized-closure spill; engine callbacks fit the 32-byte buffer and take the constexpr inline branch - alloc_test would count this new if one grew)
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  // Invoke-and-discard in one virtual dispatch: the event queue's drain
  // loop calls each callback exactly once and immediately drops it, so
  // fusing invoke + destroy halves the indirect calls on that path.
  // Leaves *this empty; requires a target.
  void invoke_once() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-construct into dst from src, then destroy src's object.
    // nullptr means the target is trivially relocatable and moves are a
    // plain buffer copy - the hot path (event queue relocating callbacks
    // in and out of slab slots) then skips the indirect call entirely.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* buf) noexcept;
    // invoke() followed by destroy(), one dispatch (see invoke_once()).
    void (*invoke_destroy)(void* buf);
  };

  void relocate_from(SmallFn& other) noexcept {
    // Trivially relocatable targets copy the whole inline buffer: a fixed
    // kInlineSize-byte memcpy compiles to two vector moves, cheaper and
    // more predictable than dispatching on the real capture size.  The heap
    // fallback stores only a pointer in the buffer, so it takes this path
    // too.
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, other.buf_, kInlineSize);
    } else {
      ops_->relocate(other.buf_, buf_);
    }
    other.ops_ = nullptr;
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* buf) { (*std::launder(static_cast<Fn*>(buf)))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* src, void* dst) noexcept {
              Fn* f = std::launder(static_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*f));
              f->~Fn();
            },
      [](void* buf) noexcept { std::launder(static_cast<Fn*>(buf))->~Fn(); },
      [](void* buf) {
        Fn* f = std::launder(static_cast<Fn*>(buf));
        (*f)();
        f->~Fn();
      },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* buf) { (**std::launder(static_cast<Fn**>(buf)))(); },
      nullptr,  // the buffer holds a raw pointer: memcpy relocates it
      [](void* buf) noexcept { delete *std::launder(static_cast<Fn**>(buf)); },
      [](void* buf) {
        Fn* f = *std::launder(static_cast<Fn**>(buf));
        (*f)();
        delete f;
      },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace mtds::util
