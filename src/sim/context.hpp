// Sanitizer glue for the fiber scheduler (shard.cpp).
//
// AddressSanitizer tracks one stack per thread; the register-only fiber
// switch (cham_fiber_switch) moves execution to a different stack behind
// its back, so every switch must be announced via the fiber annotations —
// otherwise exception unwinding on a fiber stack (__asan_handle_no_return)
// produces false positives. Fiber stacks come from an mmap slab, not the
// ASan allocator, so the slab unpoisons its chunks before unmapping them.
//
// ThreadSanitizer: we deliberately do NOT announce fiber switches via
// the __tsan_*_fiber API. GCC 12's libtsan fiber support is broken — the
// sync-on-switch Release and ThreadState reuse after __tsan_destroy_fiber
// both SEGV inside the runtime after a handful of fibers (StackDepot hash
// walking a stale shadow stack; reproducible with a 60-line standalone
// probe). Leaving TSan unaware of fibers is semantically right for the
// scheduler anyway: every fiber is pinned to one hosting OS thread (its
// owning shard's worker), so attributing all its accesses to that thread
// models exactly the real happens-before; cross-THREAD races — the only real ones — are still caught via the
// genuine mutex/atomic edges. Define CHAM_TSAN_FIBER_API=1 to re-enable
// the hooks on a fixed libtsan.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define CHAM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CHAM_ASAN_FIBERS 1
#endif
#endif

#if defined(CHAM_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(CHAM_TSAN_FIBER_API) && CHAM_TSAN_FIBER_API
#define CHAM_TSAN_FIBERS 1
#endif

#if defined(CHAM_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace cham::sim::detail {

/// Announce a switch away from the current stack onto [bottom, bottom+size).
/// `save` receives the departing context's fake-stack handle (nullptr when
/// the departing context is about to die).
inline void sanitizer_pre_switch(void** save, const void* bottom,
                                 std::size_t size) {
#if defined(CHAM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(save, bottom, size);
#else
  (void)save;
  (void)bottom;
  (void)size;
#endif
}

/// Complete a switch: `restore` is the handle saved when the now-current
/// context last departed (nullptr on first entry); the out-params receive
/// the bounds of the stack we came from.
inline void sanitizer_post_switch(void* restore, const void** old_bottom,
                                  std::size_t* old_size) {
#if defined(CHAM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(restore, old_bottom, old_size);
#else
  (void)restore;
  (void)old_bottom;
  (void)old_size;
#endif
}

inline void* tsan_make_fiber() {
#if defined(CHAM_TSAN_FIBERS)
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void* tsan_this_fiber() {
#if defined(CHAM_TSAN_FIBERS)
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void tsan_free_fiber(void* fiber) {
#if defined(CHAM_TSAN_FIBERS)
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

/// Clear ASan poisoning left on [addr, addr+size) — the redzones of fiber
/// frames that never returned — before the range is unmapped.
inline void sanitizer_unpoison(const void* addr, std::size_t size) {
#if defined(CHAM_ASAN_FIBERS)
  __asan_unpoison_memory_region(addr, size);
#else
  (void)addr;
  (void)size;
#endif
}

/// Announce the fiber switch about to happen; call immediately before
/// cham_fiber_switch.
inline void tsan_switch(void* target) {
#if defined(CHAM_TSAN_FIBERS)
  if (target != nullptr) __tsan_switch_to_fiber(target, 0);
#else
  (void)target;
#endif
}

}  // namespace cham::sim::detail
