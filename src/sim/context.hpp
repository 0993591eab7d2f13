// Sanitizer glue for the fiber scheduler (shard.cpp).
//
// AddressSanitizer tracks one stack per thread; the register-only fiber
// switch (cham_fiber_switch) moves execution to a different stack behind
// its back, so every switch must be announced via the fiber annotations —
// otherwise exception unwinding on a fiber stack (__asan_handle_no_return)
// produces false positives. Fiber stacks come from an mmap slab, not the
// ASan allocator, so the slab unpoisons its chunks before unmapping them.
//
// ThreadSanitizer is deliberately not told about fiber switches (no
// __tsan_*_fiber calls). GCC 12's libtsan fiber support SEGVs inside its
// own runtime after a handful of create/switch/destroy cycles. Leaving TSan
// unaware of fibers is also semantically right for this scheduler: every
// fiber is pinned to one hosting OS thread (its owning shard's worker), so
// attributing its accesses to that thread models the real happens-before,
// and cross-thread races — the only real ones — are still caught through
// the genuine mutex and atomic edges.
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

}  // namespace cham::sim::detail
