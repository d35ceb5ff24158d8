// Live-heap accounting behind mem_peak_mb. This binary's global
// operator new and delete forward to malloc and free unchanged and
// count the usable size of every block, so the benchmark sees the peak
// of the bytes the program holds. Resident memory on top of that also
// depends on which of glibc's per-thread arenas the blocks landed in,
// which changes from process to process.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace perfbench {
namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted(void* p) {
  if (p == nullptr) return nullptr;
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

void* allocate(std::size_t n) {
  void* p = counted(std::malloc(n == 0 ? 1 : n));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate(std::size_t n, std::align_val_t align) {
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return counted(p);
}

}  // namespace

std::int64_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::int64_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
void reset_heap_peak() { g_peak.store(heap_live_bytes(), std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::allocate(n); }
void* operator new[](std::size_t n) { return perfbench::allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return perfbench::allocate(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return perfbench::allocate(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted(std::malloc(n == 0 ? 1 : n));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted(std::malloc(n == 0 ? 1 : n));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n, a);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return operator new(n, a, std::nothrow);
}

void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { perfbench::release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { perfbench::release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
