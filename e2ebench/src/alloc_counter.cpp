// Counting global allocator for the traced binary only: every operator new
// bumps one relaxed counter, so the traced run can report allocations per
// message at steady state. The timed binary does not link this file.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace e2e {
std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
bool AllocCountingEnabled() { return true; }
}  // namespace e2e

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
