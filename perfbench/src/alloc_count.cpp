// Counting replacement for the global allocation functions, so
// rip.allocs_per_solve is measured rather than estimated (the same shim
// bench/bench_env.hpp gives the bench binaries). Only a thread-local
// count is kept: a sample taken around one call on one thread is exact
// even while service threads allocate beside it. The library itself is
// untouched; this file must be linked into exactly one program.

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted(std::size_t size) noexcept {
  ++t_allocs;
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned(std::size_t size, std::size_t align) noexcept {
  ++t_allocs;
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}

}  // namespace

std::uint64_t perfbench::thread_allocs() { return t_allocs; }

void* operator new(std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, static_cast<std::size_t>(align));
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
