#include "util/hugepage.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace paracosm::util {

namespace {
constexpr std::size_t kHugepageThreshold = std::size_t{1} << 20;  // 1 MiB
}  // namespace

bool advise_hugepages(void* ptr, std::size_t bytes) noexcept {
#if defined(MADV_HUGEPAGE)
  if (ptr == nullptr || bytes < kHugepageThreshold) return false;
  static const long ps_raw = ::sysconf(_SC_PAGESIZE);
  const auto ps = static_cast<std::uintptr_t>(ps_raw > 0 ? ps_raw : 4096);
  // Largest page-aligned subrange: madvise demands page alignment, and
  // shrinking inward never touches memory outside the block.
  auto lo = reinterpret_cast<std::uintptr_t>(ptr);
  auto hi = lo + bytes;
  lo = (lo + ps - 1) & ~(ps - 1);
  hi &= ~(ps - 1);
  if (hi <= lo) return false;
  return ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE) == 0;
#else
  (void)ptr;
  (void)bytes;
  return false;
#endif
}

}  // namespace paracosm::util
