// Best-effort transparent-hugepage advice for the engine's large blocks.
//
// The only kernel interface used is madvise(2, MADV_HUGEPAGE). It is advice:
// the call returns whether it took effect, and failure is always safe — the
// memory stays valid, just backed by base pages. Where MADV_HUGEPAGE does not
// exist the function is a no-op returning false, so callers need no #if.
//
// Call sites: the data graph's vertex table, the candidate-index columns,
// the per-worker search-scratch stamps and the per-worker match buffers.
// Blocks under 1 MiB are left alone — they live happily in whatever the
// allocator chose, and advising them would only fragment the VMA list.
#pragma once

#include <cstddef>

namespace paracosm::util {

/// Advise transparent hugepages for the page-aligned inner range of
/// [ptr, ptr+bytes) when bytes >= 1 MiB. Returns true if the advice was
/// applied.
bool advise_hugepages(void* ptr, std::size_t bytes) noexcept;

}  // namespace paracosm::util
