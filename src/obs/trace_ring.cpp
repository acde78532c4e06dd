#include "obs/trace_ring.hpp"

namespace paracosm::obs {

TraceRegistry& TraceRegistry::instance() {
  static TraceRegistry registry;
  return registry;
}

TraceRegistry::Entry* TraceRegistry::entry_locked() {
  // The registry is a process singleton, so one per-thread cache is enough.
  static thread_local Entry* t_entry = nullptr;
  if (t_entry != nullptr) return t_entry;
  auto entry = std::make_unique<Entry>();
  entry->tid = static_cast<std::uint32_t>(entries_.size());
  t_entry = entry.get();
  entries_.push_back(std::move(entry));
  return t_entry;
}

TraceRing& TraceRegistry::ring() {
  // Cached ring pointer: one TLS load on the steady-state path. The ring is
  // allocated here, at the thread's first recorded event, with the capacity
  // in force now; naming a thread allocates none.
  static thread_local TraceRing* t_ring = nullptr;
  if (t_ring != nullptr) return *t_ring;
  const std::lock_guard<std::mutex> lock(m_);
  Entry* entry = entry_locked();
  entry->ring = std::make_unique<TraceRing>(ring_capacity_);
  t_ring = entry->ring.get();
  return *t_ring;
}

void TraceRegistry::set_thread_name(const std::string& name) {
  TraceRegistry& reg = instance();
  const std::lock_guard<std::mutex> lock(reg.m_);
  reg.entry_locked()->name = name;
}

void TraceRegistry::set_ring_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(m_);
  ring_capacity_ = capacity;
}

std::vector<RingSnapshot> TraceRegistry::collect() const {
  const std::lock_guard<std::mutex> lock(m_);
  std::vector<RingSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    RingSnapshot snap;
    snap.tid = entry->tid;
    snap.name = entry->name;
    if (entry->ring) {  // a named thread that never recorded is an empty lane
      entry->ring->snapshot(snap.events);
      snap.pushed = entry->ring->pushed();
      snap.dropped = entry->ring->dropped();
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void TraceRegistry::clear() {
  const std::lock_guard<std::mutex> lock(m_);
  for (const auto& entry : entries_)
    if (entry->ring) entry->ring->clear();
}

}  // namespace paracosm::obs
