#include "partition/workspace.hpp"

#include <atomic>

namespace sc::partition {

namespace workspace {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool set_enabled(bool enabled) { return g_enabled.exchange(enabled, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace workspace

namespace coarsen_ws {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool set_enabled(bool enabled) { return g_enabled.exchange(enabled, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace coarsen_ws

PartitionWorkspace::Level& PartitionWorkspace::level(std::size_t i) {
  // Amortized lazy growth: a level is heap-allocated the first time that
  // depth is reached and recycled for every later partition call.
  while (levels.size() <= i) levels.push_back(std::make_unique<Level>());  // sc-lint: allow(transitive-alloc)
  return *levels[i];
}

BisectFrame& PartitionWorkspace::frame(std::size_t depth) {
  // Amortized lazy growth, as in level() above.
  while (frames.size() <= depth) frames.push_back(std::make_unique<BisectFrame>());  // sc-lint: allow(transitive-alloc)
  return *frames[depth];
}

PartitionWorkspace& PartitionWorkspace::local() {
  thread_local PartitionWorkspace ws;
  return ws;
}

}  // namespace sc::partition
