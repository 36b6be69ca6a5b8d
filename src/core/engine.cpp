#include "core/engine.hpp"

namespace padico::core {

void Engine::publish_queue_gauges() noexcept {
  pending_gauge_->set(static_cast<std::int64_t>(queue_.size()));
  ring_gauge_->set(static_cast<std::int64_t>(queue_.ring_size()));
  overflow_gauge_->set(static_cast<std::int64_t>(queue_.overflow_size()));
  buckets_gauge_->set(static_cast<std::int64_t>(queue_.occupied_buckets()));
}

namespace {

/// Frees a node once its closure has run, also when it throws.
struct Release {
  EventQueue& queue;
  std::uint32_t node;
  ~Release() { queue.release(node); }
};

}  // namespace

bool Engine::step() {
  SimTime t = 0;
  const std::uint32_t node = queue_.pop(t);
  if (node == EventQueue::kNone) return false;
  now_ = t;
  ++processed_;
  events_counter_->add();
  Release release{queue_, node};
  queue_.fn(node)();
  return true;
}

void Engine::run_parked(std::uint32_t handle) {
  Release release{queue_, handle};
  queue_.fn(handle)();
}

std::size_t Engine::run_until_idle() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace padico::core
