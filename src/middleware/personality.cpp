#include "middleware/personality.hpp"

#include <utility>

namespace padico::middleware {

Personality::Personality(std::string name, core::CostModel costs,
                         core::Engine& engine)
    : name_(std::move(name)), costs_(std::move(costs)), engine_(&engine) {
  obs_cpu_ns_ = &engine.obs().counter("cpu." + name_ + ".ns");
  trace_send_ = engine.tracer().intern(name_ + ".send");
  trace_recv_ = engine.tracer().intern(name_ + ".recv");
}

core::SimTime Personality::charge(core::Duration cost, const char* trace_name,
                                  std::uint64_t bytes) {
  // The span covers the CPU slice the clock actually reserves, which
  // starts only once the previous charge has drained.
  const core::SimTime done = clock_.reserve(engine_->now(), cost);
  obs_cpu_ns_->add(static_cast<std::uint64_t>(cost));
  engine_->tracer().complete(obs::Cat::personality, trace_name, done - cost,
                             cost, 0, bytes);
  return done;
}

core::SimTime Personality::charge_send(std::size_t bytes) {
  return charge(costs_.send_cost(bytes), trace_send_, bytes);
}

core::SimTime Personality::charge_recv(std::size_t bytes) {
  return charge(costs_.recv_cost(bytes), trace_recv_, bytes);
}

}  // namespace padico::middleware
