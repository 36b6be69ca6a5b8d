// Personality: the shared base of the middleware layer (paper §3 —
// "middleware systems run unmodified over PadicoTM").
//
// Every personality of the stack (MPI, CORBA ORBs, Java sockets, the
// JVM runtime) sits on top of the core without registering with it:
// it borrows the Engine and whatever transport it was built on: a
// circuit endpoint, or vlink::Links — the socket shape — opened
// through the node's VLink and its chooser.  What they all share is a
// place to charge the CPU the personality itself burns per message
// (marshalling, copies, JNI crossings): `charge_send/charge_recv
// (bytes)` price the message with the personality's core::CostModel,
// run the cost through a serializing core::CostClock (both in
// core/cost_clock.hpp) and return the virtual instant the work
// completes; transports schedule the actual wire activity at that
// instant.  This is the knob the paper's Table 1 spread (Circuit
// 8.4 us … Java 40 us) and Figure 3's marshaler-capped ORB curves come
// from.
//
// Units / ownership / determinism: costs are virtual nanoseconds.  A
// Personality borrows its Engine; the concrete personality must
// outlive any transport activity it scheduled (closures guard with
// liveness tokens).  The CostClock is plain arithmetic, so charges are
// bit-identical across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/cost_clock.hpp"
#include "core/engine.hpp"
#include "core/time.hpp"

namespace padico::middleware {

class Personality {
 public:
  Personality(const Personality&) = delete;
  Personality& operator=(const Personality&) = delete;

  const std::string& name() const noexcept { return name_; }
  core::Engine& engine() const noexcept { return *engine_; }

  /// Charge the per-message send/receive cost for `bytes` of payload
  /// to this personality's serialized CPU; returns the completion
  /// instant to schedule the resulting transport activity at.  Each
  /// charge totals into the registry ("cpu.<name>.ns") and traces as a
  /// personality-category span covering the reserved CPU slice.
  core::SimTime charge_send(std::size_t bytes);
  core::SimTime charge_recv(std::size_t bytes);

 protected:
  Personality(std::string name, core::CostModel costs, core::Engine& engine);
  ~Personality() = default;

 private:
  core::SimTime charge(core::Duration cost, const char* trace_name,
                       std::uint64_t bytes);

  std::string name_;
  core::CostModel costs_;
  core::Engine* engine_;
  core::CostClock clock_;
  // obs instrumentation: total virtual CPU charged, and the interned
  // "<name>.send"/"<name>.recv" span names.
  obs::Counter* obs_cpu_ns_;
  const char* trace_send_;
  const char* trace_recv_;
};

}  // namespace padico::middleware
