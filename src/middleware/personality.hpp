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
// (bytes)` run the per-message CPU/copy cost through a serializing
// core::CostClock and return the virtual instant the work completes;
// transports schedule the actual wire activity at that instant.  This
// is the knob the paper's Table 1 spread (Circuit 8.4 us … Java
// 40 us) and Figure 3's marshaler-capped ORB curves come from.
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

/// Per-message CPU cost profile of one middleware implementation.
/// `send/recv_overhead` model the fixed per-message work (protocol
/// headers, syscalls, JNI crossings); `copy_bytes_per_second` models a
/// copying marshaler's per-byte pass over the payload — 0 means the
/// implementation keeps a zero-copy path (omniORB's trick; Mico and
/// ORBacus pay it, which is exactly what caps them in Figure 3).
struct CostModel {
  std::string name;
  core::Duration send_overhead = 0;
  core::Duration recv_overhead = 0;
  std::uint64_t copy_bytes_per_second = 0;

  core::Duration send_cost(std::size_t bytes) const {
    return send_overhead + copy_cost(bytes);
  }
  core::Duration recv_cost(std::size_t bytes) const {
    return recv_overhead + copy_cost(bytes);
  }
  core::Duration copy_cost(std::size_t bytes) const {
    if (copy_bytes_per_second == 0) return 0;
    return core::seconds(1) * bytes / copy_bytes_per_second;
  }
};

class Personality {
 public:
  Personality(const Personality&) = delete;
  Personality& operator=(const Personality&) = delete;

  const std::string& name() const noexcept { return name_; }
  const CostModel& costs() const noexcept { return costs_; }
  core::Engine& engine() const noexcept { return *engine_; }

  /// Charge the per-message send/receive cost for `bytes` of payload
  /// to this personality's serialized CPU; returns the completion
  /// instant to schedule the resulting transport activity at.  Each
  /// charge totals into the registry ("cpu.<name>.ns") and traces as a
  /// personality-category span covering the reserved CPU slice.
  core::SimTime charge_send(std::size_t bytes);
  core::SimTime charge_recv(std::size_t bytes);

 protected:
  Personality(std::string name, CostModel costs, core::Engine& engine);
  ~Personality() = default;

 private:
  core::SimTime charge(core::Duration cost, const char* trace_name,
                       std::uint64_t bytes);

  std::string name_;
  CostModel costs_;
  core::Engine* engine_;
  core::CostClock clock_;
  // obs instrumentation: total virtual CPU charged, and the interned
  // "<name>.send"/"<name>.recv" span names.
  obs::Counter* obs_cpu_ns_;
  const char* trace_send_;
  const char* trace_recv_;
};

}  // namespace padico::middleware
