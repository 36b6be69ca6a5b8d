// NetAccess: the per-node access point of the padico::net layer.
//
// Every network event of a node funnels through its NetAccess — the
// MadIO side and the circuit layer post SAN events, IP drivers post
// socket events — and the embedded Arbitration decides when each one
// runs (see arbitration.hpp).  Upper layers reach the policy knobs
// through `node.arbitration()` on the Grid.
//
// Units / ownership / determinism: dispatch costs are virtual
// nanoseconds charged by the Arbitration.  A NetAccess borrows its
// Host (the Grid owns both, one NetAccess per node) and owns its
// Arbitration.  A posted callable is built once, in a parked engine
// event node, and runs there in FIFO order per substrate under the
// weighted pump — never inline and never reordered — so dispatch
// traces are bit-identical across runs.
#pragma once

#include <utility>

#include "core/host.hpp"
#include "net/arbitration.hpp"

namespace padico::net {

class NetAccess {
 public:
  explicit NetAccess(core::Host& host)
      : host_(&host), arbitration_(host.engine()) {}
  NetAccess(const NetAccess&) = delete;
  NetAccess& operator=(const NetAccess&) = delete;

  core::Host& host() const noexcept { return *host_; }
  Arbitration& arbitration() noexcept { return arbitration_; }

  /// Post a SAN-side (MadIO) event for arbitrated dispatch.
  template <typename F>
  void post_mad(F&& fn) {
    arbitration_.enqueue(Substrate::mad, std::forward<F>(fn));
  }

  /// Post an IP-side (SysIO) event for arbitrated dispatch.
  template <typename F>
  void post_sys(F&& fn) {
    arbitration_.enqueue(Substrate::sys, std::forward<F>(fn));
  }

 private:
  core::Host* host_;
  Arbitration arbitration_;
};

}  // namespace padico::net
