// AdapterDriver: the shared base of the access methods stacked on a
// base driver — "pstream" (parallel streams, paper §5), "vrp" (§5) and
// "adoc" (§3.2).  It owns the rendezvous; an adapter keeps only its
// connect protocol and its hello parser (`on_hello`).
//
//   * listen(P) claims the base port `P ^ mask` (each adapter passes
//     its constant mask).  A base port that already serves something
//     else makes it throw std::logic_error; re-listening P updates the
//     handler.  unlisten(P) releases the base port only if P was ours.
//   * Every accepted base link is staged in datagram mode.  On its
//     first base message the listener is looked up (gone: the link is
//     dropped), then `on_hello` runs; false counts one malformed hello.
//   * A staged link is never destroyed inside its own delivery: its
//     entry is marked done and the next base accept sweeps it.
//   * Closures handed to the base driver or the engine check the
//     adapter's liveness token.
//
// The VLink owns the adapter; the adapter borrows its base (registered
// earlier on the same VLink, so it outlives every use on the event
// loop but possibly not the teardown — drivers die in registration
// order, so no adapter destructor touches the base).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/host.hpp"
#include "vlink/driver.hpp"

namespace padico::vlink {

class AdapterDriver : public Driver {
 public:
  void listen(core::Port port, AcceptFn on_accept) override;
  void unlisten(core::Port port) override;
  bool listening(core::Port port) const override {
    return listeners_.count(port) != 0;
  }
  bool can_listen(core::Port port) const override {
    return listening(port) || !base_->listening(rendezvous_port(port));
  }
  bool reaches(core::NodeId node) const override {
    return base_->reaches(node);
  }

  Driver& base() const noexcept { return *base_; }

  /// Establishment messages that failed to parse or matched no
  /// listener / group (their link is dropped).
  std::uint64_t malformed_hellos() const noexcept { return malformed_hellos_; }

 protected:
  AdapterDriver(core::Host& host, Driver& base, std::string name,
                core::Port port_mask);

  core::Host& host() const noexcept { return *host_; }
  core::Port rendezvous_port(core::Port port) const noexcept {
    return static_cast<core::Port>(port ^ port_mask_);
  }
  std::weak_ptr<char> alive() const noexcept { return alive_; }
  void count_malformed_hello() noexcept { ++malformed_hellos_; }

  /// `base` was accepted on the rendezvous of logical port `port` and
  /// `hello` is its first message (this runs inside its delivery).
  /// Move `base` out to keep it; return false for a malformed hello.
  virtual bool on_hello(std::unique_ptr<Link>& base, core::Port port,
                        core::ByteView hello, const AcceptFn& on_accept) = 0;

 private:
  struct Staged {
    std::unique_ptr<Link> link;
    core::Port port = 0;
    bool done = false;
  };

  void on_first_message(std::uint64_t key, core::ByteView hello);

  core::Host* host_;
  Driver* base_;
  core::Port port_mask_;
  std::uint64_t next_stage_key_ = 1;
  std::uint64_t malformed_hellos_ = 0;
  std::map<core::Port, AcceptFn> listeners_;  // by logical port
  std::map<std::uint64_t, Staged> staged_;    // awaiting their hello
  std::shared_ptr<char> alive_ = std::make_shared<char>();
};

}  // namespace padico::vlink
