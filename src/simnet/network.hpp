// Simulated networks.
//
// A Network is one shared medium (SAN, LAN, WAN link) described by a
// LinkModel.  Timing model (see DESIGN.md):
//
//   * each attached node has one NIC which serialises its outgoing
//     messages FIFO (a message starts transmitting when the previous
//     one from the same node has finished),
//   * a message of `s` payload bytes occupies the sender's NIC for
//     tx_time(s) = ceil((s + frames * overhead) * 1e9 / bytes_per_sec),
//   * it is delivered to the destination NIC tx_time + latency after
//     transmission starts,
//   * on lossy links every frame draws its own independent loss with
//     probability `loss_rate` from the network's seeded RNG; the
//     surviving *prefix* (the bytes before the first lost frame) is
//     delivered, so a multi-frame message truncates rather than
//     vanishing and realized loss converges to loss_rate for large
//     transfers.  Exactly frames_for(size) draws happen per send, in
//     frame order, so the draw sequence depends only on the sequence
//     of message sizes (deterministic across runs).
//
// A Fabric owns the set of networks sharing one engine — the piece the
// benches instantiate directly when they bypass Grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/engine.hpp"
#include "core/result.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "simnet/link_model.hpp"

namespace padico::simnet {

class Network {
 public:
  /// Called on the destination node when a message arrives.
  using RecvFn = std::function<void(core::NodeId src, core::Bytes payload)>;

  Network(core::Engine& engine, LinkModel model, std::uint64_t seed);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const LinkModel& model() const noexcept { return model_; }
  core::Engine& engine() const noexcept { return *engine_; }

  void attach(core::NodeId node);
  bool attached(core::NodeId node) const;

  /// Remove `node` from the medium at runtime (churn: node leave).
  /// Messages already on the wire towards it are dropped on delivery,
  /// and new sends involving it fail unreachable — the same path an
  /// unattached node always took, so nothing above needs a special
  /// case.  A no-op for nodes never attached.
  void detach(core::NodeId node);

  /// Administrative link state (churn: link flap).  While down, every
  /// send fails unreachable; messages already on the wire still
  /// deliver (they left the NIC before the fault).
  void set_up(bool up) noexcept { up_ = up; }
  bool up() const noexcept { return up_; }

  /// Swap the link profile at runtime (churn: loss bursts, WAN
  /// brownouts).  Endpoints, NIC backlogs, the loss RNG stream and the
  /// observability identity (counters / trace span keyed by the
  /// ORIGINAL profile name) all survive the swap, so a temporary
  /// degradation is restore(old_model) away and metrics stay in one
  /// series.
  void set_model(LinkModel model) { model_ = std::move(model); }

  /// Install the receive callback for `node` (one per node; drivers own
  /// demultiplexing).  Messages arriving with no receiver are dropped.
  void set_receiver(core::NodeId node, RecvFn fn);

  /// Number of wire frames a payload of `bytes` occupies.
  std::size_t frames_for(std::size_t bytes) const;

  /// NIC occupancy time for a payload of `bytes` (includes per-frame
  /// overhead bytes).
  core::Duration tx_time(std::size_t bytes) const;

  /// Transmit `payload` from `src` to `dst`.  Returns the arrival
  /// instant on success (even if the message is then lost on the wire);
  /// fails with Status::unreachable if either end is not attached.
  core::Result<core::SimTime> send(core::NodeId src, core::NodeId dst,
                                   core::Bytes payload);

  /// Time until `node`'s NIC FIFO drains (0 when idle) — the transmit
  /// backlog adaptive layers (AdOC) sense to pick a compression level.
  core::Duration tx_backlog(core::NodeId node) const;

  std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  /// Messages whose FIRST frame was lost (nothing delivered at all).
  std::uint64_t messages_dropped() const noexcept { return messages_dropped_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  /// Individual wire frames lost to the loss model (a truncated
  /// delivery counts its lost tail frames here, not in
  /// messages_dropped()).
  std::uint64_t frames_dropped() const noexcept { return frames_dropped_; }

 private:
  struct Endpoint {
    RecvFn recv;
    core::SimTime tx_busy_until = 0;
    bool attached = false;
  };

  /// Endpoint slot for `node`, or nullptr when not attached.  Node ids
  /// on one medium are dense (clusters are built with consecutive
  /// ids), so the map became a direct-indexed vector offset by the
  /// smallest attached id — every send does two O(1) loads where it
  /// did two tree walks.
  Endpoint* endpoint(core::NodeId node) noexcept {
    if (node < base_ || node - base_ >= endpoints_.size()) return nullptr;
    Endpoint& e = endpoints_[node - base_];
    return e.attached ? &e : nullptr;
  }
  const Endpoint* endpoint(core::NodeId node) const noexcept {
    return const_cast<Network*>(this)->endpoint(node);
  }

  core::Engine* engine_;
  LinkModel model_;
  core::Rng rng_;
  bool up_ = true;
  std::vector<Endpoint> endpoints_;
  core::NodeId base_ = 0;  // id of endpoints_[0]
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  // obs instrumentation, keyed by the profile name so a multi-network
  // fabric keeps its media apart ("net.SAN.msgs", "net.WAN.bytes"...).
  obs::Counter* obs_msgs_;
  obs::Counter* obs_bytes_;
  obs::Counter* obs_dropped_;
  const char* trace_name_;  // interned "net.<profile>" span name
};

/// The collection of simulated networks driven by one engine.
class Fabric {
 public:
  explicit Fabric(core::Engine& engine) : engine_(&engine) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  core::Engine& engine() const noexcept { return *engine_; }

  NetId add_network(const LinkModel& model);

  void attach(NetId net, core::NodeId node) { network(net).attach(node); }

  Network& network(NetId net) { return *networks_.at(net); }
  const Network& network(NetId net) const { return *networks_.at(net); }
  std::size_t network_count() const noexcept { return networks_.size(); }

 private:
  core::Engine* engine_;
  std::vector<std::unique_ptr<Network>> networks_;
};

}  // namespace padico::simnet
