// Grid: declarative topology builder for a simulated deployment.
//
//   gr::Grid grid;
//   grid.add_nodes(2);
//   sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
//   grid.attach(san, 0);
//   grid.attach(san, 1);
//   grid.build();
//   grid.node(0).vlink().connect("madio", {1, port}, cb);
//
// `build()` freezes the topology: it creates one Node per node — a
// Host, a VLink, an Arbitration (the paper's NetAccess layer: every
// incoming network event of the node is dispatched through it) and a
// selector::Chooser, all held by value — and, for every (network,
// node) attachment, registers a driver named after the network
// profile's driver method, stamped with the profile's NetClass
// affinity and capability bits.  The grid keeps
// no name registry of its own: a name already taken on the node gets
// the suffix "@<net id>" (twin SANs: "madio", "madio@1"), judged from
// the names planned so far in build() and, for attach_live(), from the
// drivers already on the node's VLink.  SAN attachments ("madio") get
// the full arbitration stack — SanDriver -> Madeleine -> MadIO ->
// MadIODriver — honouring BuildOptions::header_combining; IP
// attachments ("sysio") keep the baseline NetDriver, with deliveries
// routed through the node's arbitration so SysIO and MadIO traffic
// genuinely contend (node.arbitration() tunes the interleave).
// Wan-class attachments additionally get a "pstream" parallel-stream
// driver (BuildOptions::pstream_width sub-links) stacked on their IP
// driver; every IP attachment gets an "adoc" adaptive-compression
// adapter, and lossy profiles (loss_rate > 0) also get a "vrp"
// loss-tolerant adapter honouring BuildOptions::vrp.max_loss, stamped
// kCapLossTolerant so the chooser steers default WAN traffic off the
// raw lossy driver.  The chooser is installed as each VLink's
// SelectionPolicy, so `node.vlink().connect(remote, fn)` picks madio
// intra-cluster and the (overridable) wan method across clusters
// automatically.  The layers above borrow a node's host, vlink, MadIO
// and circuits; the grid keeps no record of what runs on top of it.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/host.hpp"
#include "net/arbitration.hpp"
#include "net/tag.hpp"
#include "selector/selector.hpp"
#include "simnet/network.hpp"
#include "vlink/vlink.hpp"

namespace padico::net {
class MadIO;
}  // namespace padico::net

namespace padico::circuit {
class Group;
}  // namespace padico::circuit

namespace padico::grid {

class CircuitSet;  // madeleine/circuit.hpp

/// Build-time knobs.  Fields beyond the base runtime are consumed by
/// the layers that implement them (selector, MadIO, VRP); the base
/// build records them so upper layers can query `grid.options()`.
/// build() validates: `pstream_width` must be in [1, 64],
/// `vrp.max_loss` must be in [0, 1), and a non-empty `wan_method`
/// must name a method some node actually got — all before any
/// mutation, so a failed build() can be retried corrected.
struct BuildOptions {
  /// Preferred driver method for inter-cluster (WAN) traffic; seeds
  /// every node chooser's `set_wan_method`.  Empty keeps the default
  /// ranking (plain "sysio"; parallel streams are opt-in, like §5).
  std::string wan_method;

  /// Sub-links per "pstream" connection (wan-class attachments get a
  /// pstream driver stacked on their IP driver).
  int pstream_width = 4;

  /// MadIO header combining (section 4.1 ablation).
  bool header_combining = true;

  struct Vrp {
    /// Tolerated residual loss rate for VRP links, in [0, 1).  0 makes
    /// "vrp" a fully reliable ARQ transport (the §5 baseline); the
    /// paper's media runs use 0.10.
    double max_loss = 0.0;
  } vrp;
};

class Node {
 public:
  Node(core::Engine& engine, core::NodeId id);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  core::NodeId id() const noexcept { return host_.id(); }
  core::Host& host() noexcept { return host_; }
  vlink::VLink& vlink() noexcept { return vlink_; }

  /// False once the node left the grid (Grid::remove_node_live).  The
  /// object itself is quarantined, not destroyed — pending closures
  /// and arbitration events may still reference it — but its network
  /// endpoints are detached, so traffic involving it drops.
  bool alive() const noexcept { return alive_; }

  /// The node's SysIO/MadIO arbitration: all incoming traffic funnels
  /// through it, and its policy knobs tune the interleave.
  net::Arbitration& arbitration() noexcept { return arbitration_; }

  /// The node's topology-aware method selector; installed as the
  /// VLink's SelectionPolicy, so method-less connects go through it.
  selector::Chooser& chooser() noexcept { return chooser_; }

  /// The MadIO instance of the i-th SAN attachment; nullptr if the
  /// node has no such attachment.
  net::MadIO* madio(std::size_t i = 0) const noexcept;

 private:
  friend class Grid;

  core::Host host_;
  vlink::VLink vlink_;
  bool alive_ = true;
  net::Arbitration arbitration_;
  selector::Chooser chooser_;
  std::vector<net::MadIO*> madios_;  // borrowed from Grid's SAN stacks
};

class Grid {
 public:
  Grid();
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;
  ~Grid();

  core::Engine& engine() noexcept { return engine_; }
  simnet::Fabric& fabric() noexcept { return fabric_; }

  /// Declare `n` additional nodes.  Only valid before build().
  /// (std::size_t: scenario topologies declare thousands of nodes, so
  /// the count must never funnel through int arithmetic.)
  void add_nodes(std::size_t n);

  /// Declare a network from a link model.  Only valid before build().
  simnet::NetId add_network(const simnet::LinkModel& model);

  /// Attach `node` to `net`.  Only valid before build().  Throws
  /// std::invalid_argument if the pair is already attached (a second
  /// driver stack would take over the first one's network receiver);
  /// one node on several networks, e.g. twin SANs, is fine.
  void attach(simnet::NetId net, core::NodeId node);

  /// Freeze the topology and instantiate per-node hosts, vlinks and
  /// drivers.  Idempotent; the second call is a no-op.
  void build() { build(BuildOptions{}); }
  void build(const BuildOptions& options);

  bool built() const noexcept { return built_; }
  const BuildOptions& options() const noexcept { return options_; }

  std::size_t size() const noexcept { return node_count_; }
  Node& node(std::size_t i);

  /// True when `i` names a node that is in the grid and has not been
  /// removed.  False for out-of-range ids and before build().
  bool alive(core::NodeId i) const noexcept;

  /// Nodes currently alive (size() minus removed nodes).
  std::size_t alive_count() const noexcept { return alive_count_; }

  // --- Runtime topology mutation (churn) -----------------------------------
  // The scenario layer joins and removes nodes while the engine runs.
  // All three are only valid AFTER build(); ids are never reused.

  /// Add one node to a built grid; returns its id.  The node starts
  /// with no attachments (attach_live wires it into networks).
  core::NodeId add_node_live();

  /// Attach a live node to `net` and wire the same driver stack
  /// build() would have wired for this (network, node) pair — SAN
  /// stack for "madio" profiles; NetDriver plus pstream/adoc/vrp
  /// adapters for IP profiles.  Choosers rank from the live topology,
  /// so the next method-less connect anywhere sees the new
  /// reachability.  Throws std::invalid_argument, like attach(), if
  /// the pair is already attached.
  void attach_live(simnet::NetId net, core::NodeId node);

  /// Remove a live node: detach it from every network it was attached
  /// to (in-flight messages towards it drop; future connects fail
  /// unreachable) and mark it dead.  The Node object is quarantined,
  /// not destroyed — pending engine events may still hold pointers
  /// into it, the usual lifetime rule of this stack.
  void remove_node_live(core::NodeId node);

  /// Build a circuit over `group`: one endpoint per member, each on a
  /// grid-allocated Madeleine channel of the node's first SAN
  /// attachment, establishment handshaked through the group root (see
  /// madeleine/circuit.hpp).  Runs the engine until the set is
  /// established, so call it only between measurements.  Only valid
  /// after build(); throws if a member lacks a SAN attachment.
  CircuitSet make_circuit(const std::string& name,
                          const circuit::Group& group, net::Tag tag,
                          core::Port port);

 private:
  struct SanStack;  // SanDriver + Madeleine + MadIO, defined in grid.cpp

  /// One attachment's planned driver-stack method names (empty string:
  /// that stack member is not wired).  Shared between build() and
  /// attach_live() so the two wiring paths can never drift.
  struct Planned {
    std::string method;
    std::string pstream;
    std::string adoc;
    std::string vrp;

    /// Drivers the attachment registers: its method plus each adapter.
    std::size_t drivers() const noexcept {
      return 1u + !pstream.empty() + !adoc.empty() + !vrp.empty();
    }
  };

  /// Claim this attachment's (unique, deterministic) method names,
  /// given the names its node already holds (`taken`, updated).
  Planned plan_attachment(simnet::NetId net, std::set<std::string>& taken);

  /// Instantiate the planned driver stack on `node` for `net`.
  void wire_attachment(simnet::NetId net, core::NodeId node,
                       const Planned& plan);

  core::Engine engine_;
  simnet::Fabric fabric_{engine_};
  std::size_t node_count_ = 0;
  std::size_t alive_count_ = 0;
  std::vector<std::pair<simnet::NetId, core::NodeId>> attachments_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Declared after nodes_ so stacks die before the vlink drivers that
  // borrow them; nothing runs the engine in between.
  std::vector<std::unique_ptr<SanStack>> san_stacks_;
  BuildOptions options_;
  bool built_ = false;
};

}  // namespace padico::grid
