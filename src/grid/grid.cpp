#include "grid/grid.hpp"

#include <cassert>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "adapters/adoc.hpp"
#include "adapters/vrp.hpp"
#include "drivers/san_driver.hpp"
#include "madeleine/circuit.hpp"
#include "madeleine/madeleine.hpp"
#include "middleware/personality.hpp"
#include "net/madio.hpp"
#include "net/madio_driver.hpp"
#include "net/netaccess.hpp"
#include "selector/selector.hpp"
#include "vlink/net_driver.hpp"
#include "vlink/pstream_driver.hpp"

namespace padico::grid {

/// One SAN attachment's arbitration stack, bottom-up.
struct Grid::SanStack {
  drv::SanDriver san;
  mad::Madeleine madeleine;
  net::MadIO io;

  SanStack(core::Host& host, simnet::Fabric& fabric, simnet::NetId net,
           net::NetAccess& access, bool header_combining)
      : san(host, fabric, net, drv::gm_costs(), "gm"),
        madeleine(host, san),
        io(access, madeleine, header_combining) {}
};

Node::Node(core::Engine& engine, core::NodeId id)
    : host_(engine, id),
      vlink_(host_),
      access_(std::make_unique<net::NetAccess>(host_)),
      chooser_(std::make_unique<selector::Chooser>(vlink_)) {
  vlink_.set_policy(chooser_.get());
}

Node::~Node() = default;

net::Arbitration& Node::arbitration() noexcept {
  return access_->arbitration();
}

net::MadIO* Node::madio(std::size_t i) const noexcept {
  return i < madios_.size() ? madios_[i] : nullptr;
}

middleware::Personality* Node::personality(
    const std::string& name) const noexcept {
  auto it = personalities_.find(name);
  return it == personalities_.end() ? nullptr : it->second;
}

void Node::add_personality(middleware::Personality& p) {
  auto [it, inserted] = personalities_.emplace(p.name(), &p);
  if (!inserted) {
    throw std::logic_error("grid::Node " + std::to_string(id()) +
                           ": personality '" + p.name() +
                           "' already attached");
  }
}

void Node::remove_personality(middleware::Personality& p) noexcept {
  auto it = personalities_.find(p.name());
  if (it != personalities_.end() && it->second == &p) {
    personalities_.erase(it);
  }
}

Grid::Grid() = default;
Grid::~Grid() = default;

void Grid::add_nodes(std::size_t n) {
  assert(!built_ && "topology frozen by build()");
  node_count_ += n;
}

simnet::NetId Grid::add_network(const simnet::LinkModel& model) {
  assert(!built_ && "topology frozen by build()");
  return fabric_.add_network(model);
}

void Grid::attach(simnet::NetId net, core::NodeId node) {
  assert(!built_ && "topology frozen by build()");
  if (node >= node_count_) {
    throw std::out_of_range("Grid::attach(): node " + std::to_string(node) +
                            " not declared (have " +
                            std::to_string(node_count_) + ")");
  }
  if (fabric_.network(net).attached(node)) {
    throw std::invalid_argument("Grid::attach(): node " + std::to_string(node) +
                                " already attached to network " +
                                std::to_string(net));
  }
  fabric_.attach(net, node);
  attachments_.emplace_back(net, node);
}

void Grid::build(const BuildOptions& options) {
  if (built_) return;
  if (options.pstream_width < 1 || options.pstream_width > 64) {
    throw std::invalid_argument(
        "Grid::build(): pstream_width " +
        std::to_string(options.pstream_width) + " outside [1, 64]");
  }
  // Negated-range form so NaN fails too; like pstream_width, validated
  // BEFORE any mutation so a failed build() can be retried corrected.
  if (!(options.vrp.max_loss >= 0.0 && options.vrp.max_loss < 1.0)) {
    throw std::invalid_argument("Grid::build(): vrp.max_loss " +
                                std::to_string(options.vrp.max_loss) +
                                " outside [0, 1)");
  }
  // Plan every attachment's method name (and its pstream stack, if
  // any) up front.  The plan is the single source of truth: it
  // validates wan_method BEFORE anything mutates — a failed build()
  // leaves the grid un-built for a corrected retry — and the wiring
  // below consumes the same names, so the two can never drift.
  // (plan_attachment/wire_attachment are shared with attach_live, so
  // runtime attachments get identical stacks.)
  std::vector<Planned> plan(attachments_.size());
  for (std::size_t i = 0; i < attachments_.size(); ++i) {
    plan[i] = plan_attachment(attachments_[i].first, attachments_[i].second);
  }
  if (!options.wan_method.empty()) {
    bool known = false;
    for (const Planned& p : plan) {
      if (p.method == options.wan_method || p.pstream == options.wan_method ||
          p.adoc == options.wan_method || p.vrp == options.wan_method) {
        known = true;
        break;
      }
    }
    if (!known) {
      used_methods_.clear();  // undo the plan's claims; nothing wired yet
      throw std::invalid_argument("Grid::build(): wan_method '" +
                                  options.wan_method +
                                  "' matches no driver this topology wires");
    }
  }
  options_ = options;
  built_ = true;
  alive_count_ = node_count_;

  nodes_.reserve(node_count_);
  for (std::size_t i = 0; i < node_count_; ++i) {
    nodes_.push_back(
        std::make_unique<Node>(engine_, static_cast<core::NodeId>(i)));
  }

  // Attachment declaration order fixes driver preference order, so the
  // typical "SAN first, LAN second" testbed auto-selects the SAN.
  for (std::size_t i = 0; i < attachments_.size(); ++i) {
    wire_attachment(attachments_[i].first, attachments_[i].second, plan[i]);
  }

  for (const auto& node : nodes_) {
    node->chooser().set_wan_method(options_.wan_method);
  }
}

Grid::Planned Grid::plan_attachment(simnet::NetId net, core::NodeId node) {
  auto claim = [&](const std::string& base) {
    std::string m = base;
    if (used_methods_[node].count(m) != 0) {
      // Two same-profile networks on one node (e.g. twin SANs): keep
      // method names unique and deterministic.  (Two appends rather
      // than operator+ to dodge GCC 12's -Wrestrict false positive.)
      m += "@";
      m += std::to_string(net);
    }
    used_methods_[node].insert(m);
    return m;
  };
  const simnet::LinkModel& model = fabric_.network(net).model();
  Planned plan;
  plan.method = claim(model.driver);
  if (model.driver != "madio") {
    if (model.net_class == selector::NetClass::wan) {
      plan.pstream = claim("pstream");
    }
    plan.adoc = claim("adoc");
    if (model.loss_rate > 0.0) {
      plan.vrp = claim("vrp");
    }
  }
  return plan;
}

void Grid::wire_attachment(simnet::NetId net_id, core::NodeId node_id,
                           const Planned& plan) {
  simnet::Network& net = fabric_.network(net_id);
  Node& node = *nodes_[node_id];
  vlink::VLink& vl = node.vlink();
  const simnet::LinkModel& model = net.model();
  // Drivers inherit the profile's distance class and trust bit, so
  // the chooser classifies from profiles, never from method names.
  const selector::Caps base_caps = model.secure ? selector::kCapSecure : 0;
  const std::string& method = plan.method;
  if (model.driver == "madio") {
    // SAN: the full arbitration stack under the vlink method.
    auto stack = std::make_unique<SanStack>(node.host(), fabric_, net_id,
                                            node.access(),
                                            options_.header_combining);
    node.madios_.push_back(&stack->io);
    auto driver = std::make_unique<net::MadIODriver>(stack->io, method);
    driver->set_net_class(model.net_class);
    driver->set_caps(base_caps);
    vl.add_driver(std::move(driver));
    san_stacks_.push_back(std::move(stack));
  } else {
    // IP network: baseline NetDriver, arbitrated on the SysIO side.
    auto driver = std::make_unique<vlink::NetDriver>(node.host(), net, method);
    driver->set_net_class(model.net_class);
    driver->set_caps(base_caps);
    driver->set_dispatch([access = &node.access()](core::EventFn fn) {
      access->post_sys(std::move(fn));
    });
    vlink::NetDriver* base = driver.get();
    vl.add_driver(std::move(driver));
    if (!plan.pstream.empty()) {
      // Long fat pipe: stack the parallel-stream adapter on the IP
      // driver.  Registered after its base, so the chooser's default
      // wan ranking still lands on plain "sysio" — pstream is
      // activated via BuildOptions::wan_method / set_wan_method.
      auto ps = std::make_unique<vlink::PstreamDriver>(
          node.host(), *base, plan.pstream, options_.pstream_width);
      ps->set_net_class(model.net_class);
      ps->set_caps(base_caps | selector::kCapParallel);
      vl.add_driver(std::move(ps));
    }
    // Adaptive compression rides every IP attachment, stacked
    // directly on the base driver (activated by wan_method /
    // set_wan_method or an explicit method connect).
    auto ad = std::make_unique<vlink::AdocDriver>(node.host(), *base,
                                                  plan.adoc, &net);
    ad->set_net_class(model.net_class);
    ad->set_caps(base_caps);
    vl.add_driver(std::move(ad));
    if (!plan.vrp.empty()) {
      // Lossy profile: stack the loss-tolerant VRP adapter too.  The
      // kCapLossTolerant bit (plus VrpDriver::lossy() == false) is
      // what lets the chooser steer default WAN traffic off the raw
      // lossy driver.
      auto vr = std::make_unique<vlink::VrpDriver>(
          node.host(), *base, plan.vrp, options_.vrp.max_loss);
      vr->set_net_class(model.net_class);
      vr->set_caps(base_caps | selector::kCapLossTolerant);
      vl.add_driver(std::move(vr));
    }
  }
}

bool Grid::alive(core::NodeId i) const noexcept {
  return built_ && i < nodes_.size() && nodes_[i]->alive();
}

core::NodeId Grid::add_node_live() {
  if (!built_) throw std::logic_error("Grid::add_node_live() before build()");
  const auto id = static_cast<core::NodeId>(node_count_);
  nodes_.push_back(std::make_unique<Node>(engine_, id));
  nodes_.back()->chooser().set_wan_method(options_.wan_method);
  ++node_count_;
  ++alive_count_;
  return id;
}

void Grid::attach_live(simnet::NetId net, core::NodeId node) {
  if (!built_) throw std::logic_error("Grid::attach_live() before build()");
  if (node >= node_count_ || !nodes_[node]->alive()) {
    throw std::out_of_range("Grid::attach_live(): node " +
                            std::to_string(node) + " not alive");
  }
  if (fabric_.network(net).attached(node)) {
    throw std::invalid_argument("Grid::attach_live(): node " +
                                std::to_string(node) +
                                " already attached to network " +
                                std::to_string(net));
  }
  fabric_.attach(net, node);
  attachments_.emplace_back(net, node);
  const Planned plan = plan_attachment(net, node);
  wire_attachment(net, node, plan);
}

void Grid::remove_node_live(core::NodeId node) {
  if (!built_) {
    throw std::logic_error("Grid::remove_node_live() before build()");
  }
  if (node >= node_count_ || !nodes_[node]->alive()) {
    throw std::out_of_range("Grid::remove_node_live(): node " +
                            std::to_string(node) + " not alive");
  }
  for (const auto& [net_id, node_id] : attachments_) {
    if (node_id == node) fabric_.network(net_id).detach(node);
  }
  nodes_[node]->alive_ = false;
  --alive_count_;
}

Node& Grid::node(std::size_t i) {
  if (!built_) throw std::logic_error("Grid::node() before build()");
  return *nodes_.at(i);
}

CircuitSet Grid::make_circuit(const std::string& name,
                              const circuit::Group& group, net::Tag tag,
                              core::Port port) {
  if (!built_) throw std::logic_error("Grid::make_circuit() before build()");
  if (group.size() == 0) {
    throw std::invalid_argument("Grid::make_circuit(): empty group");
  }
  // Validate the whole group before opening any channel, so a failed
  // call never leaves half-wired endpoints behind: every member needs
  // a SAN attachment, and every pair must share a SAN (establishment
  // and data both assume full reachability inside the group).
  for (std::size_t r = 0; r < group.size(); ++r) {
    const core::NodeId node_id = group.node(static_cast<int>(r));
    if (node_id >= node_count_) {
      throw std::out_of_range("Grid::make_circuit(): node " +
                              std::to_string(node_id) + " not in grid");
    }
    net::MadIO* io = nodes_[node_id]->madio();
    if (io == nullptr) {
      throw std::invalid_argument("Grid::make_circuit(): node " +
                                  std::to_string(node_id) +
                                  " has no SAN attachment");
    }
    for (std::size_t o = 0; o < r; ++o) {
      if (!io->reaches(group.node(static_cast<int>(o)))) {
        throw std::invalid_argument(
            "Grid::make_circuit(): nodes " + std::to_string(node_id) +
            " and " + std::to_string(group.node(static_cast<int>(o))) +
            " share no SAN");
      }
    }
  }
  // Channel allocation: the lowest id free on EVERY member (channel 0
  // is MadIO's) — deterministic, consistent across overlapping groups,
  // and recycled once a circuit's endpoints are destroyed.
  int channel = -1;
  for (int id = 1; id <= 255 && channel < 0; ++id) {
    channel = id;
    for (std::size_t r = 0; r < group.size(); ++r) {
      if (nodes_[group.node(static_cast<int>(r))]->madio()->madeleine()
              .channel_open(static_cast<std::uint8_t>(id))) {
        channel = -1;
        break;
      }
    }
  }
  if (channel < 0) {
    throw std::length_error("Grid::make_circuit(): channel ids exhausted");
  }
  const auto channel_id = static_cast<std::uint8_t>(channel);

  CircuitSet set(name, group);
  for (std::size_t r = 0; r < group.size(); ++r) {
    Node& member = *nodes_[group.node(static_cast<int>(r))];
    set.add(std::make_unique<circuit::Circuit>(
        name, group, static_cast<int>(r), tag, port, member.access(),
        member.madio()->madeleine(), channel_id));
  }

  // Drive the establishment handshake to completion (root collects one
  // connect per member, answers accept).  Deterministic: nothing else
  // is normally in flight while a circuit is being wired.
  engine_.run_while_pending([&] { return set.established(); });
  if (!set.established()) {
    for (std::size_t r = 0; r < set.size(); ++r) {
      if (set.at(static_cast<int>(r)).refused()) {
        throw std::runtime_error(
            "Grid::make_circuit(): root refused rank " + std::to_string(r) +
            " of '" + name + "' (tag/port/channel mismatch)");
      }
    }
    throw std::runtime_error("Grid::make_circuit(): establishment of '" +
                             name + "' did not complete");
  }
  return set;
}

}  // namespace padico::grid
