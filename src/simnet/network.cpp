#include "simnet/network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace padico::simnet {

Network::Network(core::Engine& engine, LinkModel model, std::uint64_t seed)
    : engine_(&engine), model_(std::move(model)), rng_(seed) {
  obs::Registry& reg = engine.obs();
  const std::string prefix = "net." + model_.name;
  obs_msgs_ = &reg.counter(prefix + ".msgs");
  obs_bytes_ = &reg.counter(prefix + ".bytes");
  obs_dropped_ = &reg.counter(prefix + ".dropped");
  trace_name_ = engine.tracer().intern(prefix);
}

void Network::attach(core::NodeId node) {
  if (endpoints_.empty()) {
    base_ = node;
  } else if (node < base_) {
    // Rare (live churn can join a node below the medium's first id);
    // grow the vector downwards once.
    endpoints_.insert(endpoints_.begin(), base_ - node, Endpoint{});
    base_ = node;
  }
  if (node - base_ >= endpoints_.size()) {
    endpoints_.resize(node - base_ + 1);
  }
  Endpoint& e = endpoints_[node - base_];
  if (!e.attached) {
    e = Endpoint{};  // fresh slot, like a new map entry used to be
    e.attached = true;
  }
}

void Network::detach(core::NodeId node) {
  if (node < base_ || node - base_ >= endpoints_.size()) return;
  endpoints_[node - base_] = Endpoint{};  // drops the recv closure too
}

bool Network::attached(core::NodeId node) const {
  return endpoint(node) != nullptr;
}

void Network::set_receiver(core::NodeId node, RecvFn fn) {
  if (Endpoint* e = endpoint(node)) e->recv = std::move(fn);
}

std::size_t Network::frames_for(std::size_t bytes) const {
  const std::size_t mtu = std::max<std::size_t>(model_.mtu, 1);
  return std::max<std::size_t>(1, (bytes + mtu - 1) / mtu);
}

core::Duration Network::tx_time(std::size_t bytes) const {
  const std::uint64_t wire =
      bytes + frames_for(bytes) * model_.frame_overhead;
  const std::uint64_t bps = std::max<std::uint64_t>(model_.bytes_per_second, 1);
  // ceil(wire * 1e9 / bps); wire stays far below 2^34 in practice so the
  // product fits in 64 bits.
  return (wire * 1'000'000'000ull + bps - 1) / bps;
}

core::Result<core::SimTime> Network::send(core::NodeId src, core::NodeId dst,
                                          core::Bytes payload) {
  if (!up_) {
    return core::Result<core::SimTime>::err(core::Status::unreachable,
                                            model_.name + ": link down");
  }
  Endpoint* sep = endpoint(src);
  if (sep == nullptr || endpoint(dst) == nullptr) {
    return core::Result<core::SimTime>::err(
        core::Status::unreachable,
        model_.name + ": node not attached to network");
  }

  const core::SimTime start = std::max(engine_->now(), sep->tx_busy_until);
  const core::Duration tx = tx_time(payload.size());
  sep->tx_busy_until = start + tx;
  const core::SimTime arrival = start + tx + model_.latency;

  ++messages_sent_;
  bytes_sent_ += payload.size();
  obs_msgs_->add();
  obs_bytes_->add(payload.size());
  // Wire-occupancy span: the sender NIC is busy [start, start + tx).
  engine_->tracer().complete(obs::Cat::simnet, trace_name_, start, tx,
                             static_cast<std::uint32_t>(src), payload.size());

  if (model_.loss_rate > 0.0) {
    // Per-frame loss: draw once for EVERY frame, in frame order, so the
    // RNG consumption depends only on the message-size sequence (not on
    // which draws happen to lose).  The receiver gets the surviving
    // prefix — the bytes before the first lost frame — because a NIC
    // delivers a fragmented message in frame order and a gap truncates
    // the reassembly.
    const std::size_t frames = frames_for(payload.size());
    std::size_t first_lost = frames;
    for (std::size_t f = 0; f < frames; ++f) {
      const bool frame_lost = rng_.uniform() < model_.loss_rate;
      if (frame_lost && first_lost == frames) first_lost = f;
    }
    if (first_lost < frames) {
      frames_dropped_ += frames - first_lost;
      obs_dropped_->add(frames - first_lost);
      if (first_lost == 0) {
        ++messages_dropped_;
        return arrival;
      }
      const std::size_t mtu = std::max<std::size_t>(model_.mtu, 1);
      payload.resize(std::min(payload.size(), first_lost * mtu));
    }
  }

  engine_->schedule_at(
      arrival, [this, src, dst, payload = std::move(payload)]() mutable {
        Endpoint* e = endpoint(dst);
        if (e != nullptr && e->recv) {
          e->recv(src, std::move(payload));
        } else {
          ++messages_dropped_;
          obs_dropped_->add();
        }
      });
  return arrival;
}

core::Duration Network::tx_backlog(core::NodeId node) const {
  const Endpoint* e = endpoint(node);
  if (e == nullptr) return 0;
  const core::SimTime now = engine_->now();
  return e->tx_busy_until > now ? e->tx_busy_until - now : 0;
}

NetId Fabric::add_network(const LinkModel& model) {
  const NetId id = static_cast<NetId>(networks_.size());
  // Seed folds in the creation index so two networks with the same
  // model still draw independent, reproducible loss sequences.
  networks_.push_back(
      std::make_unique<Network>(*engine_, model, 0xfab51c0000ull + id));
  return id;
}

}  // namespace padico::simnet
