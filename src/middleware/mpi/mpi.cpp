#include "middleware/mpi/mpi.hpp"

#include <cstring>

namespace padico::mpi {

core::CostModel mpich_costs() {
  // Table 1: MPICH-1.2.5 one-way 12.06 us against Circuit's 8.4 — the
  // ch_mad device adds ~4 us of request bookkeeping per message,
  // split across sender and receiver; bulk data stays zero-copy.
  return {core::nanoseconds(2300), core::nanoseconds(1800), 0};
}

Comm::Comm(circuit::Circuit& endpoint, core::CostModel costs)
    : Personality("mpi", std::move(costs),
                  endpoint.host().engine()),
      ep_(&endpoint),
      rank_(endpoint.rank()),
      size_(static_cast<int>(endpoint.group().size())) {
  ep_->set_recv_handler([this](int src_rank, mad::UnpackHandle& h) {
    on_message(src_rank, h);
  });
}

Comm::Comm(std::unique_ptr<vlink::Link> stream, int rank,
           core::Engine& engine, core::CostModel costs)
    : Personality("mpi", std::move(costs), engine),
      stream_(std::move(stream)),
      rank_(rank),
      size_(2) {
  reader_ = stream_reader();
}

Comm::~Comm() {
  if (ep_ != nullptr) ep_->set_recv_handler({});
  *alive_ = false;
}

void Comm::isend(int dst_rank, int tag, core::ByteView data) {
  post_send(dst_rank, tag, data);
}

core::SimTime Comm::post_send(int dst_rank, int tag, core::ByteView data) {
  // One buffer: envelope [u32 tag][u32 payload len][u64 seq], then
  // the payload.  The length is redundant on a circuit (hardware
  // messages keep boundaries) but is what frames the message on the
  // stream fallback.  MPI buffer semantics: the caller's buffer is
  // reusable on return, so the payload is copied here, before the
  // deferred wire push.
  core::Bytes msg;
  msg.reserve(kEnvelope + data.size());
  msg.resize(kEnvelope);
  const auto wire_tag = static_cast<std::uint32_t>(tag);
  const auto wire_len = static_cast<std::uint32_t>(data.size());
  const std::uint64_t seq = seq_.next({dst_rank, tag});
  std::memcpy(msg.data(), &wire_tag, 4);
  std::memcpy(msg.data() + 4, &wire_len, 4);
  std::memcpy(msg.data() + 8, &seq, 8);
  msg.insert(msg.end(), data.begin(), data.end());
  const core::SimTime t = charge_send(data.size());
  engine().schedule_at(
      t, [this, alive = alive_, dst_rank, msg = std::move(msg)] {
        if (!*alive) return;
        const core::ByteView all = core::view_of(msg);
        if (ep_ != nullptr) {
          mad::PackHandle handle = ep_->begin(dst_rank, all.size());
          handle.pack(all.subview(0, kEnvelope));
          // Borrowed only until end() flushes, inside this event.
          handle.pack(all.subview(kEnvelope, all.size() - kEnvelope),
                      mad::SendMode::later);
          ep_->end(std::move(handle));
        } else {
          stream_->post_write(all);
        }
        ++sent_;
      });
  return t;
}

core::Completion<void> Comm::send(int dst_rank, int tag, core::ByteView data) {
  // Completes once the send path's CPU is done and the message has
  // been handed to the wire (that push event runs first at `t`).
  const core::SimTime t = post_send(dst_rank, tag, data);
  return core::sleep_for(engine(), t - engine().now());
}

core::Completion<core::Bytes> Comm::recv(int src_rank, int tag) {
  core::Completion<core::Bytes> done;
  const std::pair<int, int> key{src_rank, tag};
  auto it = unexpected_.find(key);
  if (it != unexpected_.end() && !it->second.empty()) {
    core::Bytes msg = std::move(it->second.front());
    it->second.pop_front();
    const core::SimTime t = charge_recv(msg.size());
    engine().schedule_at(t, [done, msg = std::move(msg)]() mutable {
      done.complete(std::move(msg));
    });
  } else {
    posted_[key].push_back(done);
  }
  return done;
}

core::Completion<core::Bytes> Comm::sendrecv(int dst_rank, int send_tag,
                                             core::ByteView data,
                                             int src_rank, int recv_tag) {
  isend(dst_rank, send_tag, data);
  return recv(src_rank, recv_tag);
}

void Comm::on_message(int src_rank, mad::UnpackHandle& handle) {
  // Runs from the node's arbitration pump (the circuit dispatched it).
  if (handle.remaining() < kEnvelope) {
    ++dropped_;  // not an MPI envelope; a miswired sender
    return;
  }
  const core::ByteView env = handle.unpack(kEnvelope);
  std::uint32_t wire_tag = 0;
  std::uint64_t seq = 0;
  std::memcpy(&wire_tag, env.data(), 4);
  std::memcpy(&seq, env.data() + 8, 8);
  deliver(src_rank, static_cast<int>(wire_tag), seq,
          handle.unpack(handle.remaining()).to_bytes());
}

core::Task Comm::stream_reader() {
  const int peer = 1 - rank_;
  for (;;) {
    core::Bytes env = co_await stream_->read_n(kEnvelope);
    std::uint32_t wire_tag = 0, wire_len = 0;
    std::uint64_t seq = 0;
    std::memcpy(&wire_tag, env.data(), 4);
    std::memcpy(&wire_len, env.data() + 4, 4);
    std::memcpy(&seq, env.data() + 8, 8);
    core::Bytes payload = co_await stream_->read_n(wire_len);
    deliver(peer, static_cast<int>(wire_tag), seq, std::move(payload));
  }
}

void Comm::deliver(int src_rank, int tag, std::uint64_t seq,
                   core::Bytes payload) {
  seq_.observe({src_rank, tag}, seq);
  ++received_;
  const std::pair<int, int> key{src_rank, tag};
  auto it = posted_.find(key);
  if (it != posted_.end() && !it->second.empty()) {
    core::Completion<core::Bytes> done = std::move(it->second.front());
    it->second.pop_front();
    const core::SimTime t = charge_recv(payload.size());
    engine().schedule_at(t, [done, payload = std::move(payload)]() mutable {
      done.complete(std::move(payload));
    });
  } else {
    unexpected_[key].push_back(std::move(payload));
  }
}

}  // namespace padico::mpi
