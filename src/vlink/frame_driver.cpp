#include "vlink/frame_driver.hpp"

#include <string>
#include <utility>

namespace padico::vlink {

// ---------------------------------------------------------------------------
// FrameLink: concrete Link bound to one connection id on one FrameDriver.
// ---------------------------------------------------------------------------

class FrameDriver::FrameLink final : public Link {
 public:
  using Entry = std::pair<const std::uint64_t, Conn>;

  FrameLink(FrameDriver& drv, Entry& entry, core::NodeId peer,
            core::Port local_port, core::Port remote_port)
      : Link(peer, local_port, remote_port), drv_(&drv), entry_(&entry) {
    entry.second.link = this;
  }

  ~FrameLink() override {
    // By a copy of the key: the entry's own key dies with the entry.
    if (drv_) drv_->conns_.erase(std::uint64_t{entry_->first});
  }

  core::Bytes receive(core::Bytes frame, std::size_t offset) {
    return deliver(std::move(frame), offset);
  }

  /// Driver teardown: the link may outlive the driver in user hands;
  /// once detached, writes are silently dropped (the wire is gone).
  void detach() { drv_ = nullptr; }

 protected:
  void send_bytes(core::ByteView data) override {
    if (!drv_) return;
    drv_->obs_tx_frames_->add();
    drv_->obs_tx_bytes_->add(data.size());
    drv_->host_->engine().tracer().instant_arg(
        obs::Cat::vlink, "vlink.tx", data.size(), drv_->host_->id());
    wire::Header h{wire::FrameType::data, local_port(), remote_port(),
                   drv_->host_->id(), entry_->first};
    drv_->emit(remote_node(), h, data, entry_->second.horizon);
  }

 private:
  FrameDriver* drv_;
  Entry* entry_;  // this connection's conns_ entry; dangles once detached
};

// ---------------------------------------------------------------------------
// FrameDriver
// ---------------------------------------------------------------------------

FrameDriver::FrameDriver(core::Host& host, std::string name,
                         bool pooled_frames)
    : Driver(std::move(name)), host_(&host), pooled_frames_(pooled_frames) {
  obs::Registry& reg = host.engine().obs();
  obs_tx_frames_ = &reg.counter("vlink.tx.frames");
  obs_tx_bytes_ = &reg.counter("vlink.tx.bytes");
  obs_rx_frames_ = &reg.counter("vlink.rx.frames");
  obs_rx_bytes_ = &reg.counter("vlink.rx.bytes");
}

FrameDriver::~FrameDriver() {
  for (auto& [id, conn] : conns_) {
    if (conn.link) conn.link->detach();
  }
}

void FrameDriver::listen(core::Port port, AcceptFn on_accept) {
  listeners_[port] = std::move(on_accept);
}

void FrameDriver::unlisten(core::Port port) { listeners_.erase(port); }

void FrameDriver::connect(const RemoteAddr& remote, ConnectFn on_connect) {
  if (!check_reachable(remote, on_connect)) return;
  // Connection ids are globally unique: origin node in the high bits,
  // per-driver counter below.
  const std::uint64_t conn_id =
      (static_cast<std::uint64_t>(host_->id()) << 40) | next_conn_++;
  // The connect frame is paced on the entry the link will use.
  Conn& conn = conns_[conn_id];
  conn.on_connect = std::move(on_connect);
  // The ephemeral counter wraps WITHIN [49152, 65535]: million-session
  // workloads must never walk it into the listener port range (data
  // frames demux by conn_id, so reusing a source port is benign).
  const core::Port src_port = next_ephemeral_;
  next_ephemeral_ = next_ephemeral_ == 65535
                        ? static_cast<core::Port>(49152)
                        : static_cast<core::Port>(next_ephemeral_ + 1);
  wire::Header h{wire::FrameType::connect, src_port, remote.port,
                 host_->id(), conn_id};
  emit(remote.node, h, {}, conn.horizon);
}

void FrameDriver::handle_frame(core::NodeId src, core::Bytes frame,
                               std::size_t offset) {
  // Read before any callback below runs: a callback may destroy this
  // driver, never the engine's pool.
  core::BytesPool* const pool =
      pooled_frames_ ? &host_->engine().bytes_pool() : nullptr;
  const std::optional<wire::Header> hdr = wire::decode(
      core::ByteView(frame.data() + offset, frame.size() - offset));
  if (!hdr) {
    ++malformed_;
    if (pool) pool->release(std::move(frame));
    return;
  }
  const wire::Header& h = *hdr;

  switch (h.type) {
    case wire::FrameType::connect: {
      auto [it, fresh] = conns_.try_emplace(h.conn_id);
      if (!fresh) {
        ++malformed_;  // a repeat must not re-bind a live connection
        break;
      }
      auto lit = listeners_.find(h.dst_port);
      if (lit == listeners_.end()) {
        // Paced on nothing: no connection outlives a refuse.
        conns_.erase(it);
        core::SimTime unpaced = 0;
        wire::Header r{wire::FrameType::refuse, h.dst_port, h.src_port,
                       host_->id(), h.conn_id};
        emit(src, r, {}, unpaced);
        break;
      }
      auto link = std::make_unique<FrameLink>(*this, *it, src, h.dst_port,
                                              h.src_port);
      // The accept frame is paced on the link's own entry: writes made
      // inside the accept callback queue behind it.
      wire::Header a{wire::FrameType::accept, h.dst_port, h.src_port,
                     host_->id(), h.conn_id};
      emit(src, a, {}, it->second.horizon);
      lit->second(std::move(link));
      break;
    }
    case wire::FrameType::accept: {
      auto it = conns_.find(h.conn_id);
      if (it == conns_.end() || it->second.link) break;
      ConnectFn cb = std::move(it->second.on_connect);
      std::unique_ptr<Link> link =
          std::make_unique<FrameLink>(*this, *it, src, h.dst_port, h.src_port);
      cb(std::move(link));
      break;
    }
    case wire::FrameType::refuse: {
      auto it = conns_.find(h.conn_id);
      if (it == conns_.end() || it->second.link) break;
      ConnectFn cb = std::move(it->second.on_connect);
      conns_.erase(it);
      cb(core::Result<std::unique_ptr<Link>>::err(
          core::Status::refused,
          name() + ": connection refused by node " + std::to_string(src)));
      break;
    }
    case wire::FrameType::data: {
      auto it = conns_.find(h.conn_id);
      if (it == conns_.end() || !it->second.link) break;  // stale; drop
      const std::size_t payload = offset + wire::kHeaderSize;
      obs_rx_frames_->add();
      obs_rx_bytes_->add(frame.size() - payload);
      // The rx span covers stream reassembly plus every continuation
      // the delivery resumes.
      obs::Scope scope(host_->engine().tracer(), obs::Cat::vlink, "vlink.rx",
                       host_->id());
      // The link takes the buffer; what comes back is storage no view
      // points into any more (see Link::deliver).
      frame = it->second.link->receive(std::move(frame), payload);
      break;
    }
    case wire::FrameType::header:
      // MadIO-internal frame type; never valid at the connection layer.
      ++malformed_;
      break;
  }
  if (pool) pool->release(std::move(frame));
}

}  // namespace padico::vlink
