#include "vlink/frame_driver.hpp"

#include <string>
#include <utility>

namespace padico::vlink {

// ---------------------------------------------------------------------------
// FrameLink: concrete Link bound to one connection id on one FrameDriver.
// ---------------------------------------------------------------------------

class FrameDriver::FrameLink final : public Link {
 public:
  FrameLink(FrameDriver& drv, core::NodeId peer, core::Port local_port,
            core::Port remote_port, std::uint64_t conn_id)
      : Link(peer, local_port, remote_port), drv_(&drv), conn_id_(conn_id) {}

  ~FrameLink() override {
    if (drv_) drv_->forget(conn_id_);
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
                   drv_->host_->id(), conn_id_};
    drv_->emit(remote_node(), h, data);
  }

 private:
  FrameDriver* drv_;
  std::uint64_t conn_id_;
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
  for (auto& [conn, link] : links_) link->detach();
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
  connecting_[conn_id] = std::move(on_connect);
  // The ephemeral counter wraps WITHIN [49152, 65535]: million-session
  // workloads must never walk it into the listener port range (data
  // frames demux by conn_id, so reusing a source port is benign).
  const core::Port src_port = next_ephemeral_;
  next_ephemeral_ = next_ephemeral_ == 65535
                        ? static_cast<core::Port>(49152)
                        : static_cast<core::Port>(next_ephemeral_ + 1);
  wire::Header h{wire::FrameType::connect, src_port, remote.port,
                 host_->id(), conn_id};
  emit(remote.node, h, {});
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
      auto lit = listeners_.find(h.dst_port);
      if (lit == listeners_.end()) {
        wire::Header r{wire::FrameType::refuse, h.dst_port, h.src_port,
                       host_->id(), h.conn_id};
        emit(src, r, {});
        break;
      }
      auto link = std::make_unique<FrameLink>(*this, src, h.dst_port,
                                              h.src_port, h.conn_id);
      links_[h.conn_id] = link.get();
      wire::Header a{wire::FrameType::accept, h.dst_port, h.src_port,
                     host_->id(), h.conn_id};
      emit(src, a, {});
      lit->second(std::move(link));
      break;
    }
    case wire::FrameType::accept: {
      auto cit = connecting_.find(h.conn_id);
      if (cit == connecting_.end()) break;
      ConnectFn cb = std::move(cit->second);
      connecting_.erase(cit);
      std::unique_ptr<Link> link = std::make_unique<FrameLink>(
          *this, src, h.dst_port, h.src_port, h.conn_id);
      links_[h.conn_id] = static_cast<FrameLink*>(link.get());
      cb(std::move(link));
      break;
    }
    case wire::FrameType::refuse: {
      auto cit = connecting_.find(h.conn_id);
      if (cit == connecting_.end()) break;
      ConnectFn cb = std::move(cit->second);
      connecting_.erase(cit);
      cb(core::Result<std::unique_ptr<Link>>::err(
          core::Status::refused,
          name() + ": connection refused by node " + std::to_string(src)));
      break;
    }
    case wire::FrameType::data: {
      auto it = links_.find(h.conn_id);
      if (it == links_.end()) break;  // stale connection; drop
      const std::size_t payload = offset + wire::kHeaderSize;
      obs_rx_frames_->add();
      obs_rx_bytes_->add(frame.size() - payload);
      // The rx span covers stream reassembly plus every continuation
      // the delivery resumes.
      obs::Scope scope(host_->engine().tracer(), obs::Cat::vlink, "vlink.rx",
                       host_->id());
      // The link takes the buffer; what comes back is storage no view
      // points into any more (see Link::deliver).
      frame = it->second->receive(std::move(frame), payload);
      break;
    }
    case wire::FrameType::header:
      // MadIO-internal frame type; never valid at the connection layer.
      ++malformed_;
      break;
  }
  if (pool) pool->release(std::move(frame));
}

void FrameDriver::forget(std::uint64_t conn_id) {
  links_.erase(conn_id);
  on_connection_closed(conn_id);
}

}  // namespace padico::vlink
