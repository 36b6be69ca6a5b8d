#include "vlink/frame_driver.hpp"

#include <memory>
#include <string>
#include <utility>

#include "core/rng.hpp"

namespace padico::vlink {

// ---------------------------------------------------------------------------
// FrameLink: concrete Link bound to one connection id on one FrameDriver.
// ---------------------------------------------------------------------------

class FrameDriver::FrameLink final : public Link {
 public:
  /// Indexes itself under `conn_id`.
  FrameLink(FrameDriver& drv, std::uint64_t conn_id, core::NodeId peer,
            core::Port local_port, core::Port remote_port)
      : Link(peer, local_port, remote_port), drv_(&drv), conn_id_(conn_id) {
    drv.conns_.insert(conn_id, this);
  }

  ~FrameLink() override {
    if (drv_) drv_->conns_.erase(conn_id_);
  }

  core::SimTime& horizon() noexcept { return horizon_; }

  /// True while our own connect is in flight: the driver owns the link
  /// until the accept hands it to `on_connect`.
  bool connecting() const noexcept { return static_cast<bool>(on_connect_); }
  void set_connect(ConnectFn on_connect) { on_connect_ = std::move(on_connect); }
  ConnectFn take_connect() {
    ConnectFn fn = std::move(on_connect_);
    on_connect_ = nullptr;
    return fn;
  }

  core::Bytes receive(core::Bytes frame, std::size_t offset,
                      core::SharedBytes tail) {
    return deliver(std::move(frame), offset, std::move(tail));
  }

  /// Driver teardown: the link may outlive the driver in user hands;
  /// once detached, writes are silently dropped (the wire is gone).
  void detach() { drv_ = nullptr; }

 protected:
  void send_bytes(core::ByteView data) override { send(data, {}); }

  void send_shared(core::SharedBytes data) override {
    send({}, std::move(data));
  }

 private:
  /// One data frame: `payload` is copied into it, `tail` rides it by
  /// reference.
  void send(core::ByteView payload, core::SharedBytes tail) {
    if (!drv_) return;
    const std::size_t size = payload.size() + tail.size();
    drv_->obs_frames_tx_->add();
    drv_->obs_bytes_tx_->add(size);
    drv_->host_->engine().tracer().instant_arg(
        obs::Cat::vlink, "vlink.tx", size, drv_->host_->id());
    wire::Header h{wire::FrameType::data, local_port(), remote_port(),
                   drv_->host_->id(), conn_id_};
    drv_->emit(remote_node(), h, payload, horizon_, std::move(tail));
  }

  FrameDriver* drv_;
  std::uint64_t conn_id_;
  core::SimTime horizon_ = 0;  // see FrameDriver::emit
  ConnectFn on_connect_;       // set only while connecting
};

// ---------------------------------------------------------------------------
// ConnIndex
// ---------------------------------------------------------------------------

std::size_t FrameDriver::ConnIndex::home(std::uint64_t id) const noexcept {
  // Connection ids differ mostly in their low counter bits; mix64
  // spreads them.
  return static_cast<std::size_t>(core::mix64(id)) & (slots_.size() - 1);
}

std::size_t FrameDriver::ConnIndex::locate(std::uint64_t id) const noexcept {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(id); slots_[i].link; i = (i + 1) & mask) {
    if (slots_[i].id == id) return i;
  }
  return kNone;
}

FrameDriver::FrameLink* FrameDriver::ConnIndex::find(
    std::uint64_t id) const noexcept {
  const std::size_t i = locate(id);
  return i == kNone ? nullptr : slots_[i].link;
}

void FrameDriver::ConnIndex::insert(std::uint64_t id, FrameLink* link) {
  if ((size_ + 1) * 4 > slots_.size() * 3) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(id);
  while (slots_[i].link) i = (i + 1) & mask;
  slots_[i] = Slot{id, link};
  ++size_;
}

void FrameDriver::ConnIndex::erase(std::uint64_t id) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = locate(id);
  // Backward shift: each later entry of the probe run moves into the
  // hole unless its home lies cyclically after the hole, so every
  // entry stays reachable from its home without tombstones.
  for (std::size_t j = (hole + 1) & mask; slots_[j].link;
       j = (j + 1) & mask) {
    const std::size_t k = home(slots_[j].id);
    if (((j - k) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void FrameDriver::ConnIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 8 : old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.link) continue;
    std::size_t i = home(s.id);
    while (slots_[i].link) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

// ---------------------------------------------------------------------------
// FrameDriver
// ---------------------------------------------------------------------------

FrameDriver::FrameDriver(core::Host& host, std::string name)
    : Driver(std::move(name)), host_(&host) {
  obs::Registry& reg = host.engine().obs();
  obs_frames_tx_ = &reg.counter("vlink.tx.frames");
  obs_bytes_tx_ = &reg.counter("vlink.tx.bytes");
  obs_frames_rx_ = &reg.counter("vlink.rx.frames");
  obs_bytes_rx_ = &reg.counter("vlink.rx.bytes");
}

FrameDriver::~FrameDriver() {
  // Links in user hands outlive the driver, detached.  A link whose
  // connect is still in flight is ours: it dies with its callback
  // unrun, once every link is detached, so nothing its callback
  // releases can reach back into the index.
  std::vector<std::unique_ptr<FrameLink>> ours;
  conns_.for_each([&ours](FrameLink* link) {
    link->detach();
    if (link->connecting()) ours.emplace_back(link);
  });
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
  // The ephemeral counter wraps WITHIN [49152, 65535]: million-session
  // workloads must never walk it into the listener port range (data
  // frames demux by conn_id, so reusing a source port is benign).
  const core::Port src_port = next_ephemeral_;
  next_ephemeral_ = next_ephemeral_ == 65535
                        ? static_cast<core::Port>(49152)
                        : static_cast<core::Port>(next_ephemeral_ + 1);
  // The index owns the link until the accept (see handle_frame), and
  // the connect frame is paced on the horizon the link then writes on.
  auto* link =
      new FrameLink(*this, conn_id, remote.node, src_port, remote.port);
  link->set_connect(std::move(on_connect));
  wire::Header h{wire::FrameType::connect, src_port, remote.port,
                 host_->id(), conn_id};
  emit(remote.node, h, {}, link->horizon(), {});
}

FrameDriver::FrameLink* FrameDriver::link_from(core::NodeId src,
                                               std::uint64_t id) {
  FrameLink* link = conns_.find(id);
  if (link && link->remote_node() != src) {
    ++malformed_;
    return nullptr;
  }
  return link;
}

void FrameDriver::handle_frame(core::NodeId src, core::Bytes frame,
                               std::size_t offset, core::SharedBytes tail) {
  // Read before any callback below runs: a callback may destroy this
  // driver, never the engine's pool.
  core::BytesPool& pool = host_->engine().bytes_pool();
  const std::optional<wire::Header> hdr = wire::decode(
      core::ByteView(frame.data() + offset, frame.size() - offset));
  if (!hdr) {
    ++malformed_;
    pool.release(std::move(frame));
    return;
  }
  const wire::Header& h = *hdr;

  switch (h.type) {
    case wire::FrameType::connect: {
      if (conns_.find(h.conn_id)) {
        ++malformed_;  // a repeat must not re-bind a live connection
        break;
      }
      auto lit = listeners_.find(h.dst_port);
      if (lit == listeners_.end()) {
        // Paced on nothing: no connection outlives a refuse.
        core::SimTime unpaced = 0;
        wire::Header r{wire::FrameType::refuse, h.dst_port, h.src_port,
                       host_->id(), h.conn_id};
        emit(src, r, {}, unpaced, {});
        break;
      }
      auto link = std::make_unique<FrameLink>(*this, h.conn_id, src,
                                              h.dst_port, h.src_port);
      // The accept frame is paced on the link's own horizon: writes
      // made inside the accept callback queue behind it.
      wire::Header a{wire::FrameType::accept, h.dst_port, h.src_port,
                     host_->id(), h.conn_id};
      emit(src, a, {}, link->horizon(), {});
      lit->second(std::move(link));
      break;
    }
    case wire::FrameType::accept: {
      FrameLink* link = link_from(src, h.conn_id);
      if (!link || !link->connecting()) break;
      ConnectFn cb = link->take_connect();
      cb(std::unique_ptr<Link>(link));
      break;
    }
    case wire::FrameType::refuse: {
      FrameLink* link = link_from(src, h.conn_id);
      if (!link || !link->connecting()) break;
      ConnectFn cb = link->take_connect();
      delete link;  // drops its slot: no connection outlives a refuse
      cb(core::Result<std::unique_ptr<Link>>::err(
          core::Status::refused,
          name() + ": connection refused by node " + std::to_string(src)));
      break;
    }
    case wire::FrameType::data: {
      FrameLink* link = link_from(src, h.conn_id);
      if (!link || link->connecting()) break;  // stale; drop
      const std::size_t payload = offset + wire::kHeaderSize;
      obs_frames_rx_->add();
      obs_bytes_rx_->add(frame.size() - payload + tail.size());
      // The rx span covers stream reassembly plus every continuation
      // the delivery resumes.
      obs::Scope scope(host_->engine().tracer(), obs::Cat::vlink, "vlink.rx",
                       host_->id());
      // The link takes the buffer and the tail; what comes back is
      // storage no view points into any more (see Link::deliver).
      frame = link->receive(std::move(frame), payload, std::move(tail));
      break;
    }
    case wire::FrameType::header:
      // MadIO-internal frame type; never valid at the connection layer.
      ++malformed_;
      break;
  }
  pool.release(std::move(frame));
}

}  // namespace padico::vlink
