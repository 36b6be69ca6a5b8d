#include "madeleine/madeleine.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace padico::mad {

static_assert(PackHandle::kHeadroom ==
                  drv::SanDriver::kFrameHeader + Madeleine::kHeaderSize,
              "a message's headroom holds the driver's header, then ours");

// --- PackHandle -------------------------------------------------------------

std::size_t PackHandle::grow(std::size_t n) {
  if (!tail_.empty()) {
    throw std::logic_error(
        "mad::PackHandle: nothing may be packed after a shared tail");
  }
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  ++segments_;
  return at;
}

void PackHandle::pack(core::ByteView data, SendMode mode) {
  const std::size_t at = grow(data.size());
  if (mode == SendMode::safer) {
    if (!data.empty()) std::memcpy(buf_.data() + at, data.data(), data.size());
    return;
  }
  borrows_.push_back(Borrow{at, data});
}

void PackHandle::pack(core::SharedBytes tail) {
  grow(0);
  tail_ = std::move(tail);
}

std::uint8_t* PackHandle::reserve(std::size_t n) {
  return buf_.data() + grow(n);
}

std::uint8_t* PackHandle::bytes_at(std::size_t offset, std::size_t n) {
  if (offset > packed() || n > packed() - offset) {
    throw std::out_of_range("mad::PackHandle: bytes past the packed ones");
  }
  return buf_.data() + kHeadroom + offset;
}

void PackHandle::fill_borrowed() noexcept {
  for (const Borrow& b : borrows_) {
    if (!b.src.empty()) {
      std::memcpy(buf_.data() + b.at, b.src.data(), b.src.size());
    }
  }
}

// --- Madeleine ---------------------------------------------------------------

Madeleine::Madeleine(core::Host& host, drv::SanDriver& driver)
    : host_(&host), drv_(&driver) {
  drv_->set_receiver([this](core::NodeId src, core::Bytes frame,
                            std::size_t offset, core::SharedBytes tail) {
    on_driver_message(src, std::move(frame), offset, std::move(tail));
  });
}

Channel* Madeleine::establish(std::uint8_t id) {
  auto [it, inserted] = channels_.try_emplace(id, Slot{Channel{id}, {}});
  if (!inserted) {
    throw std::invalid_argument("Madeleine: channel " + std::to_string(id) +
                                " already open");
  }
  return &it->second.channel;
}

Channel* Madeleine::open_channel() {
  if (channels_.size() > 255) {
    throw std::length_error("Madeleine: channel ids exhausted");
  }
  // Lowest free id; channels_ is ordered, so the scan is deterministic.
  std::uint8_t id = 0;
  for (const auto& [open_id, _] : channels_) {
    if (open_id != id) break;
    ++id;
  }
  return establish(id);
}

Channel* Madeleine::open_channel_at(std::uint8_t id) { return establish(id); }

void Madeleine::close_channel(Channel& channel) {
  channels_.erase(channel.id);
}

void Madeleine::set_recv_handler(Channel& channel, RecvHandler handler) {
  channels_.at(channel.id).handler = std::move(handler);
}

PackHandle Madeleine::begin_packing(Channel& channel, core::NodeId dst,
                                    std::size_t size_hint) {
  core::Bytes buf = host_->engine().bytes_pool().acquire_capacity(
      PackHandle::kHeadroom + size_hint);
  buf.resize(PackHandle::kHeadroom);
  return PackHandle(channel.id, dst, std::move(buf));
}

void Madeleine::end_packing(PackHandle handle) {
  if (handle.buf_.size() < PackHandle::kHeadroom) {
    throw std::logic_error("Madeleine::end_packing(): the handle was moved "
                           "from or already flushed");
  }
  handle.fill_borrowed();
  const std::uint16_t segments = static_cast<std::uint16_t>(handle.segments_);
  const std::uint32_t length = static_cast<std::uint32_t>(handle.byte_size());
  // Our header sits right behind the driver's headroom, which the
  // driver stamps; the buffer then travels to the receiver as is.
  std::uint8_t* header = handle.buf_.data() + drv::SanDriver::kFrameHeader;
  header[0] = kMagic;
  header[1] = handle.channel_;
  std::memcpy(header + 2, &segments, sizeof(segments));
  std::memcpy(header + 4, &length, sizeof(length));
  drv_->send(handle.dst_, std::move(handle.buf_), std::move(handle.tail_));
}

void Madeleine::on_driver_message(core::NodeId src, core::Bytes frame,
                                  std::size_t offset, core::SharedBytes tail) {
  // Read before the handler runs: it may close channels, never the
  // engine's pool.
  core::BytesPool& pool = host_->engine().bytes_pool();
  auto drop = [&] {
    ++malformed_;
    pool.release(std::move(frame));
  };
  const core::ByteView msg(frame.data() + offset, frame.size() - offset);
  if (msg.size() < kHeaderSize || msg[0] != kMagic) return drop();
  std::uint32_t length = 0;
  std::memcpy(&length, msg.data() + 4, sizeof(length));
  // The tail counts: the sender's length covers it.
  if (msg.size() - kHeaderSize + tail.size() != length) return drop();
  auto it = channels_.find(msg[1]);
  if (it == channels_.end() || !it->second.handler) {
    return drop();  // message for a channel nobody listens on
  }
  ++received_;
  UnpackHandle handle(std::move(frame), offset + kHeaderSize, std::move(tail));
  it->second.handler(src, handle);
  // What the handler did not take goes back to the pool.
  pool.release(handle.take_buffer());
}

}  // namespace padico::mad
