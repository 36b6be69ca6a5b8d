#include "madeleine/madeleine.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace padico::mad {

Madeleine::Madeleine(core::Host& host, drv::SanDriver& driver)
    : host_(&host), drv_(&driver) {
  drv_->set_receiver(
      [this](core::NodeId src, core::Bytes frame, std::size_t offset) {
        on_driver_message(src, std::move(frame), offset);
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

PackHandle Madeleine::begin_packing(Channel& channel, core::NodeId dst) {
  return PackHandle(channel.id, dst);
}

void Madeleine::end_packing(PackHandle handle) {
  const std::uint16_t segments =
      static_cast<std::uint16_t>(handle.iov_.segments());
  const std::uint32_t length =
      static_cast<std::uint32_t>(handle.iov_.byte_size());
  std::uint8_t header[kHeaderSize] = {kMagic, handle.channel_};
  std::memcpy(header + 2, &segments, sizeof(segments));
  std::memcpy(header + 4, &length, sizeof(length));
  // One buffer all the way to the receiver: headroom the driver stamps
  // its header into, then ours, then the segments, each byte written
  // once.
  core::Bytes frame;
  frame.reserve(drv::SanDriver::kFrameHeader + kHeaderSize + length);
  frame.resize(drv::SanDriver::kFrameHeader);
  frame.insert(frame.end(), header, header + kHeaderSize);
  for (std::size_t i = 0; i < handle.iov_.segments(); ++i) {
    const core::ByteView seg = handle.iov_.view(i);
    frame.insert(frame.end(), seg.begin(), seg.end());
  }
  drv_->send(handle.dst_, std::move(frame));
}

void Madeleine::on_driver_message(core::NodeId src, core::Bytes frame,
                                  std::size_t offset) {
  const core::ByteView msg(frame.data() + offset, frame.size() - offset);
  if (msg.size() < kHeaderSize || msg[0] != kMagic) {
    ++malformed_;
    return;
  }
  std::uint32_t length = 0;
  std::memcpy(&length, msg.data() + 4, sizeof(length));
  if (msg.size() - kHeaderSize != length) {
    ++malformed_;
    return;
  }
  auto it = channels_.find(msg[1]);
  if (it == channels_.end() || !it->second.handler) {
    ++malformed_;  // message for a channel nobody listens on
    return;
  }
  ++received_;
  UnpackHandle handle(std::move(frame), offset + kHeaderSize);
  it->second.handler(src, handle);
}

}  // namespace padico::mad
