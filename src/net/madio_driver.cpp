#include "net/madio_driver.hpp"

#include <utility>

namespace padico::net {

namespace wire = vlink::wire;

MadIODriver::MadIODriver(MadIO& io, std::string name)
    : FrameDriver(io.madeleine().host(), std::move(name)), io_(&io) {
  // A frame arrives in its SAN message's pooled buffer, its shared tail
  // beside it: the link adopts both, and handle_frame returns what is
  // left of the buffer to the pool.
  io_->set_handler(MadIO::kVLinkTag,
                   [this](core::NodeId src, mad::UnpackHandle& h) {
                     const std::size_t offset = h.consumed();
                     handle_frame(src, h.take_buffer(), offset, h.take_tail());
                   });
}

bool MadIODriver::reaches(core::NodeId node) const {
  return io_->reaches(node);
}

void MadIODriver::emit(core::NodeId dst, const wire::Header& h,
                       core::ByteView payload, core::SimTime& /*horizon*/,
                       core::SharedBytes tail) {
  mad::PackHandle handle =
      io_->begin(MadIO::kVLinkTag, dst, wire::kHeaderSize + payload.size());
  wire::encode_into(h, handle.reserve(wire::kHeaderSize));
  // A copied write's bytes are the message's one copy; a shared
  // write's block rides behind the buffer by reference.
  if (!payload.empty()) handle.pack(payload);
  if (!tail.empty()) handle.pack(std::move(tail));
  io_->end(std::move(handle));
}

}  // namespace padico::net
