#include "net/madio_driver.hpp"

#include <utility>

namespace padico::net {

namespace wire = vlink::wire;

MadIODriver::MadIODriver(MadIO& io, std::string name)
    : FrameDriver(io.madeleine().host(), std::move(name),
                  /*pooled_frames=*/false),
      io_(&io) {
  // Frames arrive in Madeleine's message buffers, plain allocations:
  // the link adopts them and leftovers are freed.
  io_->set_handler(MadIO::kVLinkTag,
                   [this](core::NodeId src, mad::UnpackHandle& h) {
                     const std::size_t offset = h.consumed();
                     handle_frame(src, h.take_buffer(), offset);
                   });
}

bool MadIODriver::reaches(core::NodeId node) const {
  return io_->reaches(node);
}

void MadIODriver::emit(core::NodeId dst, const wire::Header& h,
                       core::ByteView payload, core::SimTime& /*horizon*/,
                       core::SharedBytes tail) {
  mad::PackHandle handle = io_->begin(MadIO::kVLinkTag, dst);
  handle.pack(wire::encode(h));
  // Both borrowed until end_packing flushes, which happens before emit
  // returns — the single copy is the gather onto the wire.
  if (!payload.empty()) handle.pack(payload, mad::SendMode::later);
  if (!tail.empty()) handle.pack(tail.view(), mad::SendMode::later);
  io_->end(std::move(handle), MadIO::kVLinkTag, dst);
}

}  // namespace padico::net
