// MadIODriver: the vlink access method ("madio") carried over the
// NetAccess/MadIO arbitration stack.
//
// Connection management and stream framing are inherited from
// FrameDriver; each frame travels as the payload of a MadIO message on
// the reserved kVLinkTag.  The full SAN path of a data byte is thus
//
//   Link -> MadIODriver frame (24 B) -> MadIO header (24 B, combined or
//   detached) -> Madeleine message (8 B) -> SanDriver frame (8 B) ->
//   simulated Myrinet
//
// and incoming frames arrive already arbitrated (MadIO dispatches tag
// handlers through the node's Arbitration).
//
// Units / ownership / determinism: adds no virtual time beyond the
// layers it stacks on.  Borrows its MadIO (owned by the Grid's SAN
// stack) and installs the handler of kVLinkTag on it; the VLink owns
// the driver itself.  Each frame is one pooled Madeleine message: the
// frame header is encoded in place behind MadIO's, a copied write's
// bytes are appended (their single copy), and a shared write's block
// is packed as the message's tail, so it crosses the SAN by reference
// and the reading link reads the writer's own block.  A received frame
// arrives in the SAN message's own buffer, which the link adopts
// (`take_buffer`, no copy) with the tail (`take_tail`); leftover
// storage goes back to the engine's pool.  Inherits FrameDriver's
// connection table; no frame is paced here (the SAN has no per-stream
// cap), so emit() ignores the connection's horizon.
#pragma once

#include "net/madio.hpp"
#include "vlink/frame_driver.hpp"

namespace padico::net {

class MadIODriver final : public vlink::FrameDriver {
 public:
  MadIODriver(MadIO& io, std::string name);

  bool reaches(core::NodeId node) const override;

  MadIO& io() const noexcept { return *io_; }

 protected:
  void emit(core::NodeId dst, const vlink::wire::Header& h,
            core::ByteView payload, core::SimTime& horizon,
            core::SharedBytes tail) override;

 private:
  MadIO* io_;
};

}  // namespace padico::net
