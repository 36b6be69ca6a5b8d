// Logical-channel tags for NetAccess/MadIO multiplexing — and the one
// place that builds the 24-byte tagged control header both MadIO and
// the circuit layer stamp onto their messages.
//
// Ownership / determinism: everything here is a value type; no clocks,
// no allocation beyond the returned Header.  Sequence numbers are
// supplied by the caller (each layer's net::SeqBook), so traces stay
// bit-identical across runs.
#pragma once

#include <cstdint>

#include "core/time.hpp"
#include "vlink/wire.hpp"

namespace padico::net {

/// Identifies one logical stream multiplexed over a node pair's SAN
/// access.  Tags need no reservation: MadIO runs at most one handler
/// per tag, and a circuit's tag lives on the circuit's own channel.
using Tag = std::uint16_t;

/// The shared control-header shape of the tag-multiplexed layers: tag
/// in both port fields, sender in src_node, a caller-maintained
/// sequence (or connection id) in conn_id.  MadIO encodes this header
/// in front of every multiplexed message; the circuit layer stamps the
/// same shape onto circuit messages and its establishment frames.
inline vlink::wire::Header tagged_header(Tag tag, core::NodeId src,
                                         std::uint64_t seq,
                                         vlink::wire::FrameType type) {
  vlink::wire::Header h;
  h.type = type;
  h.src_port = tag;
  h.dst_port = tag;
  h.src_node = src;
  h.conn_id = seq;
  return h;
}

}  // namespace padico::net
