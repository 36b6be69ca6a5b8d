#include "vlink/adapter_driver.hpp"

#include <stdexcept>
#include <utility>

namespace padico::vlink {

AdapterDriver::AdapterDriver(core::Host& host, Driver& base, std::string name,
                             core::Port port_mask)
    : Driver(std::move(name)), host_(&host), base_(&base),
      port_mask_(port_mask) {}

void AdapterDriver::listen(core::Port port, AcceptFn on_accept) {
  // A silent overwrite of the base listener would swallow one of the
  // two streams of traffic; fail loudly instead.
  if (!can_listen(port)) {
    throw std::logic_error(
        name() + ": rendezvous port " + std::to_string(rendezvous_port(port)) +
        " (for logical port " + std::to_string(port) +
        ") is already listened on via " + base_->name());
  }
  listeners_[port] = std::move(on_accept);
  base_->listen(rendezvous_port(port), [this, w = alive(), port](
                                           std::unique_ptr<Link> link) {
    if (w.expired()) return;
    // Lazy sweep: links whose hello was handled since the last accept
    // are outside their own delivery now.
    std::erase_if(staged_, [](const auto& kv) { return kv.second.done; });
    const std::uint64_t key = next_stage_key_++;
    Staged& s = staged_[key];
    s.link = std::move(link);
    s.port = port;
    s.link->set_datagram_handler([this, w, key](core::ByteView hello) {
      if (!w.expired()) on_first_message(key, hello);
    });
  });
}

void AdapterDriver::unlisten(core::Port port) {
  if (listeners_.erase(port) == 0) return;
  base_->unlisten(rendezvous_port(port));
}

void AdapterDriver::on_first_message(std::uint64_t key, core::ByteView hello) {
  auto it = staged_.find(key);
  if (it == staged_.end() || it->second.done) return;
  Staged& s = it->second;
  s.done = true;
  auto lit = listeners_.find(s.port);
  if (lit == listeners_.end()) return;  // unlistened mid-establishment
  if (!on_hello(s.link, s.port, hello, lit->second)) ++malformed_hellos_;
}

}  // namespace padico::vlink
