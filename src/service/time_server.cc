#include "service/time_server.h"

namespace mtds::service {

TimeServer::TimeServer(ServerId id, std::unique_ptr<core::Clock> clock,
                       const ServerSpec& spec, sim::EventQueue& queue,
                       ServiceNetwork& network, sim::Trace* trace, sim::Rng rng)
    : runtime_(queue, network),
      chaos_(spec.chaos.active()
                 ? std::make_unique<runtime::FaultInjector>(
                       runtime_.transport(), runtime_.timers(),
                       runtime_.wall(), spec.chaos)
                 : nullptr),
      engine_(id, std::move(clock), spec,
              runtime::Runtime{chaos_ != nullptr
                                   ? static_cast<runtime::Transport*>(
                                         chaos_.get())
                                   : &runtime_.transport(),
                               &runtime_.timers(), &runtime_.wall()},
              trace, rng) {
  if (chaos_ != nullptr) {
    chaos_->set_state_corruptor(
        [this](std::uint64_t nonce) { engine_.corrupt_state(nonce); });
  }
}

}  // namespace mtds::service
