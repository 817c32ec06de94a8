#include <memory>

#include "src/service.h"

int main() {
  demo::Ticker ticker;
  auto svc = std::make_unique<demo::Service>(4, ticker);
  svc->run_until(3);
  std::unique_ptr<demo::Sink> sink = std::make_unique<demo::Recorder>(8);
  sink->put(svc->ticks());
  return 0;
}
