#include "core/mm_sync.h"

namespace mtds::core {

SyncOutcome MinMaxErrorSync::on_reply(const LocalState& local,
                                      const TimeReading& reply) const {
  SyncOutcome out;

  // "Any reply that is inconsistent with S_i is ignored."  The reply's
  // interval and the local interval must admit a common true time.  The
  // reply was read up to one round trip ago, so - as in IM-2's reading
  // transform - its upper edge is widened by (1 + delta_i) * rtt: a reply
  // delayed in flight trails the local clock without being wrong.
  const Duration gap = reply.c - local.clock;
  const Duration span = local.error + reply.e;
  if (gap > span || -gap > span + (1.0 + local.delta) * reply.rtt_own) {
    out.inconsistent_with.push_back(reply.from);
    return out;
  }

  const Duration candidate = reply.e + (1.0 + local.delta) * reply.rtt_own;
  if (candidate <= local.error) {
    ClockReset reset;
    reset.clock = reply.c;
    reset.error = candidate;
    reset.sources.push_back(reply.from);
    out.reset = reset;
  }
  return out;
}

}  // namespace mtds::core
