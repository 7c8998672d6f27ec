#pragma once
/// \file step_until.hpp
/// \brief Event-by-event stepping for the shard tests that must stop at
///        the exact instant something happens.

#include "shard/sharded_cluster.hpp"

namespace idea::shard {

/// Step `cluster`'s simulator one event at a time until `done()` holds,
/// `limit` of sim time passed, or the event queue runs dry
/// (Simulator::step() returns false, so the awaited event can no longer
/// come); returns whether `done()` holds.  Stopping on the empty queue
/// turns a wait for an event that never comes into a failed assertion
/// instead of a spin.
template <typename Done>
bool step_until(ShardedCluster& cluster, SimDuration limit, Done done) {
  sim::Simulator& sim = cluster.sim();
  const SimTime deadline = sim.now() + limit;
  while (!done() && sim.now() < deadline && sim.step()) {
  }
  return done();
}

}  // namespace idea::shard
