#include "sim/engine.hpp"

#include <stdexcept>

namespace cloudcr::sim {

void Engine::throw_bad_schedule(const char* what) {
  throw std::invalid_argument(what);
}

EventId Engine::schedule_at(double time, Event event) {
  if (time < now_) {
    throw_bad_schedule("Engine::schedule_at: time is in the past");
  }
  return queue_.schedule(time, event);
}

}  // namespace cloudcr::sim
