#include "avsec/fault/context.hpp"

namespace avsec::fault {

SimContext::SimContext(std::size_t trace_capacity)
    : recorder_(trace_capacity) {}

void SimContext::reset() {
  sim_.reset();
  recorder_.reset();
  ++resets_;
}

}  // namespace avsec::fault
