#include "paracosm/paracosm.hpp"

namespace paracosm::engine {

ParaCosm::ParaCosm(csm::CsmAlgorithm& alg, const graph::QueryGraph& q,
                   graph::DataGraph& g, Config config)
    : alg_(alg), engine_(g, config), handle_(engine_.add_query(alg, q)) {}

StreamResult ParaCosm::process_stream(std::span<const graph::GraphUpdate> stream,
                                      util::Clock::time_point deadline,
                                      util::CancelView cancel) {
  MultiStreamResult multi = engine_.process_stream(stream, deadline, cancel);
  StreamResult result;
  result.positive = multi.positive[handle_];
  result.negative = multi.negative[handle_];
  static_cast<StreamCounters&>(result) = std::move(multi);
  return result;
}

}  // namespace paracosm::engine
