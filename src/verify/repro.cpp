#include "verify/repro.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "graph/graph_io.hpp"

namespace paracosm::verify {

namespace {

constexpr std::string_view kHeader = "# paracosm_fuzz repro v1";

std::optional<Lane> lane_from_name(std::string_view name) {
  if (name == "sequential") return Lane::kSequential;
  if (name == "inner") return Lane::kInner;
  if (name == "batch") return Lane::kBatch;
  return std::nullopt;
}

}  // namespace

void save_repro(const Repro& r, std::ostream& out) {
  out << kHeader << '\n';
  out << "meta seed " << r.fuzz_case.seed << '\n';
  if (r.cell) {
    out << "meta algorithm " << r.cell->algorithm << '\n';
    out << "meta lane " << lane_name(r.cell->lane) << '\n';
    out << "meta threads " << r.cell->threads << '\n';
    if (r.cell->backend != engine::BatchBackendKind::kCpu)
      out << "meta backend " << engine::batch_backend_name(r.cell->backend) << '\n';
    if (r.cell->scheduler != engine::Scheduler::kCentralQueue)
      out << "meta scheduler " << engine::scheduler_name(r.cell->scheduler) << '\n';
    out << "meta query " << r.cell->query_index << '\n';
    if (r.cell->update_index) out << "meta update " << *r.cell->update_index << '\n';
    if (!r.cell->message.empty()) {
      // Keep the message single-line so the parser stays line-oriented.
      std::string msg = r.cell->message;
      for (char& ch : msg)
        if (ch == '\n' || ch == '\r') ch = ' ';
      out << "meta message " << msg << '\n';
    }
  }
  out << "%graph\n";
  graph::save_data_graph(r.fuzz_case.graph, out);
  for (const graph::QueryGraph& q : r.fuzz_case.queries) {
    out << "%query\n";
    graph::save_query_graph(q, out);
  }
  out << "%stream\n";
  graph::save_update_stream(r.fuzz_case.stream, out);
  out << "%end\n";
}

void save_repro_file(const Repro& r, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open repro file for writing: " + path);
  save_repro(r, out);
}

Repro load_repro(std::istream& in) {
  Repro r;
  Divergence cell;
  bool has_cell = false;

  std::string line;
  if (!std::getline(in, line) || line != kHeader)
    throw std::runtime_error("repro: missing '# paracosm_fuzz repro v1' header");

  // Pass 1: metadata lines until the first % section.
  std::string section;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '%') {
      section = line;
      break;
    }
    std::istringstream ls(line);
    std::string tag, key;
    if (!(ls >> tag) || tag != "meta") continue;
    ls >> key;
    if (key == "seed") {
      ls >> r.fuzz_case.seed;
    } else if (key == "algorithm") {
      ls >> cell.algorithm;
      has_cell = true;
    } else if (key == "lane") {
      std::string name;
      ls >> name;
      const auto lane = lane_from_name(name);
      if (!lane) throw std::runtime_error("repro: unknown lane '" + name + "'");
      cell.lane = *lane;
    } else if (key == "threads") {
      ls >> cell.threads;
    } else if (key == "backend") {
      std::string name;
      ls >> name;
      const auto kind = engine::parse_batch_backend(name);
      if (!kind) throw std::runtime_error("repro: unknown backend '" + name + "'");
      cell.backend = *kind;
    } else if (key == "scheduler") {
      std::string name;
      ls >> name;
      const auto scheduler = engine::parse_scheduler(name);
      if (!scheduler)
        throw std::runtime_error("repro: unknown scheduler '" + name + "'");
      cell.scheduler = *scheduler;
    } else if (key == "query") {
      ls >> cell.query_index;
    } else if (key == "update") {
      std::uint32_t idx = 0;
      ls >> idx;
      cell.update_index = idx;
    } else if (key == "message") {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());
      cell.message = rest;
    }
  }

  // Pass 2: % sections, each body handed to the matching graph_io loader.
  bool saw_graph = false, saw_stream = false, saw_end = false;
  while (!section.empty()) {
    std::ostringstream body;
    std::string next;
    while (std::getline(in, line)) {
      if (!line.empty() && line.front() == '%') {
        next = line;
        break;
      }
      body << line << '\n';
    }
    std::istringstream bs(body.str());
    if (section == "%graph") {
      r.fuzz_case.graph = graph::load_data_graph(bs);
      saw_graph = true;
    } else if (section == "%query") {
      r.fuzz_case.queries.push_back(graph::load_query_graph(bs));
    } else if (section == "%stream") {
      r.fuzz_case.stream = graph::load_update_stream(bs);
      saw_stream = true;
    } else if (section == "%end") {
      saw_end = true;
    } else {
      throw std::runtime_error("repro: unknown section '" + section + "'");
    }
    section = next;
    next.clear();
  }
  if (!saw_graph || !saw_stream || r.fuzz_case.queries.empty() || !saw_end)
    throw std::runtime_error("repro: incomplete file (need %graph, %query, %stream, %end)");

  if (has_cell) {
    cell.seed = r.fuzz_case.seed;
    r.cell = std::move(cell);
  }
  return r;
}

Repro load_repro_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open repro file: " + path);
  return load_repro(in);
}

std::vector<Divergence> check_repro(const Repro& r, const AlgorithmFactory& factory) {
  CheckOptions opts;
  opts.factory = factory;
  opts.stop_at_first = false;
  if (r.cell) {
    opts.algorithms = {};
    opts.algorithms.push_back(r.cell->algorithm);
    opts.lanes = {r.cell->lane_config()};
  }
  return check_case(r.fuzz_case, opts);
}

}  // namespace paracosm::verify
