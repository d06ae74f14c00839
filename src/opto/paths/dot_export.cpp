#include "opto/paths/dot_export.hpp"

#include <sstream>

namespace opto {
namespace {

/// A small qualitative palette, cycled by load.
const char* load_color(std::uint32_t load) {
  static const char* kColors[] = {"#4477aa", "#66ccee", "#228833",
                                  "#ccbb44", "#ee6677", "#aa3377"};
  return kColors[std::min<std::uint32_t>(load, 6) - 1];
}

}  // namespace

void write_dot(std::ostream& os, const Graph& graph) {
  os << "graph \"" << graph.name() << "\" {\n"
     << "  layout=neato;\n  node [shape=circle, fontsize=10];\n";
  for (EdgeId e = 0; e < graph.link_count(); e += 2)
    os << "  " << graph.source(e) << " -- " << graph.target(e) << ";\n";
  os << "}\n";
}

void write_dot(std::ostream& os, const PathCollection& collection) {
  const Graph& graph = collection.graph();
  const auto loads = collection.link_loads();
  os << "digraph \"" << graph.name() << "\" {\n"
     << "  layout=neato;\n  node [shape=circle, fontsize=10];\n";
  // Endpoints of paths get emphasis.
  for (const PathView p : collection.paths()) {
    os << "  " << p.source() << " [style=filled, fillcolor=\"#ddeeff\"];\n";
    os << "  " << p.destination()
       << " [style=filled, fillcolor=\"#ffeedd\"];\n";
  }
  for (EdgeId e = 0; e < graph.link_count(); ++e) {
    const std::uint32_t load = loads[e];
    if (load == 0) {
      // Draw each unused undirected edge once, grey.
      if (e % 2 == 0 && loads[e ^ 1] == 0)
        os << "  " << graph.source(e) << " -> " << graph.target(e)
           << " [dir=none, color=\"#cccccc\"];\n";
      continue;
    }
    os << "  " << graph.source(e) << " -> " << graph.target(e)
       << " [color=\"" << load_color(load) << "\", penwidth="
       << std::min(5u, load) << ", label=\"" << load << "\"];\n";
  }
  os << "}\n";
}

std::string to_dot(const Graph& graph) {
  std::ostringstream os;
  write_dot(os, graph);
  return os.str();
}

std::string to_dot(const PathCollection& collection) {
  std::ostringstream os;
  write_dot(os, collection);
  return os.str();
}

}  // namespace opto
