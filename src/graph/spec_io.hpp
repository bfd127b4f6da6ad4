// Text serialization of specifications — a small line-oriented format so
// workloads can be stored in files, versioned and exchanged (the role
// TGFF's .tgff files play for the original tool).
//
// Format (one directive per line, '#' comments):
//
//   spec <name>
//   boot_requirement <time>
//   graph <name> period <time> [est <time>]
//   task <name> [deadline <time>] [mem <prog> <data> <stack>]
//        [hw <pfus> <pins>] [assertion 0|1] [transparent 0|1]
//        exec <pe-type>=<time> [<pe-type>=<time> ...]
//   edge <src-task> <dst-task> <bytes>
//   exclude <task-a> <task-b>
//   compatible <graph-a> <graph-b>
//   unavailability <graph> <fraction>
//
// Times accept ns/us/ms/s/min suffixes (e.g. 25us, 1.5ms, 1min).
// `exec *=<time>` sets every PE type the library declares feasible.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/specification.hpp"
#include "resources/resource_library.hpp"

namespace crusade {

/// 1-based source line of every entity a parsed specification contains
/// (0 = no source anchor, e.g. a spec built in memory).  The static
/// analyzer (src/analyze, `crusade lint`) uses this to anchor diagnostics
/// to the text the user actually wrote.
struct SpecSourceMap {
  int spec_line = 0;
  int boot_requirement_line = 0;
  std::vector<int> graph_line;              ///< per graph index
  std::vector<std::vector<int>> task_line;  ///< [graph][task]
  std::vector<std::vector<int>> edge_line;  ///< [graph][edge]
  /// Line of the `compatible` directive per unordered graph pair.
  std::map<std::pair<int, int>, int> compat_line;

  int line_of_graph(int g) const;
  int line_of_task(int g, int t) const;
  int line_of_edge(int g, int e) const;
  int line_of_compat(int a, int b) const;
};

struct SpecReadOptions {
  /// When set, filled with the source line of every parsed entity.
  SpecSourceMap* source_map = nullptr;
  /// Run Specification::validate before returning (the default).  `crusade
  /// lint` turns this off so the analyzer — not the parser's first thrown
  /// Error — reports structural problems, all of them, with line anchors.
  bool validate = true;
};

/// Parses a specification from the text format.  Throws Error with a
/// line-numbered message on malformed input.
Specification read_specification(std::istream& in,
                                 const ResourceLibrary& lib);
Specification read_specification(std::istream& in, const ResourceLibrary& lib,
                                 const SpecReadOptions& options);
Specification read_specification_file(const std::string& path,
                                      const ResourceLibrary& lib);
Specification read_specification_file(const std::string& path,
                                      const ResourceLibrary& lib,
                                      const SpecReadOptions& options);

/// Writes a specification in the same format, which read_specification
/// reads back — except task preference vectors, which the format does not
/// carry: a round trip leaves them empty, so a spec with preferences can
/// synthesize a different answer after it.
void write_specification(std::ostream& out, const Specification& spec,
                         const ResourceLibrary& lib);
void write_specification_file(const std::string& path,
                              const Specification& spec,
                              const ResourceLibrary& lib);

/// Parses a time with unit suffix ("25us", "1.5ms", "60s", "1min", "80ns").
TimeNs parse_time(const std::string& text);
/// Formats a time parseable by parse_time (always integral nanoseconds).
std::string time_to_string(TimeNs t);

}  // namespace crusade
