// Plain-text edge-list I/O.
//
// Format:
//   line 1: "n m"            (vertex count, edge count)
//   m lines: "u v"           (0-based endpoints)
// Lines starting with '#' are comments.
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace rcc {

/// Writes the edge list; aborts on I/O failure.
void write_edge_list(const EdgeList& edges, const std::string& path);

/// Reads an edge list written by write_edge_list (or hand-authored in the
/// same format). Malformed input aborts with an "edge list io:" diagnostic
/// naming the file, the line and the problem: a missing or unparseable
/// header, a vertex count beyond 32-bit ids, a row without two ids, an
/// id >= n, a self-loop, fewer rows than the header claims, or data rows
/// beyond them. Checked once per row here, so
/// EdgeList::add keeps its debug-only check.
EdgeList read_edge_list(const std::string& path);

}  // namespace rcc
