#include "graph/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/types.hpp"

namespace rcc {

namespace {

/// Prints "edge list io: <formatted message>" to stderr and aborts — the
/// pack_fail / wire_fail of text ingest.
[[noreturn]] void io_fail(const char* fmt, ...) {
  std::fputs("edge list io: ", stderr);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace

void write_edge_list(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    io_fail("%s: cannot open for writing: %s", path.c_str(),
            std::strerror(errno));
  }
  out << edges.num_vertices() << ' ' << edges.num_edges() << '\n';
  for (const Edge& e : edges) out << e.u << ' ' << e.v << '\n';
  out.flush();
  if (!out.good()) {
    io_fail("%s: write failed: %s", path.c_str(), std::strerror(errno));
  }
}

EdgeList read_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    io_fail("%s: cannot open for reading: %s", path.c_str(),
            std::strerror(errno));
  }
  std::string line;
  std::size_t line_no = 0;
  auto next_data_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };
  if (!next_data_line()) {
    io_fail("%s: no \"n m\" header line", path.c_str());
  }
  std::istringstream header(line);
  unsigned long long n = 0, m = 0;  // %llu-printable in the diagnostics
  if (!(header >> n >> m)) {
    io_fail("%s:%zu: header is not \"n m\"", path.c_str(), line_no);
  }
  if (n > std::numeric_limits<VertexId>::max()) {
    io_fail("%s:%zu: vertex count %llu does not fit a 32-bit vertex id",
            path.c_str(), line_no, n);
  }
  EdgeList edges(static_cast<VertexId>(n));
  // A lying edge count must not size the allocation: reserve no more rows
  // than the rest of the file could hold ("u v\n" takes 4 bytes or more).
  if (const std::streamoff here = in.tellg(); here >= 0) {
    const std::streamoff end = in.seekg(0, std::ios::end).tellg();
    in.seekg(here);
    edges.reserve(std::min<unsigned long long>(m, (end - here) / 4));
  }
  for (unsigned long long i = 0; i < m; ++i) {
    if (!next_data_line()) {
      io_fail("%s:%zu: file ends after %llu of the %llu edges the header "
              "claims", path.c_str(), line_no, i, m);
    }
    std::istringstream row(line);
    unsigned long long u = 0, v = 0;
    if (!(row >> u >> v)) {
      io_fail("%s:%zu: edge row is not two vertex ids", path.c_str(),
              line_no);
    }
    if (u >= n || v >= n) {
      io_fail("%s:%zu: edge (%llu, %llu) leaves the %llu-vertex universe",
              path.c_str(), line_no, u, v, n);
    }
    if (u == v) {
      io_fail("%s:%zu: edge is a self-loop at vertex %llu", path.c_str(),
              line_no, u);
    }
    edges.add(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  if (next_data_line()) {
    io_fail("%s:%zu: data row beyond the %llu edges the header claims",
            path.c_str(), line_no, m);
  }
  return edges;
}

}  // namespace rcc
