// The non-aborting core of read_edge_list, for tests that compare it with a
// reference reader in process. Library users call read_edge_list (io.hpp).
#pragma once

#include <string>
#include <string_view>

#include "graph/edge_list.hpp"

namespace rcc::io_detail {

/// Parses `text`, the whole contents of the file named `path`, into `out`
/// in the grammar io.hpp states. Returns the empty string on success, else
/// the diagnostic read_edge_list dies with, without its "edge list io: "
/// prefix; `out` then holds the rows before the bad one. The edge vector is
/// reserved once, at min(m, bytes after the header line / 4).
std::string parse_edge_list(std::string_view text, const std::string& path,
                            EdgeList& out);

}  // namespace rcc::io_detail
