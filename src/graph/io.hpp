// Plain-text edge-list I/O.
//
// Format:
//   line 1: "n m"            (vertex count, edge count)
//   m lines: "u v"           (0-based endpoints)
// Lines starting with '#' are comments.
//
// Accepted grammar, exactly that of reading each line with
// `std::istringstream >> unsigned long long` in the "C" locale:
//   - Lines end at '\n'. An empty line or one whose first byte is '#' is
//     skipped; every other line is a data line, so a whitespace-only line
//     or " # x" is a (malformed) data row. Line numbers in diagnostics
//     count every line, skipped ones included.
//   - A number is optional whitespace (' ', '\t', '\v', '\f', '\r'), an
//     optional '+' or '-', then one or more decimal digits. Its magnitude
//     must fit 64 bits; '-' negates modulo 2^64, so "-0" reads 0 and "-1"
//     reads 18446744073709551615 (and then leaves the universe). "0x1" is
//     0 followed by "x1"; "1,2" is 1 followed by no number.
//   - A number ends at its first non-digit, which need not be whitespace:
//     "1+2" reads 1 and 2. Bytes after a line's wanted numbers are
//     ignored: "1 2 junk" and "1 2junk" are the edge (1, 2).
//   - The first data line holds n and m, with n < 2^32. The next m data
//     lines each hold u and v with u, v < n and u != v. No data line may
//     follow them.
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace rcc {

/// Writes the edge list, one "u v" row per edge after the "n m" header;
/// aborts with an "edge list io:" diagnostic naming the path and the
/// system error when the file cannot be opened, written or closed.
void write_edge_list(const EdgeList& edges, const std::string& path);

/// Reads an edge list written by write_edge_list (or hand-authored in the
/// same format). Malformed input aborts with an "edge list io:" diagnostic
/// naming the file, the line and the problem: a missing or unparseable
/// header, a vertex count beyond 32-bit ids, a row without two ids, an
/// id >= n, a self-loop, fewer rows than the header claims, or data rows
/// beyond them. Checked once per row here, so
/// EdgeList::add keeps its debug-only check. A regular file is parsed in
/// one pass over a read-only mapping that is gone on return; a pipe or
/// other non-regular file is read into memory first.
EdgeList read_edge_list(const std::string& path);

}  // namespace rcc
