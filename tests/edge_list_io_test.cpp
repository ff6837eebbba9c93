// Differential and mutation tests of the text edge-list format.
//
// The reader parses one pass over a mapped buffer. The reference below is the
// per-row std::istringstream reader it replaced, kept here verbatim in
// behaviour but returning its diagnostic instead of aborting. Every input —
// the generator families, a hand corpus of quirky rows and 10^5
// deterministic mutants of small seed files — must give both readers the
// same EdgeList (capacity included) or the same diagnostic.
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/io_detail.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

std::string format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

/// The istringstream-per-row reader the one-pass parser replaced; returns
/// the diagnostic it would have died with, or "" with the list in `out`.
std::string reference_read(std::istream& in, const std::string& path,
                           EdgeList& out) {
  const char* file = path.c_str();
  std::string line;
  std::size_t line_no = 0;
  auto next_data_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };
  if (!next_data_line()) return format("%s: no \"n m\" header line", file);
  std::istringstream header(line);
  unsigned long long n = 0, m = 0;
  if (!(header >> n >> m)) {
    return format("%s:%zu: header is not \"n m\"", file, line_no);
  }
  if (n > std::numeric_limits<VertexId>::max()) {
    return format("%s:%zu: vertex count %llu does not fit a 32-bit vertex id",
                  file, line_no, n);
  }
  out = EdgeList(static_cast<VertexId>(n));
  if (const std::streamoff here = in.tellg(); here >= 0) {
    const std::streamoff end = in.seekg(0, std::ios::end).tellg();
    in.seekg(here);
    out.reserve(std::min<unsigned long long>(m, (end - here) / 4));
  }
  for (unsigned long long i = 0; i < m; ++i) {
    if (!next_data_line()) {
      return format("%s:%zu: file ends after %llu of the %llu edges the "
                    "header claims", file, line_no, i, m);
    }
    std::istringstream row(line);
    unsigned long long u = 0, v = 0;
    if (!(row >> u >> v)) {
      return format("%s:%zu: edge row is not two vertex ids", file, line_no);
    }
    if (u >= n || v >= n) {
      return format("%s:%zu: edge (%llu, %llu) leaves the %llu-vertex "
                    "universe", file, line_no, u, v, n);
    }
    if (u == v) {
      return format("%s:%zu: edge is a self-loop at vertex %llu", file,
                    line_no, u);
    }
    out.add(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  if (next_data_line()) {
    return format("%s:%zu: data row beyond the %llu edges the header claims",
                  file, line_no, m);
  }
  return {};
}

/// The ostream-per-edge writer write_edge_list replaced.
std::string reference_write(const EdgeList& edges) {
  std::ostringstream out;
  out << edges.num_vertices() << ' ' << edges.num_edges() << '\n';
  for (const Edge& e : edges) out << e.u << ' ' << e.v << '\n';
  return out.str();
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/edge_list_io_" + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

/// Printable form of a mutant for failure messages.
std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text.substr(0, 400)) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += c;
    } else {
      out += format("\\x%02x", static_cast<unsigned char>(c));
    }
  }
  return out;
}

struct Outcome {
  std::string error;
  EdgeList edges;
};

Outcome parse_new(const std::string& text) {
  Outcome o;
  o.error = io_detail::parse_edge_list(text, "mutant.txt", o.edges);
  return o;
}

Outcome parse_reference(const std::string& text) {
  Outcome o;
  std::istringstream in(text);
  o.error = reference_read(in, "mutant.txt", o.edges);
  return o;
}

/// "" when both outcomes agree, else what differs. A failed parse is
/// compared in full too: the rows before the bad one and the reserved
/// capacity, which pins the reserve cap on files whose count lies.
std::string difference(const Outcome& got, const Outcome& want) {
  if (got.error != want.error) {
    return "diagnostic \"" + got.error + "\" vs reference \"" + want.error +
           "\"";
  }
  if (got.edges.num_vertices() != want.edges.num_vertices()) {
    return format("n %u vs reference %u", got.edges.num_vertices(),
                  want.edges.num_vertices());
  }
  if (got.edges.edges() != want.edges.edges()) return "edge lists differ";
  if (got.edges.edges().capacity() != want.edges.edges().capacity()) {
    return format("capacity %zu vs reference %zu",
                  got.edges.edges().capacity(),
                  want.edges.edges().capacity());
  }
  return {};
}

void expect_same_as_reference(const std::string& text) {
  const std::string diff = difference(parse_new(text), parse_reference(text));
  EXPECT_EQ(diff, "") << "input: \"" << escaped(text) << "\"";
}

// ---------------------------------------------------------------------------
// Generator families, through the public file API (mapped read, buffered
// write).

std::vector<std::pair<std::string, EdgeList>> generator_families() {
  std::vector<std::pair<std::string, EdgeList>> families;
  Rng rng(17);
  families.emplace_back("gnm", gnm(2000, 20000, rng));
  families.emplace_back("bipartite", random_bipartite(800, 1200, 0.01, rng));
  families.emplace_back("chung_lu", chung_lu_power_law(3000, 2.5, 12.0, rng));
  families.emplace_back("empty", EdgeList(9));
  families.emplace_back("single_vertex", EdgeList(1));
  return families;
}

TEST(EdgeListIo, GeneratorFamiliesMatchTheReferenceWriterAndReader) {
  for (const auto& [name, graph] : generator_families()) {
    SCOPED_TRACE(name);
    const std::string path = temp_path(name + ".txt");
    write_edge_list(graph, path);
    const std::string bytes = file_bytes(path);
    EXPECT_EQ(bytes, reference_write(graph));

    const EdgeList loaded = read_edge_list(path);
    EdgeList reference;
    std::ifstream in(path);
    ASSERT_EQ(reference_read(in, path, reference), "");
    EXPECT_EQ(loaded.num_vertices(), graph.num_vertices());
    EXPECT_EQ(loaded.edges(), graph.edges());
    EXPECT_EQ(loaded.edges(), reference.edges());
    EXPECT_EQ(loaded.edges().capacity(), reference.edges().capacity());
    EXPECT_EQ(loaded.edges().capacity(), graph.num_edges());
    std::remove(path.c_str());
  }
}

TEST(EdgeListIo, WriterSpansManyBufferFlushes) {
  // ~60k rows of up to 22 bytes cross the writer's 64 KiB buffer often,
  // including rows with the widest 32-bit ids.
  EdgeList graph(std::numeric_limits<VertexId>::max());
  Rng rng(3);
  for (int i = 0; i < 60000; ++i) {
    const auto u =
        static_cast<VertexId>(1 + rng.next_below(graph.num_vertices() - 1));
    graph.add(u, u - 1);
  }
  const std::string path = temp_path("wide.txt");
  write_edge_list(graph, path);
  EXPECT_EQ(file_bytes(path), reference_write(graph));
  EXPECT_EQ(read_edge_list(path).edges(), graph.edges());
  std::remove(path.c_str());
}

TEST(EdgeListIo, MappingIsGoneWhenTheReaderReturns) {
  Rng rng(5);
  const EdgeList graph = gnm(500, 4000, rng);
  const std::string path = temp_path("unmapped.txt");
  write_edge_list(graph, path);
  EXPECT_EQ(read_edge_list(path).edges(), graph.edges());
  const std::string maps = file_bytes("/proc/self/maps");
  ASSERT_FALSE(maps.empty());
  EXPECT_EQ(maps.find(path), std::string::npos) << maps;
  std::remove(path.c_str());
}

TEST(EdgeListIo, FifoIsReadInBlocks) {
  // A pipe cannot be mapped: the reader falls back to read() and must give
  // the same list. The writer thread holds more than one 64 KiB block.
  Rng rng(11);
  const EdgeList graph = gnm(3000, 15000, rng);
  const std::string path = temp_path("fifo");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::string text = reference_write(graph);
  ASSERT_GT(text.size(), std::size_t{1} << 16);
  std::thread writer([&] {
    std::ofstream(path, std::ios::binary) << text;
  });
  const EdgeList loaded = read_edge_list(path);
  writer.join();
  EXPECT_EQ(loaded.num_vertices(), graph.num_vertices());
  EXPECT_EQ(loaded.edges(), graph.edges());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hand corpus: the quirks of `istream >> unsigned long long`, pinned both
// against the reference and by value.

TEST(EdgeListIo, QuirkyRowsParseAsTheStreamReaderDid) {
  const std::vector<std::pair<std::string, Edge>> accepted = {
      {"3 1\n+1 2\n", Edge{1, 2}},
      {"3 1\n1+2\n", Edge{1, 2}},
      {"3 1\n1 2 junk\n", Edge{1, 2}},
      {"3 1\n1 2junk\n", Edge{1, 2}},
      {"3 1\n1\t2\n", Edge{1, 2}},
      {"3 1\n 1\r2\v\n", Edge{1, 2}},
      {"3 1\n\f2\f1\f\n", Edge{1, 2}},
      {"3 1\r\n1 2\r\n", Edge{1, 2}},
      {"3 1\n-0 2\n", Edge{0, 2}},
      {"3 1\n0002 001\n", Edge{1, 2}},
      {"3 1\n-18446744073709551615 2\n", Edge{1, 2}},
      {"3 1\n1 2", Edge{1, 2}},
      {"# c\n\n3 1\n# c\n\n1 2\n# trailing\n\n", Edge{1, 2}},
      {"3 1 extra\n1 2\n", Edge{1, 2}},
      {"3 1\n1 2\n#\n", Edge{1, 2}},
  };
  for (const auto& [text, edge] : accepted) {
    SCOPED_TRACE(escaped(text));
    expect_same_as_reference(text);
    const Outcome o = parse_new(text);
    ASSERT_EQ(o.error, "");
    ASSERT_EQ(o.edges.num_edges(), 1u);
    EXPECT_EQ(o.edges[0], edge);
  }

  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"3 1\n-1 2\n",
       "mutant.txt:2: edge (18446744073709551615, 2) leaves the 3-vertex "
       "universe"},
      {"3 1\n1-2\n",
       "mutant.txt:2: edge (1, 18446744073709551614) leaves the 3-vertex "
       "universe"},
      {"3 1\n1,2\n", "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n0x1 2\n", "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n18446744073709551616 2\n",
       "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n-18446744073709551616 2\n",
       "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n \t \n", "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n\r\n1 2\n", "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n # 1 2\n", "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n+ 1 2\n", "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n++1 2\n", "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n1.5 2\n", "mutant.txt:2: edge row is not two vertex ids"},
      {"3 1\n1\n2\n", "mutant.txt:2: edge row is not two vertex ids"},
      {"", "mutant.txt: no \"n m\" header line"},
      {"\n\n# only comments\n", "mutant.txt: no \"n m\" header line"},
      {"3\n1 2\n", "mutant.txt:1: header is not \"n m\""},
      {"3 -\n", "mutant.txt:1: header is not \"n m\""},
      {"-1 0\n",
       "mutant.txt:1: vertex count 18446744073709551615 does not fit a "
       "32-bit vertex id"},
      {"3 2\n1 2", "mutant.txt:2: file ends after 1 of the 2 edges the "
                   "header claims"},
      {"3 0\n1 2\n",
       "mutant.txt:2: data row beyond the 0 edges the header claims"},
      {"3 1\n1 1\n", "mutant.txt:2: edge is a self-loop at vertex 1"},
  };
  for (const auto& [text, diagnostic] : rejected) {
    SCOPED_TRACE(escaped(text));
    expect_same_as_reference(text);
    EXPECT_EQ(parse_new(text).error, diagnostic);
  }
}

TEST(EdgeListIo, LyingCountReservesNoMoreThanTheFileCanHold) {
  // 10^11 claimed edges over "0 1\n": the reserve is capped by the 4 bytes
  // after the header line, and the missing rows are the diagnostic.
  const Outcome o = parse_new("4 100000000000\n0 1\n");
  EXPECT_EQ(o.error, "mutant.txt:2: file ends after 1 of the 100000000000 "
                     "edges the header claims");
  EXPECT_EQ(o.edges.edges().capacity(), 1u);
  EXPECT_EQ(parse_new("4 100000000000\n0 1\n2 3\n1 2\n").edges.edges()
                .capacity(),
            3u);
}

// ---------------------------------------------------------------------------
// Deterministic mutation differential.

std::vector<std::string> seed_files() {
  std::vector<std::string> seeds;
  Rng rng(23);
  seeds.push_back(reference_write(gnm(12, 18, rng)));
  seeds.push_back(reference_write(random_bipartite(6, 7, 0.3, rng)));
  seeds.push_back(reference_write(chung_lu_power_law(20, 2.5, 3.0, rng)));
  seeds.push_back(reference_write(EdgeList(5)));
  seeds.push_back(reference_write(EdgeList(1)));
  seeds.push_back("# header follows\n\n6 4\n0 1\n# mid\n2 3\n\n4 5\n1 5");
  seeds.push_back("6 3\r\n+0\t1\r\n 2 3 junk\r\n4\v5\f\r\n");
  seeds.push_back("4294967295 2\n4294967294 0\n1 4294967293\n");
  return seeds;
}

/// One random edit: a bit flip, a truncation, a lie in the header's counts,
/// a splice from another seed, or an inserted, replaced or deleted byte
/// drawn from the bytes the grammar cares about.
void mutate(std::string& text, const std::vector<std::string>& seeds,
            Rng& rng) {
  static const char kInteresting[] = " \t\r\v\f\n+-#0123456789x,.";
  static const char* const kCounts[] = {
      "0",          "1",          "2",
      "3",          "17",         "4294967295",
      "4294967296", "-1",         "+5",
      "18446744073709551615",     "18446744073709551616",
      "100000000000"};
  const auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.next_below(text.size() + extra));
  };
  switch (rng.next_below(7)) {
    case 0:  // bit flip
      if (!text.empty()) text[pos(0)] ^= static_cast<char>(1u << rng.next_below(8));
      break;
    case 1:  // truncation
      text.resize(pos(1));
      break;
    case 2: {  // count lie: rewrite the first line's n or m
      const std::size_t eol = std::min(text.find('\n'), text.size());
      const std::size_t space = text.find(' ');
      const std::string count = kCounts[rng.next_below(std::size(kCounts))];
      if (space < eol && rng.next_below(2) == 0) {
        text = text.substr(0, space + 1) + count + text.substr(eol);
      } else {
        text = count + text.substr(std::min(space, eol));
      }
      break;
    }
    case 3: {  // splice a slice of a seed into a random position
      const std::string& donor = seeds[rng.next_below(seeds.size())];
      const std::size_t from = rng.next_below(donor.size() + 1);
      const std::size_t len = rng.next_below(donor.size() - from + 1);
      text.insert(pos(1), donor, from, len);
      break;
    }
    case 4:  // sign / whitespace / digit insertion
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos(1)),
                  kInteresting[rng.next_below(sizeof(kInteresting) - 1)]);
      break;
    case 5:  // replace a byte with any byte
      if (!text.empty()) text[pos(0)] = static_cast<char>(rng.next_below(256));
      break;
    default: {  // delete a short range
      const std::size_t at = pos(1);
      text.erase(at, rng.next_below(8));
      break;
    }
  }
}

TEST(EdgeListIo, HundredThousandMutantsMatchTheReference) {
  const std::vector<std::string> seeds = seed_files();
  for (const std::string& seed : seeds) expect_same_as_reference(seed);

  constexpr int kMutants = 100000;
  Rng rng(2024);
  int accepted = 0, rejected = 0, failures = 0;
  for (int i = 0; i < kMutants && failures < 5; ++i) {
    std::string text = seeds[rng.next_below(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) mutate(text, seeds, rng);
    const Outcome got = parse_new(text);
    const std::string diff = difference(got, parse_reference(text));
    if (!diff.empty()) {
      ++failures;
      ADD_FAILURE() << "mutant " << i << ": " << diff << "\ninput: \""
                    << escaped(text) << "\"";
    }
    ++(got.error.empty() ? accepted : rejected);
  }
  // Both outcomes must be common, or the differential checks one path only.
  EXPECT_GT(accepted, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 4);
}

// ---------------------------------------------------------------------------
// The public entry points' own failure modes.

TEST(EdgeListIoDeathTest, ZeroByteFileHasNoHeader) {
  const std::string path = temp_path("zero.txt");
  write_bytes(path, "");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*zero.txt: no \"n m\" header line");
  std::remove(path.c_str());
}

TEST(EdgeListIoDeathTest, MalformedMappedFileNamesItsLine) {
  const std::string path = temp_path("malformed.txt");
  write_bytes(path, "# c\n5 2\n0 1\n3 x\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*malformed.txt:4: edge row is not two vertex "
               "ids");
  std::remove(path.c_str());
}

TEST(EdgeListIoDeathTest, FailedWriteNamesPathAndError) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  Rng rng(9);
  const EdgeList graph = gnm(100, 300, rng);
  EXPECT_DEATH(write_edge_list(graph, "/dev/full"),
               "edge list io: /dev/full: write failed: No space left on "
               "device");
}

}  // namespace
}  // namespace rcc
