#include "graph/edge_list.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "graph/io.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(Edge, MakeEdgeNormalizes) {
  const Edge e = make_edge(5, 2);
  EXPECT_EQ(e.u, 2u);
  EXPECT_EQ(e.v, 5u);
  EXPECT_EQ(make_edge(2, 5), e);
}

TEST(Edge, OtherEndpoint) {
  const Edge e = make_edge(3, 8);
  EXPECT_EQ(e.other(3), 8u);
  EXPECT_EQ(e.other(8), 3u);
}

TEST(Edge, HashEqualForBothOrientations) {
  EdgeHash h;
  EXPECT_EQ(h(make_edge(1, 2)), h(make_edge(2, 1)));
  EXPECT_NE(h(make_edge(1, 2)), h(make_edge(1, 3)));
}

TEST(EdgeList, AddNormalizesAndCounts) {
  EdgeList el(10);
  el.add(7, 3);
  el.add(1, 2);
  EXPECT_EQ(el.num_edges(), 2u);
  EXPECT_EQ(el[0], make_edge(3, 7));
}

TEST(EdgeList, ConstructorNormalizesGivenEdges) {
  EdgeList el(5, {{3, 1}, {0, 4}});
  EXPECT_EQ(el[0], make_edge(1, 3));
  EXPECT_EQ(el[1], make_edge(0, 4));
}

TEST(EdgeListDeathTest, SelfLoopRejected) {
  EdgeList el(5);
  EXPECT_DEATH(el.add(2, 2), "RCC_CHECK");
}

TEST(EdgeList, Degrees) {
  EdgeList el(4);
  el.add(0, 1);
  el.add(0, 2);
  el.add(0, 3);
  el.add(1, 2);
  const auto deg = el.degrees();
  EXPECT_EQ(deg[0], 3u);
  EXPECT_EQ(deg[1], 2u);
  EXPECT_EQ(deg[2], 2u);
  EXPECT_EQ(deg[3], 1u);
}

TEST(EdgeList, DegreesCountParallelEdges) {
  EdgeList el(3);
  el.add(0, 1);
  el.add(1, 0);
  const auto deg = el.degrees();
  EXPECT_EQ(deg[0], 2u);
  EXPECT_EQ(deg[1], 2u);
}

TEST(EdgeList, DedupRemovesParallelEdges) {
  EdgeList el(3);
  el.add(0, 1);
  el.add(1, 0);
  el.add(1, 2);
  EXPECT_TRUE(el.has_parallel_edges());
  el.dedup();
  EXPECT_EQ(el.num_edges(), 2u);
  EXPECT_FALSE(el.has_parallel_edges());
}

TEST(EdgeList, SortOrdersLexicographically) {
  EdgeList el(5);
  el.add(3, 4);
  el.add(0, 2);
  el.add(0, 1);
  el.sort();
  EXPECT_EQ(el[0], make_edge(0, 1));
  EXPECT_EQ(el[1], make_edge(0, 2));
  EXPECT_EQ(el[2], make_edge(3, 4));
}

TEST(EdgeList, FilterKeepsMatchingEdges) {
  EdgeList el(6);
  for (VertexId v = 1; v < 6; ++v) el.add(0, v);
  const EdgeList odd = el.filter([](const Edge& e) { return e.v % 2 == 1; });
  EXPECT_EQ(odd.num_edges(), 3u);  // 1, 3, 5
}

TEST(EdgeList, AppendConcatenates) {
  EdgeList a(4);
  a.add(0, 1);
  EdgeList b(4);
  b.add(2, 3);
  a.append(b);
  EXPECT_EQ(a.num_edges(), 2u);
}

TEST(EdgeList, UnionOfParts) {
  EdgeList a(4), b(4), c(4);
  a.add(0, 1);
  b.add(1, 2);
  c.add(2, 3);
  const EdgeList u = EdgeList::union_of({a, b, c});
  EXPECT_EQ(u.num_edges(), 3u);
  EXPECT_EQ(u.num_vertices(), 4u);
}

TEST(EdgeList, SampleEdgesExactCount) {
  EdgeList el(100);
  for (VertexId v = 1; v < 100; ++v) el.add(0, v);
  Rng rng(1);
  const EdgeList sampled = el.sample_edges(10, rng);
  EXPECT_EQ(sampled.num_edges(), 10u);
  EXPECT_FALSE(sampled.has_parallel_edges());
}

TEST(EdgeList, SampleMoreThanAvailableReturnsAll) {
  EdgeList el(5);
  el.add(0, 1);
  el.add(2, 3);
  Rng rng(2);
  EXPECT_EQ(el.sample_edges(10, rng).num_edges(), 2u);
}

TEST(EdgeList, SubsampleRateZeroAndOne) {
  EdgeList el(10);
  for (VertexId v = 1; v < 10; ++v) el.add(0, v);
  Rng rng(3);
  EXPECT_EQ(el.subsample(0.0, rng).num_edges(), 0u);
  EXPECT_EQ(el.subsample(1.0, rng).num_edges(), 9u);
}

TEST(EdgeList, SubsampleExpectedSize) {
  EdgeList el(10000);
  for (VertexId v = 1; v < 10000; ++v) el.add(0, v);
  Rng rng(4);
  double total = 0;
  const int reps = 50;
  for (int r = 0; r < reps; ++r) {
    total += static_cast<double>(el.subsample(0.3, rng).num_edges());
  }
  EXPECT_NEAR(total / reps / 9999.0, 0.3, 0.02);
}

TEST(EdgeList, EmptyBehaviour) {
  EdgeList el(3);
  EXPECT_TRUE(el.empty());
  EXPECT_EQ(el.degrees().size(), 3u);
  Rng rng(5);
  EXPECT_TRUE(el.subsample(0.5, rng).empty());
  EXPECT_TRUE(el.sample_edges(5, rng).empty());
}

// Text ingest validates every row once, in Release too: a malformed file
// dies with an "edge list io:" diagnostic naming the file's line and the
// problem, while EdgeList::add keeps its debug-only check.

std::string write_text(const char* name, const char* contents) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::ofstream(path) << contents;
  return path;
}

TEST(EdgeListIoDeathTest, MissingHeaderDies) {
  const std::string path = write_text("no_header.txt", "# only a comment\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*no_header.txt: no \"n m\" header line");
}

TEST(EdgeListIoDeathTest, UnparseableHeaderDies) {
  const std::string path = write_text("bad_header.txt", "four two\n0 1\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*bad_header.txt:1: header is not \"n m\"");
}

TEST(EdgeListIoDeathTest, VertexCountBeyondVertexIdDies) {
  const std::string path = write_text("huge_n.txt", "4294967296 1\n0 1\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*huge_n.txt:1: vertex count 4294967296 does "
               "not fit a 32-bit vertex id");
}

TEST(EdgeListIoDeathTest, RowWithoutTwoIdsDies) {
  const std::string path = write_text("short_row.txt", "4 2\n0 1\n2\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*short_row.txt:3: edge row is not two vertex "
               "ids");
}

TEST(EdgeListIoDeathTest, OutOfRangeIdDies) {
  const std::string path =
      write_text("out_of_range.txt", "4 2\n0 1\n2 4000000\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*out_of_range.txt:3: edge \\(2, 4000000\\) "
               "leaves the 4-vertex universe");
}

TEST(EdgeListIoDeathTest, SelfLoopDies) {
  const std::string path = write_text("self_loop.txt", "4 1\n2 2\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*self_loop.txt:2: edge is a self-loop at "
               "vertex 2");
}

TEST(EdgeListIoDeathTest, FewerRowsThanClaimedDies) {
  const std::string path = write_text("few_rows.txt", "4 5\n0 1\n2 3\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*few_rows.txt:3: file ends after 2 of the 5 "
               "edges the header claims");
}

TEST(EdgeListIoDeathTest, HugeClaimedCountDiesOnTheMissingRows) {
  // The claimed count must not size the allocation: a header promising
  // 10^11 edges over a one-row body dies on the missing rows, never on a
  // bad_alloc or length_error from reserving them.
  const std::string path = write_text("huge_m.txt", "4 100000000000\n0 1\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*huge_m.txt:2: file ends after 1 of the "
               "100000000000 edges the header claims");
}

TEST(EdgeListIoDeathTest, RowsBeyondClaimedCountDie) {
  const std::string path = write_text("extra_rows.txt", "4 1\n0 1\n2 3\n");
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*extra_rows.txt:3: data row beyond the 1 edges "
               "the header claims");
}

}  // namespace
}  // namespace rcc
