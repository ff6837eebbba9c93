#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(IO, RoundTripRandomGraph) {
  Rng rng(1);
  EdgeList original = gnp(100, 0.1, rng);
  const std::string path = temp_path("roundtrip.txt");
  write_edge_list(original, path);
  EdgeList loaded = read_edge_list(path);
  EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  original.sort();
  loaded.sort();
  for (std::size_t i = 0; i < loaded.num_edges(); ++i) {
    EXPECT_EQ(loaded[i], original[i]);
  }
  std::remove(path.c_str());
}

TEST(IO, RoundTripEmptyGraph) {
  const std::string path = temp_path("empty.txt");
  write_edge_list(EdgeList(7), path);
  const EdgeList loaded = read_edge_list(path);
  EXPECT_EQ(loaded.num_vertices(), 7u);
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(IO, CommentsAreSkipped) {
  const std::string path = temp_path("comments.txt");
  {
    std::ofstream out(path);
    out << "# a comment\n3 2\n# another\n0 1\n1 2\n";
  }
  const EdgeList loaded = read_edge_list(path);
  EXPECT_EQ(loaded.num_vertices(), 3u);
  EXPECT_EQ(loaded.num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(IODeathTest, MissingFileAborts) {
  EXPECT_DEATH(read_edge_list("/nonexistent/definitely/not/here.txt"),
               "edge list io: /nonexistent/definitely/not/here.txt: cannot "
               "open for reading: No such file or directory");
}

TEST(IODeathTest, UnwritablePathAborts) {
  EXPECT_DEATH(write_edge_list(EdgeList(4), "/nonexistent/dir/x.txt"),
               "edge list io: /nonexistent/dir/x.txt: cannot open for "
               "writing: No such file or directory");
}

TEST(IODeathTest, TruncatedFileAborts) {
  const std::string path = temp_path("truncated.txt");
  {
    std::ofstream out(path);
    out << "3 2\n0 1\n";  // promises 2 edges, provides 1
  }
  EXPECT_DEATH(read_edge_list(path),
               "edge list io: .*truncated.txt:2: file ends after 1 of the 2 "
               "edges");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rcc
