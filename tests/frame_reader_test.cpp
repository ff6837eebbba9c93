// The one frame reader both cross-process transports reassemble frames
// through (distributed/transport_core.hpp):
//
//   (a) every split of a frame's bytes — one byte per read, seven, exactly
//       the header then the rest, the whole frame — yields the same
//       ReadyFrame, for every shape the transports carry;
//   (b) the header reaches the caller before any payload byte is read, and
//       the reader never reads past its frame, so back-to-back frames
//       (a persistent worker's downlink) stay apart;
//   (c) its callers keep their named failures: bytes beyond the declared
//       frame and a header naming a foreign machine die with the socket
//       collector's diagnostics (the shm pool's twins of these fork workers
//       and live in distributed_transport_test).
#include "distributed/transport_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "distributed/protocols.hpp"
#include "distributed/socket_transport.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

/// One encoded frame of every shape a transport carries: the six summary
/// codecs, then the downlink's piece and (empty-payload) shutdown frames.
std::vector<std::vector<std::uint8_t>> frames_of_every_shape() {
  Rng rng(5);
  const std::uint32_t machine = 3;
  std::vector<std::vector<std::uint8_t>> frames;
  const EdgeList el = gnp(60, 0.1, rng);
  frames.push_back(encode_frame(el, machine));
  VcCoresetOutput vc;
  vc.residual_edges = gnp(40, 0.1, rng);
  vc.fixed_vertices = {0, 7, 39};
  frames.push_back(encode_frame(vc, machine));
  WeightedCoresetOutput weighted;
  weighted.edges.num_vertices = 8;
  weighted.edges.edges = {{0, 1, 0.5}, {2, 3, 1.0 / 3.0}, {4, 5, 1e300}};
  frames.push_back(encode_frame(weighted, machine));
  std::vector<AugmentingPath> paths(2);
  paths[0].vertices = {1, 2};
  paths[1].vertices = {3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  frames.push_back(encode_frame(paths, machine));
  frames.push_back(
      encode_frame(std::vector<VcCoresetOutput>{vc, vc}, machine));
  GroupedVcSummary grouped;
  grouped.core = vc;
  grouped.pinned_groups = {1, 38};
  frames.push_back(encode_frame(grouped, machine));
  frames.push_back(encode_piece_frame(el.edges().data(), el.num_edges(),
                                      el.num_vertices(), {1, 2, 3, 4},
                                      /*round=*/2, machine));
  frames.push_back(encode_shutdown_frame(machine));
  return frames;
}

/// Feeds `bytes` from offset `*pos` through `reader`, at most `chunk` bytes
/// per fill() call, until the frame completes. Checks that the header is
/// handed over exactly once, before any payload byte was read.
ReadyFrame read_in_chunks(const std::vector<std::uint8_t>& bytes,
                          std::size_t chunk, std::size_t* pos) {
  FrameReader reader;
  const std::size_t start = *pos;
  int headers_seen = 0;
  for (;;) {
    std::size_t budget = chunk;
    const bool complete = reader.fill(
        [&](std::uint8_t* dst, std::size_t max) {
          const std::size_t n = std::min({max, budget, bytes.size() - *pos});
          std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(*pos), n,
                      dst);
          *pos += n;
          budget -= n;
          return n;
        },
        [&](const FrameHeader&) {
          ++headers_seen;
          EXPECT_EQ(*pos - start, kFrameHeaderBytes);
        });
    if (complete) break;
    if (*pos == bytes.size()) {
      ADD_FAILURE() << "the reader wants bytes beyond a whole frame";
      return ReadyFrame{};
    }
  }
  EXPECT_EQ(headers_seen, 1);
  return reader.take();
}

TEST(FrameReader, EverySplitYieldsTheSameFrame) {
  for (const std::vector<std::uint8_t>& frame : frames_of_every_shape()) {
    const FrameHeader expected = decode_frame_header(frame.data());
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, kFrameHeaderBytes, frame.size()}) {
      std::size_t pos = 0;
      const ReadyFrame got = read_in_chunks(frame, chunk, &pos);
      EXPECT_EQ(pos, frame.size());
      EXPECT_EQ(got.header.shape, expected.shape) << "chunk " << chunk;
      EXPECT_EQ(got.header.machine, expected.machine);
      EXPECT_EQ(got.header.payload_bytes, expected.payload_bytes);
      EXPECT_TRUE(std::equal(got.payload.begin(), got.payload.end(),
                             frame.begin() + kFrameHeaderBytes, frame.end()))
          << "chunk " << chunk;
      EXPECT_EQ(got.payload.size(), frame.size() - kFrameHeaderBytes);
    }
  }
}

TEST(FrameReader, BackToBackFramesStayApart) {
  // A persistent worker's downlink carries piece, piece, ..., shutdown with
  // no gap: each read must stop exactly at its frame's last byte.
  const std::vector<std::vector<std::uint8_t>> frames =
      frames_of_every_shape();
  std::vector<std::uint8_t> stream;
  for (const auto& frame : frames) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  for (const std::size_t chunk : {std::size_t{7}, stream.size()}) {
    std::size_t pos = 0;
    for (const auto& frame : frames) {
      const ReadyFrame got = read_in_chunks(stream, chunk, &pos);
      EXPECT_EQ(got.header.shape, decode_frame_header(frame.data()).shape);
      EXPECT_EQ(got.payload.size(), frame.size() - kFrameHeaderBytes);
    }
    EXPECT_EQ(pos, stream.size());
  }
}

TEST(FrameReaderDeathTest, CorruptHeaderDiesThroughTheWireFunnel) {
  std::vector<std::uint8_t> frame = frames_of_every_shape().front();
  frame[0] ^= 0xFF;
  std::size_t pos = 0;
  EXPECT_DEATH((void)read_in_chunks(frame, 7, &pos),
               "summary wire: bad frame magic");
}

TEST(FrameReaderDeathTest, BytesBeyondTheFrameDieNamingTheMachine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        LoopbackListener listener(0);
        FrameCollector collector(listener, /*expected=*/1,
                                 /*timeout_ms=*/5000);
        EdgeList el(4);
        el.add(0, 1);
        std::vector<std::uint8_t> bytes = encode_frame(el, /*machine=*/0);
        bytes.insert(bytes.end(), {1, 2, 3, 4, 5});
        const int fd = connect_to_leader(listener.port(), 1000);
        send_all(fd, bytes.data(), bytes.size());
        (void)collector.next_ready();
      },
      "socket transport: machine 0 sent 5 bytes beyond its declared frame");
}

TEST(FrameReaderDeathTest, ForeignMachineHeaderDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        LoopbackListener listener(0);
        FrameCollector collector(listener, /*expected=*/2,
                                 /*timeout_ms=*/5000);
        EdgeList el(4);
        el.add(0, 1);
        const std::vector<std::uint8_t> frame = encode_frame(el, 5);
        const int fd = connect_to_leader(listener.port(), 1000);
        send_all(fd, frame.data(), frame.size());
        (void)collector.next_ready();
      },
      "socket transport: frame names machine 5 but only 2 machines exist");
}

}  // namespace
}  // namespace rcc
