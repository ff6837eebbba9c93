#include "graph/io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "graph/io_detail.hpp"
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

/// The diagnostic of a malformed file, formatted like io_fail's message.
[[gnu::format(printf, 1, 2)]] std::string describe(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sized;
  va_copy(sized, args);
  const int len = std::vsnprintf(nullptr, 0, fmt, sized);
  va_end(sized);
  std::string out(static_cast<std::size_t>(std::max(len, 0)) + 1, '\0');
  std::vsnprintf(out.data(), out.size(), fmt, args);
  va_end(args);
  out.pop_back();
  return out;
}

/// Whitespace inside a line: the "C" locale's isspace minus '\n', which
/// ends the line.
bool is_blank(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r' && c != '\n');
}

/// One pass over the file's bytes: hands out data lines and parses their
/// numbers in place, counting lines as std::getline would.
class LineScanner {
 public:
  LineScanner(const char* begin, const char* end) : pos_(begin), end_(end) {}

  std::size_t line_no() const { return line_no_; }
  std::size_t bytes_left() const {
    return static_cast<std::size_t>(end_ - pos_);
  }

  /// Moves to the start of the next data line, skipping empty and '#'
  /// lines; false at the end of the file.
  bool next_data_line() {
    while (pos_ != end_) {
      ++line_no_;
      if (*pos_ != '\n' && *pos_ != '#') return true;
      skip_line();
    }
    return false;
  }

  /// Parses one number of the current line: blanks, an optional sign, then
  /// decimal digits whose magnitude fits 64 bits; '-' negates modulo 2^64.
  /// Never reads past the line's '\n'.
  bool parse(unsigned long long& out) {
    while (pos_ != end_ && is_blank(*pos_)) ++pos_;
    bool negative = false;
    if (pos_ != end_ && (*pos_ == '+' || *pos_ == '-')) {
      negative = *pos_ == '-';
      ++pos_;
    }
    const char* digits = pos_;
    unsigned long long value = 0;
    bool overflow = false;
    for (; pos_ != end_; ++pos_) {
      const unsigned digit = static_cast<unsigned char>(*pos_) - '0';
      if (digit > 9) break;
      overflow |= __builtin_mul_overflow(value, 10ull, &value) ||
                  __builtin_add_overflow(value, digit, &value);
    }
    if (pos_ == digits || overflow) return false;
    out = negative ? 0ull - value : value;
    return true;
  }

  /// Moves past the current line's '\n' (or to the end of the file),
  /// ignoring whatever is left on it.
  void skip_line() {
    if (pos_ != end_ && *pos_ == '\n') {  // the usual case after a row
      ++pos_;
      return;
    }
    const void* nl = std::memchr(pos_, '\n', bytes_left());
    pos_ = nl == nullptr ? end_ : static_cast<const char*>(nl) + 1;
  }

 private:
  const char* pos_;
  const char* end_;
  std::size_t line_no_ = 0;
};

/// Owns an open file descriptor.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() { ::close(fd_); }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  int get() const { return fd_; }

 private:
  int fd_;
};

/// A read-only private mapping of a file's first `size` (> 0) bytes,
/// unmapped on destruction.
class ReadOnlyMapping {
 public:
  ReadOnlyMapping(int fd, std::size_t size, const std::string& path)
      : size_(size) {
    data_ = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd,
                   0);
    if (data_ == MAP_FAILED) {
      io_fail("%s: cannot map %zu bytes: %s", path.c_str(), size,
              std::strerror(errno));
    }
    (void)::madvise(data_, size, MADV_SEQUENTIAL);
  }
  ~ReadOnlyMapping() { ::munmap(data_, size_); }
  ReadOnlyMapping(const ReadOnlyMapping&) = delete;
  ReadOnlyMapping& operator=(const ReadOnlyMapping&) = delete;

  std::string_view bytes() const {
    return {static_cast<const char*>(data_), size_};
  }

 private:
  void* data_ = nullptr;
  std::size_t size_;
};

/// Reads a non-regular file (a pipe, a FIFO, a character device) to its
/// end in read() blocks.
std::string read_all(int fd, const std::string& path) {
  std::string text;
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  for (;;) {
    const std::size_t used = text.size();
    text.resize(used + kBlock);
    const ssize_t n = ::read(fd, text.data() + used, kBlock);
    if (n < 0 && errno == EINTR) {
      text.resize(used);
      continue;
    }
    if (n < 0) {
      io_fail("%s: read failed: %s", path.c_str(), std::strerror(errno));
    }
    text.resize(used + static_cast<std::size_t>(n));
    if (n == 0) return text;
  }
}

/// Writes all `size` bytes to `fd`, retrying short writes; a write that
/// fails (or makes no progress) aborts naming the path.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      io_fail("%s: write failed: %s", path.c_str(),
              std::strerror(n < 0 ? errno : EIO));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

}  // namespace

namespace io_detail {

std::string parse_edge_list(std::string_view text, const std::string& path,
                            EdgeList& out) {
  const char* file = path.c_str();
  LineScanner scan(text.data(), text.data() + text.size());
  if (!scan.next_data_line()) {
    return describe("%s: no \"n m\" header line", file);
  }
  unsigned long long n = 0, m = 0;  // %llu-printable in the diagnostics
  if (!scan.parse(n) || !scan.parse(m)) {
    return describe("%s:%zu: header is not \"n m\"", file, scan.line_no());
  }
  if (n > std::numeric_limits<VertexId>::max()) {
    return describe("%s:%zu: vertex count %llu does not fit a 32-bit vertex "
                    "id", file, scan.line_no(), n);
  }
  scan.skip_line();
  out = EdgeList(static_cast<VertexId>(n));
  // A lying edge count must not size the allocation: reserve no more rows
  // than the rest of the file could hold ("u v\n" takes 4 bytes or more).
  out.reserve(std::min<unsigned long long>(m, scan.bytes_left() / 4));
  for (unsigned long long i = 0; i < m; ++i) {
    if (!scan.next_data_line()) {
      return describe("%s:%zu: file ends after %llu of the %llu edges the "
                      "header claims", file, scan.line_no(), i, m);
    }
    unsigned long long u = 0, v = 0;
    if (!scan.parse(u) || !scan.parse(v)) {
      return describe("%s:%zu: edge row is not two vertex ids", file,
                      scan.line_no());
    }
    if (u >= n || v >= n) {
      return describe("%s:%zu: edge (%llu, %llu) leaves the %llu-vertex "
                      "universe", file, scan.line_no(), u, v, n);
    }
    if (u == v) {
      return describe("%s:%zu: edge is a self-loop at vertex %llu", file,
                      scan.line_no(), u);
    }
    out.add(static_cast<VertexId>(u), static_cast<VertexId>(v));
    scan.skip_line();
  }
  if (scan.next_data_line()) {
    return describe("%s:%zu: data row beyond the %llu edges the header "
                    "claims", file, scan.line_no(), m);
  }
  return {};
}

}  // namespace io_detail

void write_edge_list(const EdgeList& edges, const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    io_fail("%s: cannot open for writing: %s", path.c_str(),
            std::strerror(errno));
  }
  // Rows are formatted into one fixed buffer, flushed whenever a line of
  // two 64-bit numbers might not fit.
  constexpr std::ptrdiff_t kDigits = 20;  // of the largest 64-bit value
  char buffer[1 << 16];
  char* at = buffer;
  const auto put_pair = [&](auto a, auto b) {
    if (buffer + sizeof(buffer) - at < 2 * kDigits + 2) {
      write_all(fd, buffer, static_cast<std::size_t>(at - buffer), path);
      at = buffer;
    }
    at = std::to_chars(at, at + kDigits, a).ptr;
    *at++ = ' ';
    at = std::to_chars(at, at + kDigits, b).ptr;
    *at++ = '\n';
  };
  put_pair(edges.num_vertices(), edges.num_edges());
  for (const Edge& e : edges) put_pair(e.u, e.v);
  write_all(fd, buffer, static_cast<std::size_t>(at - buffer), path);
  if (::close(fd) != 0) {
    io_fail("%s: close failed: %s", path.c_str(), std::strerror(errno));
  }
}

EdgeList read_edge_list(const std::string& path) {
  const int raw_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw_fd < 0) {
    io_fail("%s: cannot open for reading: %s", path.c_str(),
            std::strerror(errno));
  }
  EdgeList edges;
  std::string error;
  {
    const FileDescriptor fd(raw_fd);
    struct stat st {};
    if (::fstat(fd.get(), &st) != 0) {
      io_fail("%s: cannot stat: %s", path.c_str(), std::strerror(errno));
    }
    if (S_ISREG(st.st_mode) && st.st_size > 0) {
      // Parse straight off the page cache: no staging copy, and the mapping
      // is gone before the edges reach the caller.
      const ReadOnlyMapping mapping(fd.get(),
                                    static_cast<std::size_t>(st.st_size),
                                    path);
      error = io_detail::parse_edge_list(mapping.bytes(), path, edges);
    } else {
      error = io_detail::parse_edge_list(read_all(fd.get(), path), path,
                                         edges);
    }
  }
  if (!error.empty()) io_fail("%s", error.c_str());
  return edges;
}

}  // namespace rcc
