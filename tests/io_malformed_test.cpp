// Hostile-input matrix for io/instance_io: the readers sit on a trust
// boundary (`stripack_served --stdin` feeds them raw stdin and the TCP
// server feeds them raw frames), so every malformed document must end in
// a ContractViolation naming the offending line — never a crash, an OOM
// pre-reserve, a hang, or a silently mis-parsed instance. Each case here
// failed (crash, wrap-around reserve, or silent zero) on the
// pre-hardening reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "io/instance_io.hpp"
#include "service/solver_service.hpp"
#include "util/assert.hpp"

namespace stripack::io {
namespace {

[[nodiscard]] std::string read_error(const std::string& text) {
  std::istringstream is(text);
  try {
    const Instance instance = read_instance(is);
    (void)instance;
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return {};
}

[[nodiscard]] std::string placement_error(const std::string& text) {
  std::istringstream is(text);
  try {
    const Placement placement = read_placement(is);
    (void)placement;
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return {};
}

constexpr const char* kGood =
    "stripack-instance v1\n"
    "strip_width 10\n"
    "items 2\n"
    "4 2 0\n"
    "6 2 1\n"
    "edges 1\n"
    "0 1\n";

TEST(IoMalformed, GoodDocumentStillParses) {
  std::istringstream is(kGood);
  const Instance instance = read_instance(is);
  EXPECT_EQ(instance.size(), 2u);
  EXPECT_EQ(instance.dag().edges().size(), 1u);
}

TEST(IoMalformed, NegativeItemCountIsRejectedNotWrapped) {
  // `ss >> size_t` on "-5" wraps modulo 2^64 without setting failbit;
  // the unhardened reader pre-reserved accordingly.
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 10\nitems -5\n");
  EXPECT_NE(err.find("items count"), std::string::npos) << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(IoMalformed, AbsurdItemCountIsRejectedBeforeReserve) {
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 10\nitems 99999999999999\n");
  EXPECT_NE(err.find("items count"), std::string::npos) << err;
}

TEST(IoMalformed, NegativeEdgeCountIsRejected) {
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 10\nitems 1\n1 1 0\nedges -1\n");
  EXPECT_NE(err.find("edges count"), std::string::npos) << err;
  EXPECT_NE(err.find("line 5"), std::string::npos) << err;
}

TEST(IoMalformed, TruncatedAfterHeaderNamesNextLine) {
  const std::string err = read_error("stripack-instance v1\n");
  EXPECT_NE(err.find("unexpected end of input"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(IoMalformed, TruncatedItemListIsAnError) {
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 10\nitems 3\n4 2 0\n");
  EXPECT_NE(err.find("unexpected end of input"), std::string::npos) << err;
}

TEST(IoMalformed, NonNumericItemFieldNamesItsLine) {
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 10\nitems 1\n4 banana 0\n");
  EXPECT_NE(err.find("height"), std::string::npos) << err;
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
}

TEST(IoMalformed, NonFiniteFieldIsRejected) {
  // istream extraction happily parses "inf"/"nan"; no writer emits them
  // and they poison every downstream comparison.
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 10\nitems 1\n4 inf 0\n");
  EXPECT_NE(err.find("height"), std::string::npos) << err;
  const std::string err2 = read_error(
      "stripack-instance v1\nstrip_width nan\nitems 1\n4 2 0\n");
  EXPECT_NE(err2.find("strip_width"), std::string::npos) << err2;
}

TEST(IoMalformed, NonPositiveStripWidthIsRejected) {
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 0\nitems 1\n4 2 0\n");
  EXPECT_NE(err.find("strip_width"), std::string::npos) << err;
}

TEST(IoMalformed, EdgeEndpointOutOfRangeNamesItsLine) {
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 10\nitems 2\n4 2 0\n6 2 0\n"
      "edges 1\n0 2\n");
  EXPECT_NE(err.find("edge endpoint out of range"), std::string::npos)
      << err;
  EXPECT_NE(err.find("line 7"), std::string::npos) << err;
}

TEST(IoMalformed, NegativeEdgeEndpointIsRejectedNotWrapped) {
  const std::string err = read_error(
      "stripack-instance v1\nstrip_width 10\nitems 2\n4 2 0\n6 2 0\n"
      "edges 1\n-1 1\n");
  EXPECT_NE(err.find("edge endpoint"), std::string::npos) << err;
}

TEST(IoMalformed, WrongHeaderIsAnError) {
  const std::string err = read_error("stripack-placement v1\n");
  EXPECT_NE(err.find("stripack-instance"), std::string::npos) << err;
}

TEST(IoMalformed, PlacementNegativeCountIsRejected) {
  const std::string err =
      placement_error("stripack-placement v1\nitems -3\n");
  EXPECT_NE(err.find("items count"), std::string::npos) << err;
}

TEST(IoMalformed, PlacementNonNumericFieldNamesItsLine) {
  const std::string err =
      placement_error("stripack-placement v1\nitems 1\n0 oops\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(IoMalformed, PlacementTruncationIsAnError) {
  const std::string err =
      placement_error("stripack-placement v1\nitems 2\n0 0\n");
  EXPECT_NE(err.find("unexpected end of input"), std::string::npos) << err;
}

/// A sink whose buffer starts rejecting bytes after `capacity` — the
/// stream-level shape of a reader vanishing (SIGPIPE'd pipe) or a disk
/// filling mid-response.
class FailingBuf : public std::stringbuf {
 public:
  explicit FailingBuf(std::size_t capacity) : capacity_(capacity) {}

 protected:
  int overflow(int ch) override {
    if (written_ >= capacity_) return traits_type::eof();
    ++written_;
    return std::stringbuf::overflow(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (written_ >= capacity_) return 0;
    const std::streamsize room = std::min<std::streamsize>(
        n, static_cast<std::streamsize>(capacity_ - written_));
    const std::streamsize put = std::stringbuf::xsputn(s, room);
    written_ += static_cast<std::size_t>(put);
    return put < n ? put : n;
  }

 private:
  std::size_t capacity_;
  std::size_t written_ = 0;
};

TEST(IoMalformed, ServeStreamStopsCleanlyWhenSinkFailsAtFlush) {
  // Two good requests; measure each response's size against a healthy
  // sink first.
  const std::string requests =
      "stripack-instance v1\nstrip_width 10\nitems 2\n4 2 0\n6 2 0\n"
      "edges 0\n"
      "stripack-instance v1\nstrip_width 10\nitems 1\n4 2 0\nedges 0\n";
  std::size_t first_len = 0;
  std::size_t total_len = 0;
  {
    service::SolverService service;
    std::istringstream is(requests);
    std::ostringstream os;
    ASSERT_EQ(service.serve_stream(is, os), 2u);
    const std::string out = os.str();
    total_len = out.size();
    first_len = out.find("stripack-response v1", 1);
    ASSERT_NE(first_len, std::string::npos);
  }
  // A sink that dies between the first and second response: the writer
  // must stop at the failed flush — reporting one fully written response,
  // not hanging or pretending both went out.
  FailingBuf buf(first_len + (total_len - first_len) / 2);
  std::ostream os(&buf);
  service::SolverService service;
  std::istringstream is(requests);
  EXPECT_EQ(service.serve_stream(is, os), 1u);
  EXPECT_FALSE(os.good());

  // A sink dead on arrival writes nothing.
  FailingBuf dead(0);
  std::ostream dead_os(&dead);
  service::SolverService fresh;
  std::istringstream again(requests);
  EXPECT_EQ(fresh.serve_stream(again, dead_os), 0u);
}

}  // namespace
}  // namespace stripack::io
