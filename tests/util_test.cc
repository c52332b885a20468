// Tests for src/util: strings, bytes, rng, status, worker pool.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/worker_pool.h"

namespace dice {
namespace {

// --- strings -----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a\t b \n c  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  hi  "), "hi");
  EXPECT_EQ(TrimWhitespace("hi"), "hi");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("router x", "router"));
  EXPECT_FALSE(StartsWith("rout", "router"));
  EXPECT_TRUE(EndsWith("a.cfg", ".cfg"));
  EXPECT_FALSE(EndsWith("cfg", ".cfg"));
}

TEST(StringsTest, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("-42"), -42);
  EXPECT_EQ(ParseInt64("+7"), 7);
  EXPECT_EQ(ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(ParseInt64("9223372036854775808").has_value());  // overflow
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("-").has_value());
  EXPECT_FALSE(ParseInt64(" 1").has_value());
}

TEST(StringsTest, ParseUint64Strict) {
  EXPECT_EQ(ParseUint64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("").has_value());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d/%s", 3, "x"), "3/x");
  EXPECT_EQ(StrFormat("%.2f", 0.125), "0.12");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// --- bytes -------------------------------------------------------------------

TEST(BytesTest, WriterBigEndian) {
  ByteWriter w;
  w.PutU8(0x01);
  w.PutU16(0x0203);
  w.PutU32(0x04050607);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4, 5, 6, 7}));
}

TEST(BytesTest, WriterU64) {
  ByteWriter w;
  w.PutU64(0x0102030405060708ULL);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(BytesTest, ReaderRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0xcdef);
  w.PutU32(0x12345678);
  w.PutU64(0xdeadbeefcafef00dULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU8().value(), 0xab);
  EXPECT_EQ(r.ReadU16().value(), 0xcdef);
  EXPECT_EQ(r.ReadU32().value(), 0x12345678u);
  EXPECT_EQ(r.ReadU64().value(), 0xdeadbeefcafef00dULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ReaderTruncationIsError) {
  Bytes data{1, 2};
  ByteReader r(data);
  EXPECT_TRUE(r.ReadU32().status().code() == StatusCode::kOutOfRange);
  // Failed read consumes nothing.
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.ReadU16().value(), 0x0102);
}

TEST(BytesTest, PatchU16) {
  ByteWriter w;
  w.PutU16(0);
  w.PutU8(9);
  w.PatchU16(0, 0xbeef);
  EXPECT_EQ(w.bytes(), (Bytes{0xbe, 0xef, 9}));
}

TEST(BytesTest, SkipAndReadBytes) {
  Bytes data{1, 2, 3, 4, 5};
  ByteReader r(data);
  ASSERT_TRUE(r.Skip(2).ok());
  EXPECT_EQ(r.ReadBytes(2).value(), (Bytes{3, 4}));
  EXPECT_FALSE(r.Skip(2).ok());
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(BytesTest, VarintRoundTripsAcrossMagnitudes) {
  const uint64_t values[] = {0,           1,          0x7f,
                             0x80,        0x3fff,     0x4000,
                             1234567890u, UINT32_MAX, UINT64_MAX};
  ByteWriter w;
  for (uint64_t v : values) {
    w.PutVarU64(v);
  }
  ByteReader r(w.bytes());
  for (uint64_t v : values) {
    EXPECT_EQ(r.ReadVarU64().value(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintSizesMatchLeb128) {
  auto encoded_size = [](uint64_t v) {
    ByteWriter w;
    w.PutVarU64(v);
    return w.bytes().size();
  };
  EXPECT_EQ(encoded_size(0), 1u);
  EXPECT_EQ(encoded_size(0x7f), 1u);
  EXPECT_EQ(encoded_size(0x80), 2u);
  EXPECT_EQ(encoded_size(0x3fff), 2u);
  EXPECT_EQ(encoded_size(0x4000), 3u);
  EXPECT_EQ(encoded_size(UINT64_MAX), 10u);
}

TEST(BytesTest, VarintTruncationIsError) {
  ByteWriter w;
  w.PutVarU64(UINT64_MAX);
  for (size_t len = 0; len < w.bytes().size(); ++len) {
    Bytes truncated(w.bytes().begin(), w.bytes().begin() + len);
    ByteReader r(truncated);
    EXPECT_FALSE(r.ReadVarU64().ok()) << "length " << len << " decoded";
  }
}

TEST(BytesTest, VarintRejectsOverlongAndOverflowingEncodings) {
  // Eleven continuation bytes: no 64-bit value needs more than ten.
  Bytes overlong(11, 0x80);
  ByteReader r1(overlong);
  EXPECT_FALSE(r1.ReadVarU64().ok());

  // Ten bytes whose terminal byte sets more than the one bit a 64-bit value
  // has left: the encoding claims a 65-bit value.
  Bytes overflow(9, 0x80);
  overflow.push_back(0x02);
  ByteReader r2(overflow);
  EXPECT_FALSE(r2.ReadVarU64().ok());

  // The same shape with terminal byte 0x01 is the canonical UINT64_MAX tail.
  Bytes max(9, 0xff);
  max.push_back(0x01);
  ByteReader r3(max);
  EXPECT_EQ(r3.ReadVarU64().value(), UINT64_MAX);
}

TEST(BytesTest, HexDump) {
  EXPECT_EQ(HexDump({0x00, 0xff, 0x10}), "00 ff 10");
  EXPECT_EQ(HexDump({}), "");
}

// --- rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(13);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.NextWeighted(w), 1u);
  }
}

TEST(RngTest, ZipfIsHeavyTailed) {
  Rng rng(17);
  size_t rank0 = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    size_t r = rng.NextZipf(1000, 1.1);
    EXPECT_LT(r, 1000u);
    if (r == 0) {
      ++rank0;
    }
  }
  // Rank 0 should be far more popular than uniform (1/1000).
  EXPECT_GT(rank0, static_cast<size_t>(kSamples / 200));
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- status ------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, StatusOrValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusTest, StatusOrError) {
  StatusOr<int> v = NotFoundError("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> HalveEven(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseMacros(int x, int* out) {
  DICE_ASSIGN_OR_RETURN(int half, HalveEven(x));
  DICE_RETURN_IF_ERROR(Status::Ok());
  *out = half;
  return Status::Ok();
}

TEST(StatusTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseMacros(3, &out).code(), StatusCode::kInvalidArgument);
}

// --- worker pool ---------------------------------------------------------------

TEST(WorkerPoolTest, ExecutesEveryTaskAndDrains) {
  // The destructor drains: every task submitted before it runs exactly once.
  std::vector<std::atomic<int>> counters(64);
  for (int round = 0; round < 3; ++round) {
    {
      util::WorkerPool pool(4);
      EXPECT_EQ(pool.size(), 4u);
      for (size_t i = 0; i < counters.size(); ++i) {
        pool.Submit([&counters, i] { counters[i].fetch_add(1); });
      }
    }
    for (size_t i = 0; i < counters.size(); ++i) {
      EXPECT_EQ(counters[i].load(), round + 1);
    }
  }
}

TEST(WorkerPoolTest, DrainOnEmptyPoolReturnsImmediately) {
  // A pool with nothing submitted destructs without waiting on any task, and
  // a zero width still starts one worker.
  util::WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

}  // namespace
}  // namespace dice
