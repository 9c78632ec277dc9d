// The mlecd wire codec: hostile-input limits on the JSON parser, bit-exact
// double round-trips, decimal-string u64s, and the Estimate <-> JSON
// mapping the memo cache's bit-identity contract rides on.
#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "server/json.hpp"

namespace mlec::server {
namespace {

TEST(Json, ParsesTheUsualShapes) {
  const json::Value v = json::parse(R"({"a":[1,2.5,-3e2],"b":{"c":true,"d":null},"e":"x"})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get("a")->as_array().size(), 3u);
  EXPECT_EQ(v.get("a")->as_array()[1].as_number(), 2.5);
  EXPECT_TRUE(v.get("b")->get("c")->as_bool());
  EXPECT_TRUE(v.get("b")->get("d")->is_null());
  EXPECT_EQ(v.str_or("e", ""), "x");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "nul", "\"unterminated",
                          "{\"a\":1}trailing", "01", "+1", "\"\t\""}) {
    EXPECT_THROW(json::parse(bad), json::Error) << bad;
  }
}

TEST(Json, EnforcesParseLimits) {
  json::ParseLimits tiny;
  tiny.max_bytes = 8;
  EXPECT_THROW(json::parse("\"123456789\"", tiny), json::Error);

  EXPECT_THROW(json::parse(std::string(80, '[') + std::string(80, ']')), json::Error);

  json::ParseLimits few_nodes;
  few_nodes.max_nodes = 4;
  EXPECT_THROW(json::parse("[1,2,3,4,5,6]", few_nodes), json::Error);

  json::ParseLimits short_strings;
  short_strings.max_string_bytes = 4;
  EXPECT_THROW(json::parse("\"too long\"", short_strings), json::Error);
}

TEST(Json, DumpNeverEmitsARawNewlineAndRoundTripsBytes) {
  // Control chars, a backslash, quotes, and deliberately invalid UTF-8:
  // the frame stays one line and the bytes survive the round trip.
  const std::string hostile = std::string("a\nb\tc\x01\"\\") + "\xff\xfe tail";
  json::Value v = json::Value::object();
  v.set("s", hostile);
  const std::string wire = json::dump(v);
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  EXPECT_EQ(json::parse(wire).str_or("s", ""), hostile);
}

TEST(Json, SurrogatePairsDecodeToUtf8) {
  const json::Value v = json::parse("\"\\ud83d\\ude00\"");
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(json::parse("\"\\ud83d\""), json::Error);  // lone high surrogate
}

TEST(Json, DoublesRoundTripBitExactly) {
  for (const double x : {0.1, 1.0 / 3.0, 1.2345678901234567e-300, -0.0,
                         6.02214076e23, 5e-324}) {
    json::Value v = json::Value::object();
    v.set("x", x);
    const double back = json::parse(json::dump(v)).num_or("x", 0.0);
    EXPECT_EQ(std::signbit(back), std::signbit(x));
    EXPECT_EQ(back, x);
  }
  json::Value inf = json::Value::object();
  inf.set("x", std::numeric_limits<double>::infinity());
  EXPECT_THROW(json::dump(inf), json::Error);
}

TEST(Json, U64sTravelAsDecimalStrings) {
  EXPECT_EQ(json::u64_from_string(json::u64_to_string(0)), 0u);
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(json::u64_from_string(json::u64_to_string(max)), max);
  EXPECT_THROW(json::u64_from_string("18446744073709551616"), json::Error);  // 2^64
  EXPECT_THROW(json::u64_from_string(""), json::Error);
  EXPECT_THROW(json::u64_from_string("12x"), json::Error);
  EXPECT_THROW(json::u64_from_string("-1"), json::Error);
}

TEST(Json, WrongKindMembersThrowInsteadOfDefaulting) {
  const json::Value v = json::parse(R"({"n":"not-a-number"})");
  EXPECT_THROW(v.num_or("n", 0.0), json::Error);
  EXPECT_EQ(v.num_or("absent", 4.0), 4.0);
}

TEST(Protocol, PriorityNamesAndLanes) {
  EXPECT_EQ(parse_priority("interactive"), Priority::kInteractive);
  EXPECT_EQ(parse_priority("normal"), Priority::kNormal);
  EXPECT_EQ(parse_priority("batch"), Priority::kBatch);
  EXPECT_THROW(parse_priority("urgent"), json::Error);
  EXPECT_EQ(std::string(to_string(Priority::kBatch)), "batch");
  EXPECT_EQ(lane_for(Priority::kInteractive), kLaneInteractive);
  EXPECT_EQ(lane_for(Priority::kBatch), kLaneBatch);
}

TEST(Protocol, EstimateRoundTripsBitExactly) {
  Estimate est;
  est.method = "sim";
  est.provenance = "campaign simulation";
  est.pdl = 1.2345678901234567e-7;
  est.nines = -std::log10(est.pdl);
  est.pdl_lo = est.pdl / 3.0;
  est.pdl_hi = est.pdl * 3.0;
  est.stochastic = true;
  est.samples = (std::uint64_t{1} << 60) + 12345;
  est.exposure_hours = 0.1;
  est.cat_rate_per_year = 1.0 / 7.0;
  est.cross_rack_tb = 1234.5678;
  est.coverage = 0.75;
  est.truncated = true;
  est.converged = true;
  est.resumed = true;
  est.degraded = true;
  est.degrade_note = "2 shards quarantined";
  est.events_processed = (std::uint64_t{1} << 61) + 1;
  est.rng_draws = (std::uint64_t{1} << 62) + 7;
  est.elapsed_s = 1.5;

  const Estimate back = estimate_from_json(estimate_to_json(est));
  EXPECT_EQ(back.method, est.method);
  EXPECT_EQ(back.provenance, est.provenance);
  EXPECT_EQ(back.pdl, est.pdl);
  EXPECT_EQ(back.nines, est.nines);
  EXPECT_EQ(back.pdl_lo, est.pdl_lo);
  EXPECT_EQ(back.pdl_hi, est.pdl_hi);
  EXPECT_EQ(back.stochastic, est.stochastic);
  EXPECT_EQ(back.samples, est.samples);
  EXPECT_EQ(back.exposure_hours, est.exposure_hours);
  EXPECT_EQ(back.cat_rate_per_year, est.cat_rate_per_year);
  EXPECT_EQ(back.cross_rack_tb, est.cross_rack_tb);
  EXPECT_EQ(back.coverage, est.coverage);
  EXPECT_EQ(back.truncated, est.truncated);
  EXPECT_EQ(back.converged, est.converged);
  EXPECT_EQ(back.resumed, est.resumed);
  EXPECT_EQ(back.degraded, est.degraded);
  EXPECT_EQ(back.degrade_note, est.degrade_note);
  EXPECT_EQ(back.events_processed, est.events_processed);
  EXPECT_EQ(back.rng_draws, est.rng_draws);
  EXPECT_EQ(back.elapsed_s, est.elapsed_s);
}

TEST(Protocol, ZeroPdlComesBackAsInfiniteNines) {
  Estimate est;
  est.method = "dp";
  est.pdl = 0.0;
  est.nines = std::numeric_limits<double>::infinity();
  // nines has no JSON encoding when infinite; it is recomputed from pdl.
  const Estimate back = estimate_from_json(estimate_to_json(est));
  EXPECT_EQ(back.pdl, 0.0);
  EXPECT_TRUE(std::isinf(back.nines));
}

}  // namespace
}  // namespace mlec::server
