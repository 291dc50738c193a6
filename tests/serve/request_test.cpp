// Wire-type tests: render_reply() byte layout (the determinism surface)
// and parse_request() acceptance/rejection.
#include "avsec/serve/request.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace {

using namespace avsec::serve;

TEST(RenderReply, RejectLayoutIsExact) {
  Reply r;
  r.ticket = 3;
  r.status = ReplyStatus::kInfeasible;
  r.scenario = "ivn-can";
  r.detail = "deadline below the scenario's static cost floor";
  EXPECT_EQ(render_reply(r),
            "{\"id\":3,\"status\":\"infeasible\",\"scenario\":\"ivn-can\","
            "\"scale\":\"full\",\"detail\":\"deadline below the scenario's "
            "static cost floor\",\"seeds\":[],\"aggregate\":{}}");
}

TEST(RenderReply, SeedsAndAggregateRenderInOrder) {
  Reply r;
  r.ticket = 0;
  r.status = ReplyStatus::kOk;
  r.scenario = "s";
  SeedOutcome a;
  a.seed = 1;
  a.metrics["m"] = 1.5;
  SeedOutcome b;
  b.seed = 2;
  b.metrics["m"] = 2.5;
  r.seeds = {a, b};
  r.aggregate["m"].add(1.5);
  r.aggregate["m"].add(2.5);
  EXPECT_EQ(render_reply(r),
            "{\"id\":0,\"status\":\"ok\",\"scenario\":\"s\",\"scale\":"
            "\"full\",\"detail\":\"\",\"seeds\":[{\"seed\":1,\"status\":"
            "\"passed\",\"attempts\":1,\"metrics\":{\"m\":1.5}},{\"seed\":2,"
            "\"status\":\"passed\",\"attempts\":1,\"metrics\":{\"m\":2.5}}],"
            "\"aggregate\":{\"m\":{\"n\":2,\"mean\":2,\"min\":1.5,"
            "\"max\":2.5}}}");
}

TEST(RenderReply, TelemetryFieldsAreExcluded) {
  // latency_ms / worker / slow_trace are wall-clock telemetry: two replies
  // differing only there must render byte-identically.
  Reply a;
  a.status = ReplyStatus::kOk;
  Reply b = a;
  b.latency_ms = 123.4;
  b.worker = 7;
  b.slow_trace = "trace text";
  EXPECT_EQ(render_reply(a), render_reply(b));
}

TEST(RenderReply, StringsAreEscaped) {
  Reply r;
  r.detail = "a \"quoted\"\nline\\";
  const std::string out = render_reply(r);
  EXPECT_NE(out.find("\"detail\":\"a \\\"quoted\\\"\\nline\\\\\""),
            std::string::npos);
}

TEST(ParseRequest, FullForm) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"scenario":"ivn-can","seeds":[1, 2,3],"deadline_ms":50,)"
      R"("max_events":1000,"trace":true})",
      req, error))
      << error;
  EXPECT_EQ(req.scenario, "ivn-can");
  EXPECT_EQ(req.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(req.deadline_ms, 50);
  EXPECT_EQ(req.max_events, 1000u);
  EXPECT_TRUE(req.trace);
}

TEST(ParseRequest, MinimalFormAndDefaults) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"scenario":"x"})", req, error)) << error;
  EXPECT_EQ(req.scenario, "x");
  EXPECT_TRUE(req.seeds.empty());
  EXPECT_EQ(req.deadline_ms, 0);
  EXPECT_EQ(req.max_events, 0u);
  EXPECT_FALSE(req.trace);
}

TEST(ParseRequest, UnknownKeysAreTolerated) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"scenario":"x","future_knob":"v","flags":[1,2],"n":-3})", req,
      error))
      << error;
  EXPECT_EQ(req.scenario, "x");
}

TEST(ParseRequest, RejectsMalformedInput) {
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request("", req, error));
  EXPECT_FALSE(parse_request("{bogus", req, error));
  EXPECT_FALSE(parse_request(R"({"seeds":[1]})", req, error));
  EXPECT_NE(error.find("scenario"), std::string::npos);
  EXPECT_FALSE(parse_request(R"({"scenario":"x"} trailing)", req, error));
  EXPECT_FALSE(parse_request(R"({"scenario":"x","max_events":-1})", req,
                             error));
}

TEST(ParseRequest, ErrorsCarryBytePositions) {
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request(R"({"scenario": 42})", req, error));
  EXPECT_NE(error.find("byte"), std::string::npos);
}

TEST(ParseRequest, DeeplyNestedUnknownValueIsRejectedNotRecursed) {
  // 200 000 nested arrays under an unknown key (a ~400 KB line): refused
  // with a message, in bounded stack, instead of one frame per '['.
  constexpr std::size_t kDepth = 200'000;
  std::string line = R"({"scenario":"ivn-can","x":)";
  line.append(kDepth, '[');
  line.append(kDepth, ']');
  line += '}';
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request(line, req, error));
  EXPECT_NE(error.find("nested"), std::string::npos) << error;
  // One level of nesting is already outside the flat-array schema.
  EXPECT_FALSE(parse_request(R"({"scenario":"x","x":[1,[2]]})", req, error));
  EXPECT_NE(error.find("nested"), std::string::npos) << error;
  EXPECT_FALSE(parse_request(R"({"scenario":"x","x":[{"a":1}]})", req, error));
}

TEST(ParseRequest, SeedAboveUint64RangeIsRejected) {
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request(
      R"({"scenario":"x","seeds":[1,99999999999999999999999]})", req, error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  // The largest representable seed still parses exactly.
  ASSERT_TRUE(parse_request(
      R"({"scenario":"x","seeds":[18446744073709551615]})", req, error))
      << error;
  EXPECT_EQ(req.seeds, (std::vector<std::uint64_t>{18446744073709551615u}));
}

TEST(ParseRequest, DeadlineAboveInt64RangeIsRejected) {
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request(
      R"({"scenario":"x","deadline_ms":9223372036854775808})", req, error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  ASSERT_TRUE(parse_request(
      R"({"scenario":"x","deadline_ms":9223372036854775807})", req, error))
      << error;
  EXPECT_EQ(req.deadline_ms, INT64_MAX);
}

TEST(ParseRequest, NegativeDeadlineIsRejected) {
  Request req;
  std::string error;
  EXPECT_FALSE(
      parse_request(R"({"scenario":"x","deadline_ms":-5})", req, error));
  EXPECT_NE(error.find("deadline_ms must be non-negative"), std::string::npos)
      << error;
}

TEST(ReplyStatusNames, AreStable) {
  EXPECT_STREQ(reply_status_name(ReplyStatus::kOk), "ok");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kDegraded), "degraded");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kQuarantined), "quarantined");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kRejected), "rejected");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kOverloaded), "overloaded");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kExpired), "expired");
}

}  // namespace
