// Self-tests of the benchmark's own machinery: the open-loop schedule, the
// tail-safe percentile, miss accounting, output digests, span self-time
// arithmetic and the run log's sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "harness.hpp"
#include "runlog.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

std::string schedule_digest(std::uint64_t seed) {
  Digest d;
  for (const Arrival& a : make_schedule(seed, 2000.0, 1.0, 29)) {
    d.u64(static_cast<std::uint64_t>(a.due_ns));
    d.u64(a.scenario);
    d.u64(a.seed);
    d.str(request_line("can-baseline", a.seed, 10000));
  }
  return d.hex();
}

TEST(Schedule, ByteStablePerSeed) {
  EXPECT_EQ(schedule_digest(1), schedule_digest(1));
  EXPECT_NE(schedule_digest(1), schedule_digest(2));
  // Pinned: a change here changes every serve_open_loop input.
  EXPECT_EQ(schedule_digest(1), "f1bb902882f1d8c9");
}

TEST(Schedule, PoissonRateAndUniformDraw) {
  const auto s = make_schedule(7, 2000.0, 10.0, 29);
  ASSERT_GT(s.size(), 19000u);
  ASSERT_LT(s.size(), 21000u);
  std::vector<int> per(29, 0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(s[i].due_ns, s[i - 1].due_ns);
    }
    EXPECT_LT(s[i].due_ns, 10'000'000'000);
    ++per[s[i].scenario];
  }
  for (const int n : per) EXPECT_GT(n, 500);
}

TEST(Schedule, RequestLineIsWhatParseRequestAccepts) {
  avsec::serve::Request req;
  std::string error;
  ASSERT_TRUE(avsec::serve::parse_request(request_line("link-baseline", 42, 10000),
                                          req, error))
      << error;
  EXPECT_EQ(req.scenario, "link-baseline");
  ASSERT_EQ(req.seeds.size(), 1u);
  EXPECT_EQ(req.seeds[0], 42u);
  EXPECT_EQ(req.deadline_ms, 10000);
}

TEST(Seeds, EveryPassGetsFreshSeeds) {
  EXPECT_EQ(derive_seed(1, 0, 0), derive_seed(1, 0, 0));
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(1, 1, 0));
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(1, 0, 1));
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  std::vector<double> xs;
  for (int i = 1; i <= 999; ++i) xs.push_back(i);
  std::string error;
  EXPECT_FALSE(percentile(xs, 99.0, &error).has_value());
  EXPECT_NE(error.find(">= 10 samples"), std::string::npos);
  xs.push_back(1000);
  ASSERT_TRUE(percentile(xs, 99.0).has_value());
  EXPECT_EQ(*percentile(xs, 99.0), 990.0);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(percentile(small, 50.0).has_value());
  small.push_back(2.0);
  EXPECT_EQ(*percentile(small, 50.0), 1.0);
  EXPECT_FALSE(percentile({}, 50.0).has_value());
}

TEST(Percentile, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Latency, NonOkReplyIsAMiss) {
  avsec::serve::Reply ok;
  ok.status = avsec::serve::ReplyStatus::kOk;
  ok.latency_ms = 0.25;
  EXPECT_DOUBLE_EQ(request_latency_ms(ok, 0.05), 0.30);
  for (const auto status :
       {avsec::serve::ReplyStatus::kDegraded, avsec::serve::ReplyStatus::kOverloaded,
        avsec::serve::ReplyStatus::kExpired, avsec::serve::ReplyStatus::kRejected,
        avsec::serve::ReplyStatus::kInfeasible,
        avsec::serve::ReplyStatus::kQuarantined}) {
    avsec::serve::Reply r = ok;
    r.status = status;
    EXPECT_TRUE(std::isinf(request_latency_ms(r, 0.05)));
  }
  // Eleven misses among 100 replies push p90 past every limit.
  std::vector<double> xs(89, 0.3);
  xs.insert(xs.end(), 11, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(*percentile(xs, 90.0)));
}

avsec::fault::CampaignReport sample_report() {
  avsec::fault::CampaignReport r;
  r.runs = 1;
  avsec::fault::RunOutcome o;
  o.seed = 9;
  o.metrics["frames_ok"] = 12.0;
  r.outcomes.push_back(o);
  r.aggregate["frames_ok"].add(12.0);
  return r;
}

TEST(Digest, DetectsAOneBitChange) {
  Digest a, b;
  digest_report(a, sample_report());
  avsec::fault::CampaignReport changed = sample_report();
  changed.outcomes[0].metrics["frames_ok"] = std::nextafter(12.0, 13.0);
  digest_report(b, changed);
  EXPECT_NE(a.hex(), b.hex());

  Digest again;
  digest_report(again, sample_report());
  std::string error;
  EXPECT_TRUE(digest_matches(a.hex(), again.hex(), &error));
  EXPECT_FALSE(digest_matches(a.hex(), b.hex(), &error));
  EXPECT_NE(error.find(a.hex()), std::string::npos);
  EXPECT_NE(error.find(b.hex()), std::string::npos);
}

TEST(Digest, OrderMatters) {
  Digest ab, ba;
  ab.str("a");
  ab.str("b");
  ba.str("b");
  ba.str("a");
  EXPECT_NE(ab.hex(), ba.hex());
  Digest split, joined;
  split.str("ab");
  split.str("");
  joined.str("a");
  joined.str("b");
  EXPECT_NE(split.hex(), joined.hex());
}

Span make_span(const char* name, std::uint64_t id, std::uint64_t parent,
               std::uint32_t thread, std::int64_t start, std::int64_t end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Spans, SelfTimeSubtractsSameThreadChildrenOnly) {
  const std::vector<Span> all = {
      make_span("sweep", 1, 0, 0, 0, 100),
      make_span("inner", 2, 1, 0, 10, 40),
      make_span("leaf", 3, 2, 0, 15, 25),
      make_span("run", 4, 1, 1, 20, 90),  // other thread: concurrent
      make_span("run", 5, 1, 2, 30, 60),
  };
  const auto t = self_times(all);
  EXPECT_EQ(t.at("sweep").total_ns, 100);
  EXPECT_EQ(t.at("sweep").self_ns, 70);
  EXPECT_EQ(t.at("inner").self_ns, 20);
  EXPECT_EQ(t.at("leaf").self_ns, 10);
  EXPECT_EQ(t.at("run").total_ns, 100);
  EXPECT_EQ(t.at("run").self_ns, 100);
  EXPECT_EQ(t.at("run").count, 2u);
}

TEST(Spans, RecordOnlyWhenEnabledAndNestOnTheThread) {
  spans::clear();
  { ScopedSpan off("off", 1); }
  EXPECT_TRUE(spans::collect().empty());
  spans::set_enabled(true);
  std::uint64_t outer_id = 0;
  {
    ScopedSpan outer("outer", 7);
    outer_id = outer.id();
    ScopedSpan inner("inner", 8);
  }
  { ScopedSpan explicit_parent("other", 9, outer_id); }
  spans::set_enabled(false);
  const auto all = spans::collect();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].parent, 0u);
  EXPECT_EQ(all[1].parent, outer_id);
  EXPECT_EQ(all[2].parent, outer_id);
  EXPECT_EQ(all[1].tag, 8u);
  EXPECT_LE(all[0].start_ns, all[1].start_ns);
  EXPECT_GE(all[0].end_ns, all[1].end_ns);
  spans::clear();
}

TEST(RunLog, FullLogKeepsEvenlySpacedSamples) {
  RunLog log(1);
  const std::uint64_t runs = 3 * RunLog::kCapacity;
  for (std::uint64_t i = 0; i < runs; ++i) log.add(0, i, 1000, 2, {});
  EXPECT_EQ(log.counts()[0].runs, runs);
  EXPECT_EQ(log.counts()[0].events, 2 * runs);
  const std::vector<RunSample> s = log.samples();
  // Stride 4 after two halvings: runs 0, 4, 8, ... are the samples.
  ASSERT_EQ(s.size(), runs / 4);
  for (std::size_t i = 0; i < s.size(); ++i) ASSERT_EQ(s[i].seed, 4 * i);
  log.clear();
  log.add(0, 7, 1000, 1, {});
  ASSERT_EQ(log.samples().size(), 1u);
  EXPECT_EQ(log.samples()[0].seed, 7u);
}

}  // namespace
}  // namespace perfbench
