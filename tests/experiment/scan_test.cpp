// The bulk-resolution scan engine and its JSONL row log.
//
//  * A fixed-seed 1k-name scan reproduces the committed golden JSONL
//    fixture byte-for-byte, at every shard count — the scan analogue of
//    the campaign's datapath wall. Regenerate intentionally with:
//      RECWILD_UPDATE_FIXTURES=1 ./build/tests/experiment_tests \
//          --gtest_filter='Scan.*'
//  * read_scan_rows round-trips what write_scan_rows emits, and rejects
//    malformed rows with 1-based line numbers (DecisionTrace's error
//    style).
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/scan.hpp"
#include "obs/names.hpp"

#ifndef RECWILD_FIXTURE_DIR
#error "RECWILD_FIXTURE_DIR must point at tests/experiment/fixtures"
#endif

namespace recwild::experiment {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string{RECWILD_FIXTURE_DIR} + "/" + name;
}

bool update_mode() {
  const char* v = std::getenv("RECWILD_UPDATE_FIXTURES");
  return v != nullptr && *v != '\0' && *v != '0';
}

std::string read_fixture(const std::string& name) {
  std::ifstream in{fixture_path(name), std::ios::binary};
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TestbedConfig scan_world_config() {
  TestbedConfig cfg;
  cfg.seed = 2026;
  cfg.population.probes = 60;
  cfg.test_sites = {"DUB", "FRA"};
  cfg.population.resolver_template.max_inflight_resolutions = 16;
  cfg.population.resolver_template.max_queued_resolutions = 256;
  return cfg;
}

ScanResult run_scan_shards(std::size_t shards, std::size_t names = 1'000) {
  Testbed tb{scan_world_config()};
  ScanConfig sc;
  sc.names = names;
  sc.shards = shards;
  return run_scan(tb, sc);
}

std::string rows_bytes(const ScanResult& result) {
  std::ostringstream out;
  obs::write_scan_rows(out, result.rows);
  return out.str();
}

TEST(Scan, EveryNameIssuedAndCompletedOnce) {
  const auto result = run_scan_shards(1, 500);
  EXPECT_EQ(result.issued, 500u);
  EXPECT_EQ(result.completed, 500u);
  ASSERT_EQ(result.rows.size(), 500u);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows[i].index, i);
    EXPECT_FALSE(result.rows[i].qname().empty()) << "row " << i;
    EXPECT_EQ(result.rows[i].rcode, "NOERROR") << "row " << i;
    EXPECT_FALSE(result.rows[i].answers().empty()) << "row " << i;
  }
  EXPECT_EQ(result.metrics.counter_value(obs::names::kScanNamesIssued),
            500u);
  EXPECT_EQ(result.metrics.counter_value(obs::names::kScanNamesCompleted),
            500u);
  EXPECT_GT(result.sim_queries_per_s, 0.0);
}

TEST(Scan, GoldenJsonlFixture) {
  const std::string produced = rows_bytes(run_scan_shards(1));
  const std::string name = "scan_seed2026_rows.jsonl";
  if (update_mode()) {
    std::ofstream out{fixture_path(name), std::ios::binary};
    out << produced;
    SUCCEED() << "fixture " << name << " updated (" << produced.size()
              << " bytes)";
    return;
  }
  const std::string expected = read_fixture(name);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << fixture_path(name)
      << " — run with RECWILD_UPDATE_FIXTURES=1 to create it";
  EXPECT_EQ(produced, expected)
      << "scan JSONL drifted from the committed fixture";
}

TEST(Scan, RowBytesIdenticalAcrossShardCounts) {
  const std::string serial = rows_bytes(run_scan_shards(1));
  EXPECT_EQ(serial, rows_bytes(run_scan_shards(2)));
  EXPECT_EQ(serial, rows_bytes(run_scan_shards(4)));
}

TEST(Scan, MetricsMergeAcrossShards) {
  const auto two = run_scan_shards(2, 400);
  EXPECT_EQ(two.metrics.counter_value(obs::names::kScanNamesIssued), 400u);
  EXPECT_EQ(two.metrics.counter_value(obs::names::kScanNamesCompleted),
            400u);
  EXPECT_EQ(two.issued, 400u);
  EXPECT_EQ(two.completed, 400u);
}

TEST(Scan, NoRowsWhenNotCollecting) {
  Testbed tb{scan_world_config()};
  ScanConfig sc;
  sc.names = 300;
  sc.collect_rows = false;
  const auto result = run_scan(tb, sc);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.rows.capacity(), 0u);
  EXPECT_EQ(result.issued, 300u);
  EXPECT_EQ(result.completed, 300u);
}

TEST(Scan, ExplicitNameListOverridesGenerator) {
  Testbed tb{scan_world_config()};
  ScanConfig sc;
  sc.names = 9999;  // ignored when name_list is set
  sc.name_list = {"a.test.nl", "b.test.nl", "c.test.nl"};
  const auto result = run_scan(tb, sc);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0].qname(), "a.test.nl.");
  EXPECT_EQ(result.rows[2].qname(), "c.test.nl.");
}

// --- JSONL round-trip and strict parsing --------------------------------

obs::ScanRow sample_row() {
  obs::ScanRow row;
  row.index = 42;
  row.set_qname("s42.test.nl");
  row.rcode = "NOERROR";
  const std::string_view answers[] = {"FRA",
                                      "weird \"quote\"\\backslash\n"};
  row.set_answers(answers);
  row.chain = 2;
  row.sim_ms = 123.456;
  row.upstream = 3;
  row.cache_hit = false;
  return row;
}

TEST(ScanLog, RoundTripsRows) {
  std::vector<obs::ScanRow> rows{sample_row()};
  rows.push_back(obs::ScanRow{});
  rows[1].index = 43;
  rows[1].set_qname("s43.test.nl");
  rows[1].rcode = "SERVFAIL";
  rows[1].cache_hit = true;

  std::ostringstream out;
  obs::write_scan_rows(out, rows);
  std::istringstream in{out.str()};
  const auto parsed = obs::read_scan_rows(in);
  ASSERT_EQ(parsed.size(), rows.size());
  EXPECT_EQ(parsed[0], rows[0]);
  EXPECT_EQ(parsed[1], rows[1]);
}

std::string write_rows(const std::vector<obs::ScanRow>& rows) {
  std::ostringstream out;
  obs::write_scan_rows(out, rows);
  return out.str();
}

std::vector<obs::ScanRow> read_rows(const std::string& text) {
  std::istringstream in{text};
  return obs::read_scan_rows(in);
}

std::vector<std::string> answers_of(const obs::ScanRow& row) {
  return {row.answers().begin(), row.answers().end()};
}

TEST(ScanLog, RowsRoundTripByteExactThroughInlineAndSpilledText) {
  // A 255-octet wire name (four labels of 63, 63, 63 and 61 octets) in
  // mixed case: 254 presentation bytes, root dot included.
  std::string long_qname;
  for (const std::size_t len : {63u, 63u, 63u, 61u}) {
    for (std::size_t i = 0; i < len; ++i) {
      long_qname.push_back(i % 2 == 0 ? static_cast<char>('A' + i % 26)
                                      : static_cast<char>('a' + i % 26));
    }
    long_qname.push_back('.');
  }
  ASSERT_EQ(long_qname.size(), 254u);

  // Many TXT strings: 255-byte ones, empty ones, and short ones with
  // bytes that JSON escapes.
  std::vector<std::string> many;
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 0) {
      many.emplace_back(255, static_cast<char>('a' + i % 26));
    } else if (i % 3 == 1) {
      many.emplace_back();
    } else {
      many.push_back("\"\\\n\r\t\x01\x7f" + std::to_string(i));
    }
  }
  const std::vector<std::string_view> many_views(many.begin(), many.end());

  std::vector<obs::ScanRow> rows(4);
  rows[0].index = 0;
  rows[0].set_qname("s0.OurTestDomain.nl.");
  rows[0].rcode = "NOERROR";
  rows[1].index = 1;
  rows[1].set_qname(long_qname);
  rows[1].rcode = "NXDOMAIN";
  rows[2].index = 2;
  rows[2].set_qname("MiXeD.case.example.");
  rows[2].set_answers(many_views);
  rows[2].rcode = "NOERROR";
  rows[2].chain = 1;
  rows[3].index = 3;
  rows[3].set_answers(many_views);  // answers first, then the qname
  rows[3].set_qname(long_qname);
  rows[3].rcode = "SERVFAIL";

  EXPECT_FALSE(rows[0].spilled());
  EXPECT_TRUE(rows[0].answers().empty());
  EXPECT_TRUE(rows[1].spilled());
  EXPECT_TRUE(rows[1].answers().empty());
  EXPECT_EQ(rows[1].qname(), long_qname);
  EXPECT_TRUE(rows[2].spilled());
  EXPECT_EQ(rows[2].qname(), "MiXeD.case.example.");
  EXPECT_EQ(answers_of(rows[2]), many);
  EXPECT_EQ(rows[3].qname(), long_qname);
  EXPECT_EQ(answers_of(rows[3]), many);

  const std::string bytes = write_rows(rows);
  const auto parsed = read_rows(bytes);
  ASSERT_EQ(parsed.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed[i], rows[i]) << "row " << i;
    EXPECT_EQ(parsed[i].qname(), rows[i].qname()) << "row " << i;
    EXPECT_EQ(answers_of(parsed[i]), answers_of(rows[i])) << "row " << i;
  }
  EXPECT_EQ(write_rows(parsed), bytes);

  // Copies and moves keep the text, inline or spilled.
  std::vector<obs::ScanRow> copied = rows;
  EXPECT_EQ(copied, rows);
  const std::vector<obs::ScanRow> moved = std::move(copied);
  EXPECT_EQ(moved, rows);
  obs::ScanRow reassigned = rows[2];
  reassigned = rows[0];
  EXPECT_EQ(reassigned, rows[0]);
  reassigned.set_answers({});
  EXPECT_EQ(reassigned.qname(), "s0.OurTestDomain.nl.");
}

TEST(ScanLog, GeneratedScanRowFitsInlineInEightyBytes) {
  static_assert(sizeof(obs::ScanRow) <= 80);
  obs::ScanRow row;
  row.set_qname("s149999.ourtestdomain.nl.");  // a 25-character scan name
  const std::string_view answer[] = {"GRU"};
  row.set_answers(answer);
  EXPECT_FALSE(row.spilled());
  EXPECT_EQ(row.qname(), "s149999.ourtestdomain.nl.");
  EXPECT_EQ(answers_of(row), std::vector<std::string>{"GRU"});
  EXPECT_TRUE(row.rcode != "NOERROR");  // compares by text: empty
  row.rcode = "NOERROR";
  EXPECT_FALSE(row.rcode != "NOERROR");
  EXPECT_THROW(row.rcode = "TWELVE-CHARS", std::length_error);
}

TEST(ScanLog, RejectsMalformedRowsWithLineNumbers) {
  const std::string good =
      R"({"i":0,"qname":"a.nl","rcode":"NOERROR","answers":[],"chain":0,)"
      R"("sim_ms":1.000,"upstream":1,"cache_hit":false})";

  // Garbage on line 3 (line 2 is blank and skipped).
  std::istringstream bad_line{good + "\n\nnot json\n"};
  try {
    obs::read_scan_rows(bad_line);
    FAIL() << "expected malformed line to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos)
        << e.what();
  }

  // Wrong key order / missing key on line 1.
  std::istringstream wrong_key{
      R"({"index":0,"qname":"a.nl","rcode":"NOERROR","answers":[],)"
      R"("chain":0,"sim_ms":1.000,"upstream":1,"cache_hit":false})"};
  EXPECT_THROW(obs::read_scan_rows(wrong_key), std::runtime_error);

  // Trailing bytes after the closing brace.
  std::istringstream trailing{good + "garbage"};
  EXPECT_THROW(obs::read_scan_rows(trailing), std::runtime_error);

  // Unterminated string.
  std::istringstream unterminated{
      R"({"i":0,"qname":"a.nl)"};
  EXPECT_THROW(obs::read_scan_rows(unterminated), std::runtime_error);
}

TEST(ScanLog, ScanOutputParsesBack) {
  const auto result = run_scan_shards(1, 100);
  std::ostringstream out;
  obs::write_scan_rows(out, result.rows);
  std::istringstream in{out.str()};
  const auto parsed = obs::read_scan_rows(in);
  ASSERT_EQ(parsed.size(), result.rows.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], result.rows[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace recwild::experiment
