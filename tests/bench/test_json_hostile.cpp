// Hostile-input tests for the bench JSON reader: the baseline-artifact
// path takes bytes from disk, so the parser must be total — every
// malformed input is a clean std::runtime_error (with a byte offset),
// never a crash, hang, or half-parsed value.
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "bevr/bench/json.h"
#include "bevr/runner/result_sink.h"

namespace bevr::bench::json {
namespace {

void expect_clean_error(const std::string& text, const char* label) {
  SCOPED_TRACE(label);
  try {
    (void)parse(text);
    FAIL() << "hostile input parsed successfully";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("json parse error at byte"),
              std::string::npos)
        << error.what();
  }
}

TEST(JsonHostile, TruncatedDocuments) {
  // Every proper prefix of a real artifact-shaped document must fail
  // cleanly — the reader can be handed a partially written file.
  const std::string whole =
      R"({"schema":"bevr-bench-1","suites":[{"name":"a","median_ms":1.5}]})";
  for (std::size_t cut = 1; cut < whole.size(); ++cut) {
    try {
      (void)parse(whole.substr(0, cut));
      FAIL() << "prefix of length " << cut << " parsed";
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_EQ(parse(whole)->get("schema")->string, "bevr-bench-1");
}

TEST(JsonHostile, TruncatedEscapesAndLiterals) {
  expect_clean_error("\"abc", "unterminated string");
  expect_clean_error("\"abc\\", "string cut inside escape");
  expect_clean_error("\"\\u00", "string cut inside \\u escape");
  expect_clean_error("tru", "cut literal");
  expect_clean_error("[1,", "array cut after comma");
  expect_clean_error("{\"k\":", "object cut after colon");
  expect_clean_error("-", "bare minus");
  expect_clean_error("", "empty input");
  expect_clean_error("   ", "whitespace only");
}

TEST(JsonHostile, DeepNestingIsAnErrorNotAStackOverflow) {
  // Far past kMaxDepth: without the depth cap this is a recursion
  // crash, not an exception.
  const std::string bombs[] = {
      std::string(100000, '['),
      [] {
        std::string nested;
        for (int i = 0; i < 50000; ++i) nested += "{\"k\":";
        return nested;
      }(),
  };
  for (const std::string& bomb : bombs) {
    expect_clean_error(bomb, "nesting bomb");
  }
  // And the bound is tight: kMaxDepth nested arrays parse...
  std::string ok(static_cast<std::size_t>(kMaxDepth), '[');
  ok += std::string(static_cast<std::size_t>(kMaxDepth), ']');
  EXPECT_EQ(parse(ok)->type, Type::kArray);
  // ...one more level does not.
  expect_clean_error("[" + ok + "]", "kMaxDepth + 1");
}

TEST(JsonHostile, DuplicateKeysRejected) {
  expect_clean_error(R"({"a":1,"a":2})", "duplicate key");
  expect_clean_error(R"({"a":{"b":1,"b":1}})", "nested duplicate key");
  // Distinct keys stay fine.
  EXPECT_EQ(parse(R"({"a":1,"b":2})")->object.size(), 2u);
}

TEST(JsonHostile, NonUtf8BytesNeverCrash) {
  // Raw high bytes outside any string: not a value — clean error.
  expect_clean_error("\xff\xfe\x80", "high bytes as document");
  expect_clean_error("[\x80]", "high byte as array element");
  // Inside a string the reader is byte-transparent (artifacts are
  // ASCII; foreign bytes must round-trip or fail, not UB). Raw control
  // bytes below 0x20 are rejected per RFC 8259.
  const ValuePtr value = parse("\"\x80\xff\"");
  EXPECT_EQ(value->string.size(), 2u);
  expect_clean_error(std::string("\"a\001b\"", 5), "raw control in string");
}

TEST(JsonHostile, MalformedNumbersAndGarbage) {
  expect_clean_error("1.2.3", "double dot");
  expect_clean_error("1e", "dangling exponent");
  expect_clean_error("0x10", "hex");
  expect_clean_error("[1] []", "trailing garbage");
  expect_clean_error("{\"a\" 1}", "missing colon");
  expect_clean_error("[1 2]", "missing comma");
  expect_clean_error("nulll", "literal with trailing junk");
}

// The runner's JSONL sink writes names through the same escaper as the
// obs exporters, so control bytes in a scenario or column name (which
// used to pass through raw) still give lines this reader accepts, and
// the names read back byte for byte.
TEST(JsonHostile, RunnerJsonlLinesWithControlBytesInNamesParse) {
  const std::string scenario = "fig\x01rigid\r";
  const std::string column = "cap\racity\x1f";
  std::ostringstream out;
  runner::JsonlSink sink(out);
  runner::RunMetadata metadata;
  metadata.scenario = scenario;
  metadata.model = "variable_load";
  sink.begin(metadata, {column});
  sink.row(runner::ResultRow{0, {60.0}});
  sink.finish(runner::RunSummary{});

  std::istringstream lines(out.str());
  std::string line;
  int records = 0;
  while (std::getline(lines, line)) {
    SCOPED_TRACE(line);
    ValuePtr record;
    ASSERT_NO_THROW(record = parse(line));
    EXPECT_EQ(record->get("scenario")->string, scenario);
    if (record->get("type")->string == "row") {
      ASSERT_NE(record->get(column), nullptr);
      EXPECT_EQ(record->get(column)->number, 60.0);
    }
    ++records;
  }
  EXPECT_EQ(records, 3);  // meta, row, summary
}

}  // namespace
}  // namespace bevr::bench::json
