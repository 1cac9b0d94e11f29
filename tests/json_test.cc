// Strict JSON parser (common/json.h): value-level unit tests, strictness
// rejections, Dump round-trips — including over every committed
// bench/results/BENCH_*.json snapshot, which is the concrete corpus the
// sweep harness has to read back losslessly.
#include "common/json.h"

#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

namespace aptserve {
namespace json {
namespace {

JsonValue ParseOk(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
  return parsed.ok() ? *parsed : JsonValue();
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(ParseOk("null").is_null());
  EXPECT_TRUE(ParseOk("true").bool_value());
  EXPECT_FALSE(ParseOk("false").bool_value());
  EXPECT_DOUBLE_EQ(ParseOk("0").number_value(), 0.0);
  EXPECT_DOUBLE_EQ(ParseOk("-17").number_value(), -17.0);
  EXPECT_DOUBLE_EQ(ParseOk("3.25e2").number_value(), 325.0);
  EXPECT_DOUBLE_EQ(ParseOk("1e-3").number_value(), 0.001);
  EXPECT_EQ(ParseOk("\"hi\"").string_value(), "hi");
  EXPECT_EQ(ParseOk("  42  ").number_value(), 42.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(ParseOk(R"("a\"b\\c\/d")").string_value(), "a\"b\\c/d");
  EXPECT_EQ(ParseOk(R"("tab\there")").string_value(), "tab\there");
  EXPECT_EQ(ParseOk(R"("\u0041\u00e9")").string_value(), "A\xc3\xa9");
  EXPECT_EQ(ParseOk(R"("\u001f")").string_value(), "\x1f");
}

TEST(JsonParse, Containers) {
  JsonValue v = ParseOk(R"({"a": [1, 2, {"b": true}], "c": null})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[1].number_value(), 2.0);
  EXPECT_TRUE(a->items()[2].GetBool("b", false));
  EXPECT_TRUE(v.Find("c")->is_null());
  EXPECT_EQ(v.Find("missing"), nullptr);
  // Insertion order is preserved.
  EXPECT_EQ(v.members()[0].first, "a");
  EXPECT_EQ(v.members()[1].first, "c");
}

TEST(JsonParse, StrictRejections) {
  const char* bad[] = {
      "",                       // empty input
      "{",                      // unterminated object
      "[1, 2",                  // unterminated array
      "[1,]",                   // trailing comma
      "{\"a\": 1,}",            // trailing comma in object
      "{\"a\": 1 \"b\": 2}",    // missing comma
      "{\"a\": 1, \"a\": 2}",   // duplicate key
      "{a: 1}",                 // unquoted key
      "\"unterminated",         // unterminated string
      "\"bad\\qescape\"",       // invalid escape
      "\"\\u12g4\"",            // invalid hex digit
      "012",                    // leading zero
      "+1",                     // leading plus
      ".5",                     // bare decimal point
      "1.",                     // digitless fraction
      "1e",                     // digitless exponent
      "nul",                    // truncated literal
      "True",                   // wrong case
      "1 2",                    // trailing content
      "{} []",                  // trailing container
      "\"a\tb\"",               // raw control char in string
  };
  for (const char* text : bad) {
    auto parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << "should reject: " << text;
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument()) << text;
    }
  }
}

TEST(JsonParse, ErrorNamesPosition) {
  auto parsed = ParseJson("{\n  \"a\": nope\n}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("2:8"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonParse, DeepNestingIsAnErrorNotAStackOverflow) {
  auto parsed = ParseJson(std::string(100000, '['));
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  EXPECT_NE(parsed.status().message().find("nesting too deep"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonDump, DeterministicAndParseable) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue::String("a \"quoted\"\nkey"));
  obj.Set("count", JsonValue::Int(42));
  obj.Set("ratio", JsonValue::Number(0.30000000000000004));
  obj.Set("flag", JsonValue::Bool(true));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Number(1e-9));
  arr.Append(JsonValue::Null());
  obj.Set("xs", std::move(arr));

  const std::string compact = obj.Dump();
  const std::string pretty = obj.Dump(2);
  EXPECT_EQ(compact, obj.Dump());  // byte-deterministic
  EXPECT_EQ(ParseOk(compact), obj);
  EXPECT_EQ(ParseOk(pretty), obj);
  // Numbers round-trip exactly, including non-shortest doubles.
  EXPECT_DOUBLE_EQ(ParseOk(compact).GetNumber("ratio", 0.0),
                   0.30000000000000004);
}

TEST(JsonDump, NonFiniteBecomesNull) {
  JsonValue obj = JsonValue::Object();
  obj.Set("bad", JsonValue::Number(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(obj.Dump(), "{\"bad\": null}");
}

TEST(JsonValue, SetOverwritesInPlace) {
  JsonValue obj = JsonValue::Object();
  obj.Set("a", JsonValue::Int(1));
  obj.Set("b", JsonValue::Int(2));
  obj.Set("a", JsonValue::Int(3));
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "a");
  EXPECT_EQ(obj.GetInt("a", 0), 3);
}

TEST(JsonValue, EqualityIgnoresMemberOrder) {
  JsonValue a = JsonValue::Object();
  a.Set("x", JsonValue::Int(1));
  a.Set("y", JsonValue::Int(2));
  JsonValue b = JsonValue::Object();
  b.Set("y", JsonValue::Int(2));
  b.Set("x", JsonValue::Int(1));
  EXPECT_EQ(a, b);
  b.Set("y", JsonValue::Int(3));
  EXPECT_NE(a, b);
}

// Every committed bench snapshot must parse, and Dump -> parse must be the
// identity on the parsed value (the sweep collect stage depends on it).
TEST(JsonCorpus, BenchResultSnapshotsRoundTrip) {
  const std::string dir = std::string(APTSERVE_SOURCE_DIR) + "/bench/results";
  std::vector<std::string> files;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
        files.push_back(dir + "/" + name);
      }
    }
    closedir(d);
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no committed snapshots under " << dir;
  for (const std::string& path : files) {
    auto parsed = ParseJsonFile(path);
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    ASSERT_TRUE(parsed->is_object()) << path;
    EXPECT_NE(parsed->Find("bench"), nullptr) << path;
    EXPECT_NE(parsed->Find("entries"), nullptr) << path;
    auto reparsed = ParseJson(parsed->Dump(2));
    ASSERT_TRUE(reparsed.ok()) << path << ": " << reparsed.status().ToString();
    EXPECT_EQ(*reparsed, *parsed) << path;
  }
}

}  // namespace
}  // namespace json
}  // namespace aptserve
