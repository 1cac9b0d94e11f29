// Bench-harness regression tests (bench/bench_util.h): JsonObject must
// escape keys as well as values so snapshots with arbitrary ablation names
// stay parseable.
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/json.h"

namespace aptserve {
namespace bench {
namespace {

TEST(JsonObjectTest, KeysAreEscapedLikeValues) {
  JsonObject obj;
  obj.Str("ablation \"no-hedge\"\n", "value with \"quotes\"");
  obj.Num("plain", 1.5);
  const std::string rendered = obj.Render();
  // Regression: keys used to be emitted raw, so a quote in an ablation
  // name produced unparseable JSON. The rendered object must parse, and
  // the key must survive exactly.
  auto parsed = json::ParseJson(rendered);
  ASSERT_TRUE(parsed.ok()) << rendered << " -> "
                           << parsed.status().ToString();
  const json::JsonValue* v = parsed->Find("ablation \"no-hedge\"\n");
  ASSERT_NE(v, nullptr) << rendered;
  EXPECT_EQ(v->string_value(), "value with \"quotes\"");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("plain", 0.0), 1.5);
}

TEST(JsonObjectTest, NonFiniteNumbersRenderNull) {
  JsonObject obj;
  obj.Num("inf", std::numeric_limits<double>::infinity());
  auto parsed = json::ParseJson(obj.Render());
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("inf"), nullptr);
  EXPECT_TRUE(parsed->Find("inf")->is_null());
}

}  // namespace
}  // namespace bench
}  // namespace aptserve
