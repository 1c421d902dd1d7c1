/**
 * @file
 * Unit tests for the shared JSON layer: parsing, escaping, lossless
 * number round-trips, ordered objects, and error reporting.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace memtherm
{
namespace
{

TEST(Json, ParsePrimitives)
{
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_EQ(Json::parse("true").asBool(), true);
    EXPECT_EQ(Json::parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParseNested)
{
    Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
    ASSERT_TRUE(j.isObject());
    const auto &a = j.at("a").asArray();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_DOUBLE_EQ(a[0].asNumber(), 1.0);
    EXPECT_EQ(a[2].at("b").asBool(), true);
    EXPECT_EQ(j.at("c").asString(), "x");
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_THROW(j.at("missing"), FatalError);
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", 1).set("alpha", 2).set("mid", 3);
    const auto &m = j.asObject();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0].first, "zebra");
    EXPECT_EQ(m[1].first, "alpha");
    EXPECT_EQ(m[2].first, "mid");

    // set() on an existing key overwrites in place.
    j.set("alpha", 9);
    EXPECT_EQ(j.asObject().size(), 3u);
    EXPECT_DOUBLE_EQ(j.at("alpha").asNumber(), 9.0);
}

TEST(Json, StringEscaping)
{
    Json j = Json::object();
    std::string nasty = "quote\" backslash\\ newline\n tab\t bell\x07";
    j.set("k", nasty);
    Json back = Json::parse(j.dump());
    EXPECT_EQ(back.at("k").asString(), nasty);

    // Escapes parse to the characters they name.
    EXPECT_EQ(Json::parse(R"("A\n\"\\")").asString(), "A\n\"\\");
    // Surrogate pairs decode to UTF-8.
    EXPECT_EQ(Json::parse(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, NumbersRoundTripLosslessly)
{
    const double values[] = {0.1,
                             1.0 / 3.0,
                             6893.4374632337567,
                             1e-300,
                             -2.5e300,
                             9007199254740991.0,
                             52.839999999998057};
    for (double v : values) {
        Json j = Json::array();
        j.push(v);
        double back = Json::parse(j.dump()).asArray()[0].asNumber();
        EXPECT_EQ(back, v) << "value " << v;
    }
    // Integers print without a decimal point.
    EXPECT_EQ(Json(4).dump(0), "4");
    EXPECT_EQ(Json(-17.0).dump(0), "-17");
    EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(),
                 FatalError);
}

TEST(Json, DumpParseIdentity)
{
    Json doc = Json::object();
    doc.set("name", "round-trip");
    doc.set("flag", true);
    doc.set("nothing", Json());
    Json arr = Json::array();
    arr.push(1.5).push("two").push(Json::object().set("deep", 0.25));
    doc.set("list", std::move(arr));

    Json pretty = Json::parse(doc.dump(2));
    Json compact = Json::parse(doc.dump(0));
    EXPECT_EQ(pretty, doc);
    EXPECT_EQ(compact, doc);
    // Identity is stable under repeated round-trips.
    EXPECT_EQ(Json::parse(pretty.dump(4)), doc);
}

TEST(Json, ParseErrorsCarryPosition)
{
    auto expectError = [](const std::string &text) {
        EXPECT_THROW(Json::parse(text), FatalError) << text;
    };
    expectError("");
    expectError("{");
    expectError("[1, ]");
    expectError("{\"a\" 1}");
    expectError("\"unterminated");
    expectError("tru");
    expectError("1.2.3");
    expectError("{} trailing");
    expectError("\"bad \\q escape\"");
    expectError("\"\\ud800 lone surrogate\"");
    expectError("\"\\udc00 lone low surrogate\"");

    try {
        Json::parse("{\n  \"a\": nope\n}");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }
}

TEST(Json, TypeMismatchesAreFatal)
{
    Json j = Json::parse("[1]");
    EXPECT_THROW(j.asObject(), FatalError);
    EXPECT_THROW(j.asString(), FatalError);
    EXPECT_THROW(j.at("x"), FatalError);
    EXPECT_THROW(Json("s").asNumber(), FatalError);
}

TEST(Json, FileRoundTrip)
{
    std::string path = testing::TempDir() + "memtherm_json_test.json";
    Json doc = Json::object();
    doc.set("x", 0.1);
    doc.save(path);
    EXPECT_EQ(Json::load(path), doc);
    EXPECT_THROW(Json::load(path + ".does-not-exist"), FatalError);
}

/** One schema over either writer: every kind of value and nesting. */
template <class Out>
void
writeSample(Out &o)
{
    const std::vector<double> nums = {1.0, -0.5, 1e300, 5e-324,
                                      9007199254740992.0, -0.0};
    const std::vector<double> none;
    o.beginObject();
    jsonMember(o, "s", "a\"b\\c\n\t\x01\x1f \xc3\xa9");
    jsonMember(o, "n", 42.0);
    jsonMember(o, "f", 0.1);
    jsonMember(o, "t", true);
    jsonMember(o, "no", false);
    jsonMember(o, "nums", nums);
    jsonMember(o, "none", none);
    o.key("empty_obj");
    o.beginObject();
    o.endObject();
    o.key("esc\"key");
    o.beginArray();
    o.beginArray();
    o.endArray();
    o.value(nums);
    o.beginObject();
    jsonMember(o, "x", std::string("y"));
    o.endObject();
    o.value(3.0);
    o.endArray();
    o.endObject();
}

TEST(JsonTextWriter, BytesMatchTheBuiltTreesDump)
{
    JsonBuilder b;
    writeSample(b);
    const Json tree = b.take();
    std::string text = "prefix:";
    JsonTextWriter w(text);
    writeSample(w);
    EXPECT_EQ(text, "prefix:" + tree.dump(0));
    EXPECT_EQ(Json::parse(text.substr(7)), tree);

    // A lone value and an empty array at the top level.
    std::string one;
    JsonTextWriter(one).value(2.5);
    EXPECT_EQ(one, Json(2.5).dump(0));
    std::string arr;
    JsonTextWriter wa(arr);
    wa.beginArray();
    wa.endArray();
    EXPECT_EQ(arr, Json::array().dump(0));
}

TEST(JsonTextWriter, NonFiniteNumbersFailLikeDump)
{
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
        std::string text;
        JsonTextWriter w(text);
        try {
            w.value(bad);
            ADD_FAILURE() << "no error for " << bad;
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(),
                         "fatal: json: cannot serialize a non-finite number");
        }
        EXPECT_THROW(Json(bad).dump(0), FatalError);
    }
}

} // namespace
} // namespace memtherm
