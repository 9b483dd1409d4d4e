#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"

namespace overgen {
namespace {

TEST(Json, ScalarRoundTrip)
{
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(nullptr).dump(), "null");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NumberFormatting)
{
    EXPECT_EQ(Json(3.5).dump(), "3.5");
    EXPECT_EQ(Json(-7).dump(), "-7");
    EXPECT_EQ(Json(int64_t{ 1 } << 40).dump(), "1099511627776");
}

TEST(Json, ObjectBuildAndAccess)
{
    Json obj = Json::makeObject();
    obj.set("a", 1);
    obj.set("b", "two");
    EXPECT_TRUE(obj.contains("a"));
    EXPECT_FALSE(obj.contains("c"));
    EXPECT_EQ(obj.at("a").asInt(), 1);
    EXPECT_EQ(obj.at("b").asString(), "two");
    EXPECT_DOUBLE_EQ(obj.numberOr("missing", 9.5), 9.5);
}

TEST(Json, ArrayPush)
{
    Json arr = Json::makeArray();
    arr.push(1);
    arr.push(2);
    arr.push(3);
    ASSERT_EQ(arr.asArray().size(), 3u);
    EXPECT_EQ(arr.asArray()[2].asInt(), 3);
}

TEST(Json, ParseScalars)
{
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_EQ(Json::parse("true").asBool(), true);
    EXPECT_EQ(Json::parse("-12").asInt(), -12);
    EXPECT_DOUBLE_EQ(Json::parse("2.5e2").asNumber(), 250.0);
    EXPECT_EQ(Json::parse("\"x\\ny\"").asString(), "x\ny");
}

TEST(Json, ParseNested)
{
    Json v = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "s"})");
    EXPECT_EQ(v.at("a").asArray()[1].asInt(), 2);
    EXPECT_TRUE(v.at("a").asArray()[2].at("b").asBool());
    EXPECT_EQ(v.at("c").asString(), "s");
}

TEST(Json, RoundTripComplex)
{
    Json obj = Json::makeObject();
    Json inner = Json::makeArray();
    inner.push(Json(1.25));
    inner.push(Json("with \"quotes\" and \\slash"));
    obj.set("list", std::move(inner));
    obj.set("flag", false);
    std::string text = obj.dump(2);
    Json reparsed = Json::parse(text);
    EXPECT_EQ(reparsed.dump(), obj.dump());
}

TEST(Json, PrettyPrintContainsNewlines)
{
    Json obj = Json::makeObject();
    obj.set("k", 1);
    EXPECT_NE(obj.dump(2).find('\n'), std::string::npos);
    EXPECT_EQ(obj.dump(0).find('\n'), std::string::npos);
}

TEST(Json, EmptyContainers)
{
    EXPECT_EQ(Json::makeArray().dump(2), "[]");
    EXPECT_EQ(Json::makeObject().dump(2), "{}");
    EXPECT_TRUE(Json::parse("[]").asArray().empty());
    EXPECT_TRUE(Json::parse("{}").asObject().empty());
}

TEST(Json, WhitespaceTolerant)
{
    Json v = Json::parse("  { \"a\" :\n[ 1 ,\t2 ] }  ");
    EXPECT_EQ(v.at("a").asArray().size(), 2u);
}

TEST(Json, ControlCharacterEscapes)
{
    // Every control character must dump as a valid JSON escape
    // (RFC 8259) and survive a round trip.
    std::string raw;
    for (int c = 1; c < 0x20; ++c)
        raw += static_cast<char>(c);
    std::string dumped = Json(raw).dump();
    for (char c : dumped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << dumped;
    EXPECT_EQ(Json::parse(dumped).asString(), raw);

    EXPECT_EQ(Json(std::string("a\bb\fc")).dump(),
              "\"a\\bb\\fc\"");
    EXPECT_EQ(Json(std::string(1, '\x1f')).dump(), "\"\\u001f\"");
}

TEST(Json, ParseUnicodeEscape)
{
    EXPECT_EQ(Json::parse("\"\\u0041\"").asString(), "A");
    // Two- and three-byte UTF-8 expansions.
    EXPECT_EQ(Json::parse("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(Json::parse("\"\\u20ac\"").asString(),
              "\xe2\x82\xac");
}

/**
 * An RFC 8259 syntax check, written apart from Json's parser: the
 * oracle the fuzz tests hold tryParse to.
 */
class StrictJson
{
  public:
    static bool
    valid(const std::string &text)
    {
        StrictJson check(text);
        return check.value() && (check.space(), check.pos == text.size());
    }

  private:
    explicit StrictJson(const std::string &text) : text(text) {}

    bool more() const { return pos < text.size(); }
    char at() const { return text[pos]; }
    bool
    eat(char c)
    {
        if (!more() || at() != c)
            return false;
        ++pos;
        return true;
    }
    void
    space()
    {
        while (more() && (at() == ' ' || at() == '\t' || at() == '\n' ||
                          at() == '\r'))
            ++pos;
    }
    size_t
    digits()
    {
        size_t from = pos;
        while (more() && std::isdigit(static_cast<unsigned char>(at())))
            ++pos;
        return pos - from;
    }
    bool
    literal(const char *word)
    {
        std::string w(word);
        if (text.compare(pos, w.size(), w) != 0)
            return false;
        pos += w.size();
        return true;
    }
    bool
    number()
    {
        eat('-');
        if (!eat('0') && digits() == 0)
            return false;
        if (eat('.') && digits() == 0)
            return false;
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            if (digits() == 0)
                return false;
        }
        return true;
    }
    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (more()) {
            unsigned char c = static_cast<unsigned char>(text[pos++]);
            if (c == '"')
                return true;
            if (c < 0x20)
                return false;
            if (c != '\\')
                continue;
            if (!more())
                return false;
            char esc = text[pos++];
            if (esc == 'u') {
                for (int i = 0; i < 4; ++i) {
                    if (!more() ||
                        !std::isxdigit(static_cast<unsigned char>(at())))
                        return false;
                    ++pos;
                }
            } else if (std::string("\"\\/bfnrt").find(esc) ==
                       std::string::npos) {
                return false;
            }
        }
        return false;
    }
    bool
    value()
    {
        space();
        if (!more())
            return false;
        if (eat('[')) {
            space();
            if (eat(']'))
                return true;
            do {
                if (!value())
                    return false;
                space();
            } while (eat(','));
            return eat(']');
        }
        if (eat('{')) {
            space();
            if (eat('}'))
                return true;
            do {
                space();
                if (!string())
                    return false;
                space();
                if (!eat(':') || !value())
                    return false;
                space();
            } while (eat(','));
            return eat('}');
        }
        if (at() == '"')
            return string();
        if (literal("true") || literal("false") || literal("null"))
            return true;
        return number();
    }

    const std::string &text;
    size_t pos = 0;
};

/**
 * Records as the program writes them: a merged serve result line, a
 * serve job record and an overlay-library JSONL line.
 */
std::vector<std::string>
fuzzCorpus()
{
    return {
        R"({"cycles":123456789,"deadlocked":true,"diagnostic":"tile0: )"
        R"(waiting on \"dram\"\n  rob full","index":42,"ipc":)"
        R"(0.32169999999999999,"ok":false,"variant":"accumulate/unroll4",)"
        R"("workload":"stencil-2d"})",
        R"({"deadlock_cycles":500,"design":3,"dram_latency":2000,"index":)"
        R"(42,"small":true,"tuning":true,"workload":"stencil-2d"})",
        R"({"design":{"adg":{"edges":[{"delay":1,"dst":1,"src":0},)"
        R"({"delay":1,"dst":0,"src":1},{"delay":1,"dst":2,"src":1},)"
        R"({"delay":1,"dst":8,"src":3},{"delay":1,"dst":9,"src":0}],)"
        R"("nodes":[{"id":0,"kind":"switch","spec":{"datapath_bytes":8}},)"
        R"({"id":2,"kind":"pe","spec":{"capabilities":["add.i32",)"
        R"("mul.i32","cmplt.i32","acc.i32"],"control_lut":false,)"
        R"("datapath_bytes":8,"max_delay_fifo_depth":4}},{"id":3,)"
        R"("kind":"dma","spec":{"bandwidth_bytes":16,"indirect":false,)"
        R"("rob_entries":64}},{"id":8,"kind":"in_port","spec":)"
        R"({"fifo_depth":4,"padding":true,"stated_stream":true,)"
        R"("width_bytes":8}}]},"system":{"dram_channels":1,"l2_banks":2,)"
        R"("l2_capacity_kib":256,"noc_bytes":16,"num_tiles":2}},"fp_a":)"
        R"("138710dea20cc6c8","fp_b":"f6aedbcd83ea6a09","origin":"test:a",)"
        R"("records":[],"resources":{"bram":36.5,"dsp":12,"ff":2000,)"
        R"("lut":1000},"utilization":0.25,"warm_iters":4,"warm_seed":)"
        R"("abcdef0123456789"})",
    };
}

/**
 * tryParse(@p text) must either reject it with a named error or return
 * a value that dumps to text it parses back to itself; and it must
 * accept exactly the RFC 8259 documents (numbers too large for a double
 * aside). @return whether it did.
 */
bool
namedRejectionOrValue(const std::string &text)
{
    std::string error;
    std::optional<Json> value = Json::tryParse(text, &error);
    bool valid = StrictJson::valid(text);
    if (!value) {
        bool out_of_range = error.find("out of range") != std::string::npos;
        EXPECT_FALSE(error.empty()) << text;
        EXPECT_TRUE(!valid || out_of_range) << error << ": " << text;
        return !error.empty() && (!valid || out_of_range);
    }
    EXPECT_TRUE(valid) << "accepted malformed JSON: " << text;
    std::string dumped = value->dump();
    std::optional<Json> again = Json::tryParse(dumped);
    EXPECT_TRUE(again && again->dump() == dumped) << dumped;
    return valid && again && again->dump() == dumped;
}

TEST(JsonFuzz, CorpusParses)
{
    for (const std::string &record : fuzzCorpus()) {
        ASSERT_TRUE(StrictJson::valid(record)) << record;
        ASSERT_TRUE(Json::tryParse(record).has_value()) << record;
    }
}

TEST(JsonFuzz, EveryTruncatedPrefix)
{
    for (const std::string &record : fuzzCorpus()) {
        for (size_t len = 0; len < record.size(); ++len)
            ASSERT_TRUE(namedRejectionOrValue(record.substr(0, len)));
    }
}

TEST(JsonFuzz, SeededByteFlips)
{
    std::vector<std::string> corpus = fuzzCorpus();
    Rng rng(2026);
    for (int flip = 0; flip < 4000; ++flip) {
        std::string text = corpus[rng.nextBelow(corpus.size())];
        size_t at = rng.nextBelow(text.size());
        // Half the flips write a byte the grammar cares about.
        static const char kSyntax[] = "{}[]\":,.-+eE0123456789tfn\\u ";
        text[at] = rng.nextBool()
                       ? static_cast<char>(rng.nextBelow(256))
                       : kSyntax[rng.nextBelow(sizeof(kSyntax) - 1)];
        ASSERT_TRUE(namedRejectionOrValue(text)) << "flip " << flip;
    }
}

TEST(JsonFuzz, SplicedRecords)
{
    std::vector<std::string> corpus = fuzzCorpus();
    Rng rng(7);
    for (int splice = 0; splice < 2000; ++splice) {
        const std::string &head = corpus[rng.nextBelow(corpus.size())];
        const std::string &tail = corpus[rng.nextBelow(corpus.size())];
        std::string text = head.substr(0, rng.nextBelow(head.size() + 1)) +
                           tail.substr(rng.nextBelow(tail.size() + 1));
        ASSERT_TRUE(namedRejectionOrValue(text)) << "splice " << splice;
    }
}

TEST(JsonFuzz, NumbersFollowTheGrammar)
{
    for (const char *bad : { "1.2.3", "+1", "01", "1e", "1e+", ".5", "5.",
                             "-", "--1", "1-2", "0x10", "1E5E5" }) {
        std::string error;
        EXPECT_FALSE(Json::tryParse(bad, &error).has_value()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    std::string error;
    EXPECT_FALSE(Json::tryParse("1e999", &error).has_value());
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    // The writer prints subnormals and signed exponents; they read back.
    for (double d : { 4.9406564584124654e-324, -2.5e-310, 1e300, -0.125 }) {
        std::optional<Json> back = Json::tryParse(Json(d).dump());
        ASSERT_TRUE(back.has_value()) << Json(d).dump();
        EXPECT_EQ(back->asNumber(), d);
    }
}

TEST(JsonFuzz, DeepNestingIsRejected)
{
    // Recursion depth is bounded: a hostile line cannot overflow the
    // stack.
    for (const char *open : { "[", "{\"k\":" }) {
        std::string text;
        for (int i = 0; i < 100000; ++i)
            text += open;
        std::string error;
        EXPECT_FALSE(Json::tryParse(text, &error).has_value());
        EXPECT_NE(error.find("nested"), std::string::npos) << error;
    }
    std::string shallow(64, '[');
    shallow += std::string(64, ']');
    EXPECT_TRUE(Json::tryParse(shallow).has_value());
}

} // namespace
} // namespace overgen
