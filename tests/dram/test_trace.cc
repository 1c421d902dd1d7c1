/**
 * @file
 * Property tests for the versioned trace format, the synthetic
 * generators and the organization decoder (dram/trace.hh): lossless
 * parse/format round-trips, generator determinism (one uniform draw per
 * record), byte-weighted decode invariants, file/line diagnostics, the
 * newer-version refusal, and the scenario layer's trace knob end to end
 * (trace-driven shares and bank weights, trace-free bit-identity).
 *
 * The parser's canonical-line fast path and the decoder's shift/mask
 * path are checked against reference copies of the plain tokenizer and
 * the division decoder (the `oracle` namespace below): records,
 * diagnostics and profiles must match bit for bit. The differential
 * parser pass scales its case count with the MEMTHERM_FUZZ_CASES
 * environment variable (default 1000).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/sim/scenario.hh"
#include "dram/trace.hh"

namespace memtherm
{
namespace
{

/**
 * Reference copies of the plain tokenizer and the division decoder, as
 * they stood before the canonical-line fast path and the shift/mask
 * decode; the one change is the header's unsigned version comparison.
 */
namespace oracle
{

std::string
at(const std::string &name, std::size_t line)
{
    return "trace '" + name + "' line " + std::to_string(line);
}

bool
nextLine(std::string_view &rest, std::string_view &line)
{
    if (rest.empty())
        return false;
    const std::size_t nl = rest.find('\n');
    line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    return true;
}

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

std::string_view
nextToken(std::string_view &rest)
{
    std::size_t b = 0;
    while (b < rest.size() && isSpace(rest[b]))
        ++b;
    std::size_t e = b;
    while (e < rest.size() && !isSpace(rest[e]))
        ++e;
    const std::string_view tok = rest.substr(b, e - b);
    rest.remove_prefix(e);
    return tok;
}

bool
parseU64(std::string_view tok, std::uint64_t &out)
{
    if (tok.empty())
        return false;
    int base = 10;
    std::size_t start = 0;
    if (tok.size() > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X')) {
        base = 16;
        start = 2;
    }
    std::uint64_t v = 0;
    for (std::size_t i = start; i < tok.size(); ++i) {
        const char c = tok[i];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return false;
        const std::uint64_t room = ~0ULL - static_cast<std::uint64_t>(digit);
        if (v > (base == 16 ? room / 16 : room / 10))
            return false;
        v = v * static_cast<std::uint64_t>(base) +
            static_cast<std::uint64_t>(digit);
    }
    out = v;
    return true;
}

std::vector<TraceRecord>
parseTrace(const std::string &text, const std::string &name)
{
    std::string_view rest = text;
    std::string_view line;
    std::size_t line_no = 0;

    if (!nextLine(rest, line))
        fatal("trace '" + name + "': empty file (expected header "
              "'#memtherm-trace v" + std::to_string(kTraceFormatVersion) +
              "')");
    ++line_no;
    {
        std::string_view hs = line;
        const std::string_view magic = nextToken(hs);
        const std::string_view ver = nextToken(hs);
        if (magic != "#memtherm-trace" || ver.size() < 2 || ver[0] != 'v')
            fatal(at(name, line_no) +
                  ": bad header (expected '#memtherm-trace v" +
                  std::to_string(kTraceFormatVersion) + "')");
        std::uint64_t v = 0;
        if (!parseU64(ver.substr(1), v) || v == 0)
            fatal(at(name, line_no) + ": bad version '" + std::string(ver) +
                  "'");
        if (v > static_cast<std::uint64_t>(kTraceFormatVersion))
            fatal("trace '" + name + "': format version " +
                  std::to_string(v) + " is newer than this binary's v" +
                  std::to_string(kTraceFormatVersion) +
                  "; upgrade memtherm to read this trace");
    }

    std::vector<TraceRecord> out;
    while (nextLine(rest, line)) {
        ++line_no;
        std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string_view::npos || line[first] == '#')
            continue;
        std::string_view ls = line;
        const std::string_view addr_tok = nextToken(ls);
        const std::string_view op_tok = nextToken(ls);
        const std::string_view bytes_tok = nextToken(ls);
        if (bytes_tok.empty())
            fatal(at(name, line_no) +
                  ": expected '<addr> <r|w> <bytes>', got '" +
                  std::string(line) + "'");
        if (const std::string_view extra = nextToken(ls); !extra.empty())
            fatal(at(name, line_no) + ": trailing token '" +
                  std::string(extra) + "'");
        TraceRecord rec;
        if (!parseU64(addr_tok, rec.addr))
            fatal(at(name, line_no) + ": bad address '" +
                  std::string(addr_tok) + "'");
        if (op_tok == "r")
            rec.write = false;
        else if (op_tok == "w")
            rec.write = true;
        else
            fatal(at(name, line_no) + ": bad op '" + std::string(op_tok) +
                  "' (expected r or w)");
        std::uint64_t bytes = 0;
        if (!parseU64(bytes_tok, bytes) || bytes == 0 ||
            bytes > 0xffffffffULL)
            fatal(at(name, line_no) + ": bad byte count '" +
                  std::string(bytes_tok) + "'");
        rec.bytes = static_cast<std::uint32_t>(bytes);
        out.push_back(rec);
    }
    if (out.empty())
        fatal("trace '" + name + "': no records");
    return out;
}

TraceProfile
decodeTrace(const std::vector<TraceRecord> &records, int n_channels,
            int n_dimms, int bank_cells, std::uint32_t block_size = 64)
{
    TraceProfile p;
    p.dimmShares.assign(static_cast<std::size_t>(n_dimms), 0.0);
    const std::size_t n_bank =
        static_cast<std::size_t>(n_dimms) * bank_cells;
    std::vector<double> bank_bytes(n_bank, 0.0);

    const std::uint64_t nc = static_cast<std::uint64_t>(n_channels);
    const std::uint64_t nd = static_cast<std::uint64_t>(n_dimms);
    double total_bytes = 0.0;
    double read_bytes = 0.0;
    for (const TraceRecord &r : records) {
        const std::uint64_t block = r.addr / block_size;
        const std::uint64_t dimm = block / nc % nd;
        const double b = static_cast<double>(r.bytes);
        p.dimmShares[dimm] += b;
        if (bank_cells > 0) {
            const std::uint64_t cell =
                block / (nc * nd) % static_cast<std::uint64_t>(bank_cells);
            bank_bytes[dimm * static_cast<std::uint64_t>(bank_cells) +
                       cell] += b;
        }
        total_bytes += b;
        if (!r.write)
            read_bytes += b;
        ++p.records;
    }

    for (double &s : p.dimmShares)
        s /= total_bytes;
    p.readFraction = read_bytes / total_bytes;

    if (bank_cells > 0) {
        p.bankWeights.assign(n_bank, 0.0);
        for (int d = 0; d < n_dimms; ++d) {
            double dimm_total = 0.0;
            for (int c = 0; c < bank_cells; ++c)
                dimm_total += bank_bytes[d * bank_cells + c];
            for (int c = 0; c < bank_cells; ++c) {
                p.bankWeights[d * bank_cells + c] =
                    dimm_total > 0.0
                        ? bank_bytes[d * bank_cells + c] / dimm_total
                        : 1.0 / bank_cells;
            }
        }
    }
    return p;
}

} // namespace oracle

std::size_t
fuzzCases()
{
    if (const char *env = std::getenv("MEMTHERM_FUZZ_CASES")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return static_cast<std::size_t>(v);
    }
    return 1000;
}

/** The bit patterns of @p v, so that equal means bitwise equal. */
std::vector<std::uint64_t>
bits(const std::vector<double> &v)
{
    std::vector<std::uint64_t> out;
    out.reserve(v.size());
    for (double x : v)
        out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
}

void
expectSameProfile(const TraceProfile &got, const TraceProfile &want,
                  const std::string &where)
{
    EXPECT_EQ(bits(got.dimmShares), bits(want.dimmShares)) << where;
    EXPECT_EQ(bits(got.bankWeights), bits(want.bankWeights)) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.readFraction),
              std::bit_cast<std::uint64_t>(want.readFraction))
        << where;
    EXPECT_EQ(got.records, want.records) << where;
}

void
expectFatalWith(const std::function<void()> &f, const std::string &needle)
{
    try {
        f();
        FAIL() << "expected FatalError containing '" << needle << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(TraceFormat, RoundTripsLosslessly)
{
    Rng rng(20260808);
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 500; ++i) {
        TraceRecord r;
        r.addr = rng.next() >> (rng.below(40));
        r.bytes = static_cast<std::uint32_t>(1 + rng.below(1 << 12));
        r.write = rng.uniform() < 0.5;
        recs.push_back(r);
    }
    const std::string text = formatTrace(recs);
    EXPECT_EQ(parseTrace(text, "rt"), recs);
    // format(parse(format)) is a fixed point.
    EXPECT_EQ(formatTrace(parseTrace(text, "rt")), text);
}

TEST(TraceFormat, AcceptsDecimalHexCommentsAndBlanks)
{
    const std::string text = "#memtherm-trace v1\n"
                             "\n"
                             "# a comment\n"
                             "0x40 r 64\n"
                             "  128 w 32\n";
    auto recs = parseTrace(text, "mixed");
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].addr, 0x40u);
    EXPECT_FALSE(recs[0].write);
    EXPECT_EQ(recs[1].addr, 128u);
    EXPECT_TRUE(recs[1].write);
    EXPECT_EQ(recs[1].bytes, 32u);
}

TEST(TraceFormat, DiagnosticsNameFileAndLine)
{
    expectFatalWith([] { parseTrace("", "t"); }, "empty file");
    expectFatalWith([] { parseTrace("#wrong v1\n0x0 r 64\n", "t"); },
                    "trace 't' line 1: bad header");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n0x0 r\n", "t"); },
        "trace 't' line 2: expected '<addr> <r|w> <bytes>'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n\n0xZZ r 64\n", "t"); },
        "trace 't' line 3: bad address '0xZZ'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n0x0 x 64\n", "t"); },
        "line 2: bad op 'x'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n0x0 r 0\n", "t"); },
        "bad byte count '0'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n0x0 r 64 junk\n", "t"); },
        "trailing token 'junk'");
    expectFatalWith([] { parseTrace("#memtherm-trace v1\n", "t"); },
                    "no records");
    // Version 0 was never written; it is malformed, not an old format.
    expectFatalWith([] { parseTrace("#memtherm-trace v0\n0x0 r 64\n", "t"); },
                    "trace 't' line 1: bad version 'v0'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v00\n0x0 r 64\n", "t"); },
        "trace 't' line 1: bad version 'v00'");
    expectFatalWith([] { loadTrace("/nonexistent/x.trace"); },
                    "cannot open file");
}

TEST(TraceFormat, RefusesNewerVersionWithUpgradeMessage)
{
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v2\n0x0 r 64\n", "future"); },
        "format version 2 is newer than this binary's v1; "
        "upgrade memtherm");
    // Truncation must not turn a refusal into a misparse.
    expectFatalWith([] { parseTrace("#memtherm-trace v999\n", "f"); },
                    "newer than this binary's");
    // Versions that wrap a 32-bit int (2^32 + 1, 2^64 - 1) are refused
    // as the newer versions they are, not read as v1 or below.
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v4294967297\n0x0 r 64\n", "f"); },
        "format version 4294967297 is newer than this binary's v1");
    expectFatalWith(
        [] {
            parseTrace("#memtherm-trace v18446744073709551615\n0x0 r 64\n",
                       "f");
        },
        "format version 18446744073709551615 is newer than this binary's "
        "v1");
}

/** A record line: canonical, or perturbed in one to three ways. */
std::string
randomRecordLine(Rng &rng)
{
    const std::uint64_t addr = rng.next() >> rng.below(64);
    std::uint64_t bytes = 1 + rng.below(1 << 12);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%llx",
                  static_cast<unsigned long long>(addr));
    const char *const digits = "0123456789abcdef";
    std::string a = hex;
    std::string op = rng.below(2) ? "w" : "r";
    std::string lead, sep1 = " ", sep2 = " ", bytes_prefix, tail;
    bool drop_bytes = false;
    const int edits =
        rng.below(3) == 0 ? 0 : 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
        switch (rng.below(20)) {
          case 0: a[1] = 'X'; break;
          case 1: // upper-case hex digits
            for (char &c : a)
                if (c >= 'a' && c <= 'f')
                    c = static_cast<char>(c - 'a' + 'A');
            break;
          case 2: a = std::to_string(addr); break;
          case 3:
            (rng.below(2) ? sep1 : sep2) = rng.below(2) ? "\t" : " \t";
            break;
          case 4: tail += "\r"; break;
          case 5: lead = rng.below(2) ? "  " : "\t"; break;
          case 6: tail += rng.below(2) ? " " : "\t "; break;
          case 7: // 16 digits, the most the fast path takes
            a = "0x" + std::string(1, digits[1 + rng.below(15)]) +
                std::string(15, digits[rng.below(16)]);
            break;
          case 8: // 17 digits: fits only with a leading zero
            a = "0x" + std::string(1, "01f"[rng.below(3)]) +
                std::string(16, digits[rng.below(16)]);
            break;
          case 9: bytes = 0; break;
          case 10: bytes = 4294967295ULL; break;
          case 11: bytes = 4294967296ULL; break;
          case 12: tail += " junk"; break;
          case 13:
            op = std::string(1, "Rxw r"[rng.below(5)]) +
                 (rng.below(2) ? "" : "w");
            break;
          case 14: drop_bytes = true; break;
          case 15: a = rng.below(2) ? "0x" : "0xg1"; break;
          case 16: bytes_prefix = rng.below(2) ? "00" : "00000000"; break;
          case 17: sep1 = "  "; break;
          case 18: bytes_prefix = rng.below(2) ? "+" : "-"; break;
          case 19: op.clear(); break;
        }
    }
    if (drop_bytes)
        return lead + a + sep1 + op + tail;
    return lead + a + sep1 + op + sep2 + bytes_prefix +
           std::to_string(bytes) + tail;
}

/**
 * The parser against the reference tokenizer on seeded documents of
 * canonical and perturbed lines: equal records, or the identical
 * diagnostic (file, line number and text).
 */
TEST(TraceFormat, FastPathMatchesTheTokenizerOnPerturbedLines)
{
    const std::size_t cases = fuzzCases();
    Rng rng(20261021);
    std::size_t parsed = 0;
    for (std::size_t k = 0; k < cases; ++k) {
        std::string doc = "#memtherm-trace v1";
        if (rng.below(8) == 0)
            doc += rng.below(2) ? " \r" : "\t# note";
        const int lines = 1 + static_cast<int>(rng.below(8));
        for (int i = 0; i < lines; ++i) {
            doc += "\n";
            switch (rng.below(10)) {
              case 0: doc += rng.below(2) ? "# comment" : "  #"; break;
              case 1: doc += std::string(1, " \t\r"[rng.below(3)]) +
                             (rng.below(2) ? "" : " ");
                break;
              case 2: break; // blank line
              default: doc += randomRecordLine(rng);
            }
        }
        if (rng.below(4) != 0)
            doc += "\n";

        std::vector<TraceRecord> got, want;
        std::string got_err, want_err;
        try {
            got = parseTrace(doc, "fuzz");
        } catch (const FatalError &e) {
            got_err = e.what();
        }
        try {
            want = oracle::parseTrace(doc, "fuzz");
        } catch (const FatalError &e) {
            want_err = e.what();
        }
        ASSERT_EQ(got_err, want_err) << "case " << k << ":\n" << doc;
        ASSERT_EQ(got, want) << "case " << k << ":\n" << doc;
        parsed += want_err.empty();
    }
    // Enough documents parse whole for the records to be compared too.
    EXPECT_GT(parsed, cases / 10);
}

/** The canonical spelling, large and unperturbed, parses unchanged. */
TEST(TraceFormat, CanonicalTraceMatchesTheTokenizer)
{
    TraceGenConfig cfg;
    cfg.pattern = TraceGenConfig::Pattern::Random;
    cfg.maxAddr = ~0ULL;
    cfg.count = 20000;
    cfg.readPct = 70.0;
    const std::string text = formatTrace(generateTrace(cfg));
    EXPECT_EQ(parseTrace(text, "c"), oracle::parseTrace(text, "c"));
    // The same without the final newline.
    const std::string cut = text.substr(0, text.size() - 1);
    EXPECT_EQ(parseTrace(cut, "c"), oracle::parseTrace(cut, "c"));
}

TEST(TraceGen, EqualConfigsGenerateEqualTraces)
{
    TraceGenConfig cfg;
    cfg.pattern = TraceGenConfig::Pattern::Random;
    cfg.count = 2000;
    cfg.readPct = 70.0;
    cfg.seed = 99;
    EXPECT_EQ(generateTrace(cfg), generateTrace(cfg));
    TraceGenConfig other = cfg;
    other.seed = 100;
    EXPECT_NE(generateTrace(cfg), generateTrace(other));
}

TEST(TraceGen, LinearWrapsBlockAlignedOverTheRange)
{
    TraceGenConfig cfg;
    cfg.minAddr = 0x1000;
    cfg.maxAddr = 0x1000 + 4 * 64;
    cfg.blockSize = 64;
    cfg.count = 10;
    auto recs = generateTrace(cfg);
    ASSERT_EQ(recs.size(), 10u);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].addr, 0x1000 + (i % 4) * 64);
        EXPECT_EQ(recs[i].bytes, 64u);
    }
}

TEST(TraceGen, RandomStaysInRangeAndHonorsReadPct)
{
    TraceGenConfig cfg;
    cfg.pattern = TraceGenConfig::Pattern::Random;
    cfg.minAddr = 1 << 16;
    cfg.maxAddr = 1 << 20;
    cfg.count = 20000;
    cfg.readPct = 25.0;
    cfg.seed = 7;
    auto recs = generateTrace(cfg);
    std::size_t reads = 0;
    for (const auto &r : recs) {
        EXPECT_GE(r.addr, cfg.minAddr);
        EXPECT_LT(r.addr, cfg.maxAddr);
        EXPECT_EQ(r.addr % cfg.blockSize, 0u);
        reads += r.write ? 0 : 1;
    }
    EXPECT_NEAR(static_cast<double>(reads) / recs.size(), 0.25, 0.02);
}

TEST(TraceGen, OneUniformDrawPerRecordInBothPatterns)
{
    // The r/w stream is drawn identically in both patterns (one
    // uniform() per record), so a linear and a random trace at one seed
    // with readPct 100 and 0 pin the draw count: all reads / all writes
    // regardless of pattern, and flipping the pattern never shifts the
    // r/w sequence of a mid-range readPct relative to regeneration.
    for (auto pattern : {TraceGenConfig::Pattern::Linear,
                         TraceGenConfig::Pattern::Random}) {
        TraceGenConfig cfg;
        cfg.pattern = pattern;
        cfg.count = 256;
        cfg.readPct = 100.0;
        for (const auto &r : generateTrace(cfg))
            EXPECT_FALSE(r.write);
        cfg.readPct = 0.0;
        for (const auto &r : generateTrace(cfg))
            EXPECT_TRUE(r.write);
    }
}

TEST(TraceGen, DegenerateParametersAreFatal)
{
    TraceGenConfig cfg;
    cfg.blockSize = 0;
    expectFatalWith([&] { generateTrace(cfg); },
                    "block size must be > 0");
    cfg = {};
    cfg.count = 0;
    expectFatalWith([&] { generateTrace(cfg); }, "count must be > 0");
    cfg = {};
    cfg.maxAddr = cfg.minAddr = 0x1000;
    expectFatalWith([&] { generateTrace(cfg); },
                    "max address must be > min address");
    cfg = {};
    cfg.minAddr = 0;
    cfg.maxAddr = 32; // smaller than one 64-byte block
    expectFatalWith([&] { generateTrace(cfg); },
                    "address range smaller than one block");
    cfg = {};
    cfg.readPct = 101.0;
    expectFatalWith([&] { generateTrace(cfg); },
                    "read percentage must be in [0, 100]");
}

TEST(TraceDecode, SharesAndWeightsAreNormalizedByteWeighted)
{
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        TraceGenConfig cfg;
        cfg.pattern = TraceGenConfig::Pattern::Random;
        cfg.count = 3000;
        cfg.seed = rng.next();
        cfg.readPct = 60.0;
        auto recs = generateTrace(cfg);
        const int channels = 1 + static_cast<int>(rng.below(4));
        const int dimms = 1 + static_cast<int>(rng.below(8));
        const int cells = static_cast<int>(rng.below(9)); // 0 = lumped
        TraceProfile p = decodeTrace(recs, channels, dimms, cells);

        EXPECT_EQ(p.records, recs.size());
        ASSERT_EQ(p.dimmShares.size(), static_cast<std::size_t>(dimms));
        double sum = std::accumulate(p.dimmShares.begin(),
                                     p.dimmShares.end(), 0.0);
        EXPECT_NEAR(sum, 1.0, 1e-9);
        for (double s : p.dimmShares)
            EXPECT_GE(s, 0.0);
        EXPECT_GE(p.readFraction, 0.0);
        EXPECT_LE(p.readFraction, 1.0);

        if (cells == 0) {
            EXPECT_TRUE(p.bankWeights.empty());
        } else {
            ASSERT_EQ(p.bankWeights.size(),
                      static_cast<std::size_t>(dimms) * cells);
            for (int d = 0; d < dimms; ++d) {
                double block = 0.0;
                for (int c = 0; c < cells; ++c)
                    block += p.bankWeights[d * cells + c];
                EXPECT_NEAR(block, 1.0, 1e-9); // touched or uniform
            }
        }
    }
}

TEST(TraceDecode, ByteWeightingCountsBytesNotRecords)
{
    // Two records to DIMM 0 at 64 B vs one to DIMM 1 at 384 B: DIMM 1
    // carries 3x the bytes despite half the records.
    std::vector<TraceRecord> recs;
    // channels=1, dimms=2, block=64: block index parity selects DIMM.
    recs.push_back({0 * 64, 64, false});  // dimm 0
    recs.push_back({2 * 64, 64, false});  // dimm 0
    recs.push_back({1 * 64, 384, true});  // dimm 1
    TraceProfile p = decodeTrace(recs, 1, 2, 0);
    EXPECT_NEAR(p.dimmShares[0], 128.0 / 512.0, 1e-12);
    EXPECT_NEAR(p.dimmShares[1], 384.0 / 512.0, 1e-12);
    EXPECT_NEAR(p.readFraction, 128.0 / 512.0, 1e-12);
}

TEST(TraceDecode, UntouchedDimmFallsBackToUniformWeights)
{
    // One record, channels=1, dimms=2, cells=4: DIMM 1 never appears,
    // so its weight block is uniform 1/4 (an idle DIMM's power splits
    // evenly, matching the lumped view).
    std::vector<TraceRecord> recs{{0, 64, false}};
    TraceProfile p = decodeTrace(recs, 1, 2, 4);
    EXPECT_EQ(p.dimmShares[1], 0.0);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(p.bankWeights[4 + c], 0.25);
    // The touched DIMM concentrates on the one cell it hit.
    EXPECT_EQ(p.bankWeights[0], 1.0);
}

/**
 * The decoder's shift/mask path (every divisor a power of two) and its
 * division path both match the reference division decoder bit for bit.
 */
TEST(TraceDecode, ShiftAndDivisionPathsMatchTheReference)
{
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<TraceRecord> recs;
        const int n = 1 + static_cast<int>(rng.below(2000));
        for (int i = 0; i < n; ++i)
            recs.push_back({rng.next() >> rng.below(64),
                            static_cast<std::uint32_t>(1 + rng.below(1 << 20)),
                            rng.uniform() < 0.3});
        const bool pow2 = rng.below(2) == 0;
        auto pick = [&](int max) {
            return pow2 ? 1 << rng.below(std::bit_width(unsigned(max)))
                        : 1 + static_cast<int>(rng.below(max));
        };
        const int channels = pick(8);
        const int dimms = pick(8);
        const int cells = rng.below(5) == 0 ? 0 : pick(1024);
        const std::uint32_t block = static_cast<std::uint32_t>(pick(4096));
        expectSameProfile(
            decodeTrace(recs, channels, dimms, cells, block),
            oracle::decodeTrace(recs, channels, dimms, cells, block),
            "trial " + std::to_string(trial) + ": " +
                std::to_string(channels) + "x" + std::to_string(dimms) +
                ", " + std::to_string(cells) + " cells, block " +
                std::to_string(block));
    }
}

TEST(TraceDecode, DegenerateInputsAreFatal)
{
    std::vector<TraceRecord> none;
    expectFatalWith([&] { decodeTrace(none, 1, 1, 0); }, "no records");
    std::vector<TraceRecord> one{{0, 64, false}};
    expectFatalWith([&] { decodeTrace(one, 0, 1, 0); },
                    "bad organization");
    expectFatalWith([&] { decodeTrace(one, 1, 1, 0, 0); },
                    "block size must be > 0");
}

/** Temp file helper: writes content, removes itself on destruction. */
struct TempTrace
{
    std::string path;

    explicit TempTrace(const std::string &content)
        : path(std::string(::testing::TempDir()) + "memtherm_trace_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".trace")
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << content;
    }

    ~TempTrace() { std::remove(path.c_str()); }
};

TEST(TraceFile, SaveLoadRoundTrip)
{
    TraceGenConfig cfg;
    cfg.count = 64;
    cfg.readPct = 50.0;
    auto recs = generateTrace(cfg);
    TempTrace tmp(""); // reserve a path; saveTrace overwrites it
    saveTrace(tmp.path, recs);
    EXPECT_EQ(loadTrace(tmp.path), recs);
}

/**
 * The scenario knob end to end: a trace whose stream lands entirely on
 * DIMM 0 must heat DIMM 0 the way the equivalent traffic_shape does,
 * and fill the bank weights when the grid is active.
 */
TEST(TraceScenario, TraceDrivesSharesAndBankWeights)
{
    // channels=4, dimms=4, block=64: block indices 0..3 are DIMM 0 on
    // channels 0..3; indices 16k+c stay on DIMM (k%4). Use addresses
    // whose block/4 % 4 == 0 so every access decodes to DIMM 0, cell
    // (block/16 % 8) == 0.
    std::string text = "#memtherm-trace v1\n";
    for (int b : {0, 1, 2, 3})
        text += std::to_string(b * 64) + " r 64\n";
    TempTrace tmp(text);

    ScenarioSpec s;
    s.name = "traced";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.copiesPerApp = 1;
    s.maxSimTime = 300.0;
    s.trace = tmp.path;
    s.thermalModel.name = "bank_grid";

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 1u);
    const SimConfig &cfg = low.points[0].cfg;
    ASSERT_EQ(cfg.trafficShares.size(), 4u);
    EXPECT_EQ(cfg.trafficShares[0], 1.0);
    EXPECT_EQ(cfg.trafficShares[1], 0.0);
    ASSERT_TRUE(cfg.bankGrid.has_value());
    ASSERT_EQ(cfg.bankGrid->weights.size(), 4u * 8u);
    EXPECT_EQ(cfg.bankGrid->weights[0], 1.0); // DIMM 0 all on cell 0
    for (int c = 0; c < 8; ++c) // untouched DIMM 1: uniform fallback
        EXPECT_EQ(cfg.bankGrid->weights[8 + c], 0.125);

    // Equivalent modeled shape gives the identical configuration, so
    // the runs are bit-identical by the engine's determinism.
    ScenarioSpec shaped = s;
    shaped.trace.clear();
    shaped.thermalModel = {};
    shaped.trafficShape.shares = {1.0, 0.0, 0.0, 0.0};
    LoweredScenario low2 = shaped.lower();
    EXPECT_EQ(low2.points[0].cfg.trafficShares, cfg.trafficShares);
}

/**
 * lower() decodes once per distinct (channels, DIMMs, cells) geometry;
 * every point must still carry exactly the profile a direct decode at
 * its own geometry gives. The sweep mixes power-of-two geometries (the
 * shift path) with 3 channels and a 6x6 grid (the division path), and
 * the t_inlet axis repeats every geometry.
 */
TEST(TraceScenario, EveryPointCarriesItsGeometrysProfile)
{
    TraceGenConfig gen;
    gen.pattern = TraceGenConfig::Pattern::Random;
    gen.maxAddr = 1ULL << 34;
    gen.count = 5000;
    gen.readPct = 65.0;
    const std::vector<TraceRecord> recs = generateTrace(gen);
    TempTrace tmp(formatTrace(recs));

    ScenarioSpec s;
    s.name = "memo";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.copiesPerApp = 1;
    s.trace = tmp.path;
    s.sweepMemoryOrg = {{"4x8", std::nullopt},
                        {"", MemoryOrgConfig{3, 2}},
                        {"ch4_4x4", std::nullopt}};
    s.sweepThermalModel = {{"lumped", std::nullopt},
                           {"", BankGridConfig{4, 4, {}}},
                           {"", BankGridConfig{6, 6, {}}}};
    s.sweepTInlet = {40.0, 45.0};

    const LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 18u);
    for (const auto &pt : low.points) {
        const SimConfig &cfg = pt.cfg;
        const int cells = cfg.bankGrid ? cfg.bankGrid->cells() : 0;
        const TraceProfile want =
            decodeTrace(recs, cfg.org.nChannels, cfg.org.nDimmsPerChannel,
                        cells);
        EXPECT_EQ(bits(cfg.trafficShares), bits(want.dimmShares)) << pt.label;
        if (cfg.bankGrid)
            EXPECT_EQ(bits(cfg.bankGrid->weights), bits(want.bankWeights))
                << pt.label;
        else
            EXPECT_TRUE(want.bankWeights.empty()) << pt.label;
    }
}

TEST(TraceScenario, TraceKnobRoundTripsThroughJson)
{
    ScenarioSpec s;
    s.name = "t";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.trace = "traces/app.trace";
    const std::string once = s.toJson().dump();
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(once));
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.toJson().dump(), once);

    expectFatalWith(
        [] {
            ScenarioSpec::fromJson(Json::parse(
                R"({"name":"x","workloads":["W1"],"policies":["No-limit"],
                    "config":{"trace":""}})"));
        },
        "'trace' path must not be empty");
}

} // namespace
} // namespace memtherm
