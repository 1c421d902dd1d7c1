#include "dram/trace.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace memtherm
{

namespace
{

std::string
at(const std::string &name, std::size_t line)
{
    return "trace '" + name + "' line " + std::to_string(line);
}

/**
 * Split the next line off @p rest, as std::getline does: the text up to
 * (not including) the next '\n', or the unterminated tail. False once
 * @p rest is empty.
 */
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

/** The set operator>> splits strings on in the C locale: " \t\n\v\f\r". */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * Take the next whitespace-delimited token off @p rest, as operator>>
 * on a string would; empty when none is left.
 */
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

/** Parse a decimal or 0x-prefixed hex integer; false on junk. */
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
        // Overflow check; the literal divisors compile to multiplies,
        // not a 64-bit division per digit.
        const std::uint64_t room = ~0ULL - static_cast<std::uint64_t>(digit);
        if (v > (base == 16 ? room / 16 : room / 10))
            return false; // overflow
        v = v * static_cast<std::uint64_t>(base) +
            static_cast<std::uint64_t>(digit);
    }
    out = v;
    return true;
}

/** Hex digit values (parseU64's digit set); 0xff marks a non-digit. */
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
    std::array<std::uint8_t, 256> t{};
    t.fill(0xff);
    for (int c = 0; c < 10; ++c)
        t['0' + c] = static_cast<std::uint8_t>(c);
    for (int c = 0; c < 6; ++c) {
        t['a' + c] = static_cast<std::uint8_t>(10 + c);
        t['A' + c] = static_cast<std::uint8_t>(10 + c);
    }
    return t;
}();

/**
 * The fast path for the canonical record line `0x<hex> <r|w> <dec>`,
 * the spelling formatTrace writes, at the start of [@p p, @p end) and
 * ending at a '\n' or at the end of the text. Returns the bytes taken
 * (the newline included) with @p rec filled, or 0 to leave the line to
 * the general tokenizer, which then owns every diagnostic. It accepts
 * only lines the tokenizer accepts with the same record: 1-16 hex
 * digits (so no overflow), one blank on each side of the op, and 1-10
 * decimal digits worth 1 to 2^32 - 1.
 */
std::size_t
parseCanonical(const char *p, const char *end, TraceRecord &rec)
{
    const char *const start = p;
    if (end - p < 2 || p[0] != '0' || p[1] != 'x')
        return 0;
    p += 2;
    std::uint64_t addr = 0;
    int n = 0;
    for (; p != end; ++p, ++n) {
        const std::uint8_t d = kHexValue[static_cast<unsigned char>(*p)];
        if (d > 15)
            break;
        if (n == 16)
            return 0;
        addr = addr << 4 | d;
    }
    if (n == 0 || end - p < 4 || p[0] != ' ' || (p[1] != 'r' && p[1] != 'w') ||
        p[2] != ' ')
        return 0;
    const bool write = p[1] == 'w';
    p += 3;
    std::uint64_t bytes = 0;
    for (n = 0; p != end; ++p, ++n) {
        const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
        if (d > 9)
            break;
        if (n == 10)
            return 0;
        bytes = bytes * 10 + d;
    }
    if (n == 0 || bytes == 0 || bytes > 0xffffffffULL)
        return 0;
    if (p != end && *p++ != '\n')
        return 0;
    rec.addr = addr;
    rec.bytes = static_cast<std::uint32_t>(bytes);
    rec.write = write;
    return static_cast<std::size_t>(p - start);
}

/**
 * Tally byte counts per DIMM and per (DIMM, bank cell) in record order,
 * which fixes the floating-point sums whatever @p locate computes.
 * @p locate maps an address to its (DIMM, cell) pair; the cell is
 * ignored when @p bank_cells is 0.
 */
template <class Locate>
void
tally(const std::vector<TraceRecord> &records, std::size_t bank_cells,
      Locate locate, std::vector<double> &dimm_bytes,
      std::vector<double> &bank_bytes, double &total_bytes,
      double &read_bytes)
{
    for (const TraceRecord &r : records) {
        const auto [dimm, cell] = locate(r.addr);
        const double b = static_cast<double>(r.bytes);
        dimm_bytes[dimm] += b;
        if (bank_cells > 0)
            bank_bytes[dimm * bank_cells + cell] += b;
        total_bytes += b;
        if (!r.write)
            read_bytes += b;
    }
}

} // namespace

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
    // Upper bound (comments and blanks included): one allocation.
    out.reserve(static_cast<std::size_t>(
        std::count(rest.begin(), rest.end(), '\n') + 1));
    const char *const end = rest.data() + rest.size();
    while (!rest.empty()) {
        ++line_no;
        TraceRecord rec;
        if (const std::size_t n = parseCanonical(rest.data(), end, rec)) {
            out.push_back(rec);
            rest.remove_prefix(n);
            continue;
        }
        nextLine(rest, line);
        // Skip blanks and comments.
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

std::vector<TraceRecord>
loadTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("trace '" + path + "': cannot open file");
    // One read into a buffer sized from the file; a stream whose size
    // is unknown (a pipe), or a file that grew meanwhile, is read on in
    // chunks from where that read stopped.
    std::string text;
    const std::streamoff size = in.seekg(0, std::ios::end).tellg();
    if (size > 0 && in.seekg(0, std::ios::beg)) {
        text.resize(static_cast<std::size_t>(size));
        in.read(text.data(), size);
        text.resize(static_cast<std::size_t>(in.gcount()));
    }
    in.clear();
    char chunk[1 << 12];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
        text.append(chunk, static_cast<std::size_t>(in.gcount()));
    return parseTrace(text, path);
}

std::string
formatTrace(const std::vector<TraceRecord> &records)
{
    std::ostringstream out;
    out << "#memtherm-trace v" << kTraceFormatVersion << "\n";
    for (const TraceRecord &r : records)
        out << "0x" << std::hex << r.addr << std::dec
            << (r.write ? " w " : " r ") << r.bytes << "\n";
    return out.str();
}

void
saveTrace(const std::string &path, const std::vector<TraceRecord> &records)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("trace '" + path + "': cannot open file for writing");
    out << formatTrace(records);
    out.flush();
    if (!out)
        fatal("trace '" + path + "': write failed");
}

std::vector<TraceRecord>
generateTrace(const TraceGenConfig &cfg)
{
    if (cfg.blockSize == 0)
        fatal("trace gen: block size must be > 0");
    if (cfg.count == 0)
        fatal("trace gen: count must be > 0");
    if (cfg.maxAddr <= cfg.minAddr)
        fatal("trace gen: max address must be > min address");
    const std::uint64_t span = cfg.maxAddr - cfg.minAddr;
    const std::uint64_t blocks = span / cfg.blockSize;
    if (blocks == 0)
        fatal("trace gen: address range smaller than one block");
    if (!(cfg.readPct >= 0.0 && cfg.readPct <= 100.0))
        fatal("trace gen: read percentage must be in [0, 100]");

    Rng rng(cfg.seed);
    std::vector<TraceRecord> out;
    out.reserve(cfg.count);
    std::uint64_t linear_block = 0;
    for (std::uint64_t i = 0; i < cfg.count; ++i) {
        std::uint64_t block;
        if (cfg.pattern == TraceGenConfig::Pattern::Linear) {
            block = linear_block;
            linear_block = (linear_block + 1) % blocks;
        } else {
            block = rng.below(blocks);
        }
        TraceRecord rec;
        rec.addr = cfg.minAddr + block * cfg.blockSize;
        rec.bytes = cfg.blockSize;
        // One uniform draw per record in both patterns, so the r/w
        // stream of a linear and a random trace at one seed differ only
        // through the random pattern's own draws.
        rec.write = rng.uniform() * 100.0 >= cfg.readPct;
        out.push_back(rec);
    }
    return out;
}

TraceProfile
decodeTrace(const std::vector<TraceRecord> &records, int n_channels,
            int n_dimms, int bank_cells, std::uint32_t block_size)
{
    if (records.empty())
        fatal("trace decode: no records");
    if (n_channels < 1 || n_dimms < 1 || bank_cells < 0)
        fatal("trace decode: bad organization");
    if (block_size == 0)
        fatal("trace decode: block size must be > 0");

    TraceProfile p;
    p.dimmShares.assign(static_cast<std::size_t>(n_dimms), 0.0);
    const std::size_t cells = static_cast<std::size_t>(bank_cells);
    const std::size_t n_bank = static_cast<std::size_t>(n_dimms) * cells;
    std::vector<double> bank_bytes(n_bank, 0.0);

    const std::uint64_t nc = static_cast<std::uint64_t>(n_channels);
    const std::uint64_t nd = static_cast<std::uint64_t>(n_dimms);
    const std::uint64_t nb = static_cast<std::uint64_t>(bank_cells);
    double total_bytes = 0.0;
    double read_bytes = 0.0;
    if (std::has_single_bit(std::uint64_t{block_size}) &&
        std::has_single_bit(nc) && std::has_single_bit(nd) &&
        (nb == 0 || std::has_single_bit(nb))) {
        // Every divisor a power of two: the same map by shifts and masks.
        const int sb = std::countr_zero(block_size);
        const int sc = std::countr_zero(nc);
        const int sd = std::countr_zero(nd);
        const std::uint64_t cell_mask = nb == 0 ? 0 : nb - 1;
        tally(records, cells,
              [=](std::uint64_t addr) {
                  const std::uint64_t block = addr >> sb;
                  return std::pair{(block >> sc) & (nd - 1),
                                   (block >> (sc + sd)) & cell_mask};
              },
              p.dimmShares, bank_bytes, total_bytes, read_bytes);
    } else {
        tally(records, cells,
              [=](std::uint64_t addr) {
                  const std::uint64_t block = addr / block_size;
                  return std::pair{block / nc % nd,
                                   nb == 0 ? 0 : block / (nc * nd) % nb};
              },
              p.dimmShares, bank_bytes, total_bytes, read_bytes);
    }
    p.records = records.size();

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
                // A DIMM the trace never touches gets uniform weights:
                // its (zero-share) power splits evenly, matching the
                // lumped model's view of an idle DIMM.
                p.bankWeights[d * bank_cells + c] =
                    dimm_total > 0.0
                        ? bank_bytes[d * bank_cells + c] / dimm_total
                        : 1.0 / bank_cells;
            }
        }
    }
    return p;
}

} // namespace memtherm
