/**
 * @file
 * google-benchmark microbenchmarks of the FBDIMM timing simulator and
 * of trace ingest (parse and decode of a 200k-record trace).
 */

#include <benchmark/benchmark.h>

#include "dram/trace.hh"
#include "dram/traffic_gen.hh"

using namespace memtherm;

namespace
{

void
BM_ChannelRandomReads(benchmark::State &state)
{
    ChannelConfig cfg;
    cfg.checkProtocol = state.range(0) != 0;
    std::uint64_t served = 0;
    for (auto _ : state) {
        state.PauseTiming();
        FbdimmChannel ch(cfg);
        Rng rng(3);
        state.ResumeTiming();
        for (int i = 0; i < 4096; ++i) {
            MemRequest r;
            r.id = static_cast<std::uint64_t>(i);
            r.dimm = static_cast<int>(rng.below(4));
            r.bank = static_cast<int>(rng.below(8));
            r.write = rng.uniform() < 0.3;
            r.arrival = static_cast<Tick>(i) * nsToTick(2.0);
            while (!ch.enqueue(r))
                ch.issueOne();
        }
        ch.drain();
        served += 4096;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(served));
}

void
BM_MemorySystemSaturation(benchmark::State &state)
{
    MemSystemConfig cfg;
    for (auto _ : state) {
        MeasuredPerf p = saturationProbe(cfg, 20000, 0.3);
        benchmark::DoNotOptimize(p.achieved);
    }
    state.SetItemsProcessed(20000 * state.iterations());
}

void
BM_AddressDecode(benchmark::State &state)
{
    AddressMap map(2, 4, 8, 64);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        DecodedAddr d = map.decode(addr);
        benchmark::DoNotOptimize(d);
        addr += 64;
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * A 200k-record random trace over the block interleave of a 4x8
 * organization with 32x32 bank cells (2^16 rows of blocks), in the
 * canonical spelling formatTrace writes.
 */
std::vector<TraceRecord>
benchTrace()
{
    TraceGenConfig cfg;
    cfg.pattern = TraceGenConfig::Pattern::Random;
    cfg.maxAddr = 64ULL * 4 * 8 * 1024 << 16;
    cfg.count = 200000;
    cfg.readPct = 70.0;
    return generateTrace(cfg);
}

void
BM_TraceParse(benchmark::State &state)
{
    const std::string text = formatTrace(benchTrace());
    for (auto _ : state) {
        std::vector<TraceRecord> recs = parseTrace(text, "bench");
        benchmark::DoNotOptimize(recs.data());
    }
    state.SetItemsProcessed(200000 * state.iterations());
    state.SetBytesProcessed(static_cast<std::int64_t>(text.size()) *
                            state.iterations());
}

void
BM_TraceDecode(benchmark::State &state)
{
    const std::vector<TraceRecord> recs = benchTrace();
    for (auto _ : state) {
        TraceProfile p = decodeTrace(recs, 4, 8, 32 * 32);
        benchmark::DoNotOptimize(p.bankWeights.data());
    }
    state.SetItemsProcessed(200000 * state.iterations());
}

BENCHMARK(BM_ChannelRandomReads)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_MemorySystemSaturation)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AddressDecode);
BENCHMARK(BM_TraceParse)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceDecode)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
