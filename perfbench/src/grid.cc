/**
 * @file
 * Workload modes, one timed repetition of a grid, and the results
 * comparison of the correctness pass.
 */

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "bench.hh"
#include "common/logging.hh"
#include "core/sim/result_sink.hh"

namespace perfbench
{

using namespace memtherm;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2)
        return hi;
    const double lo = *std::max_element(v.begin(),
                                        v.begin() + static_cast<long>(mid));
    return 0.5 * (lo + hi);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t k = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[k - 1];
}

const Mode &
modeByName(const std::string &name)
{
    // Why these three: ch4_grid is the paper's headline experiment and
    // is bound by the level-1 solve; policy_sweep_batched is the only
    // one on the shared-prefix/fork path; bank_grid_stream is bound by
    // the per-bank thermal advance and is the only one using refresh,
    // trace decode, JSONL streaming and more than one engine thread.
    static const std::vector<Mode> modes = {
        {"ch4_grid", 1, 0, false, {{"ch4_baseline", 1e-9}}},
        {"policy_sweep_batched", 1, 8, false, {{"policy_sweep", 1e-6}}},
        {"bank_grid_stream", 2, 0, true,
         {{"bank_hotspot", 1e-9}, {"refresh_runaway", 1e-9}}},
    };
    for (const Mode &m : modes)
        if (m.name == name)
            return m;
    std::string valid;
    for (const Mode &m : modes)
        valid += (valid.empty() ? "" : ", ") + m.name;
    fatal("unknown workload '" + name + "' (valid: " + valid + ")");
}

std::vector<ExperimentEngine::Run>
flattenRuns(const LoweredScenario &low)
{
    std::vector<ExperimentEngine::Run> all;
    all.reserve(low.totalRuns());
    for (const auto &pt : low.points)
        for (const auto &r : pt.runs)
            all.push_back(r);
    return all;
}

namespace
{

/** FNV-1a 64 over the exact bytes of the simulated statistics. */
struct Fnv
{
    std::uint64_t h = 14695981039346656037ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    void num(double v) { bytes(&v, sizeof v); }
    void
    str(const std::string &s)
    {
        const std::uint64_t n = s.size();
        bytes(&n, sizeof n);
        bytes(s.data(), s.size());
    }
    void
    vec(const std::vector<double> &v)
    {
        const std::uint64_t n = v.size();
        bytes(&n, sizeof n);
        bytes(v.data(), v.size() * sizeof(double));
    }
};

std::uint64_t
hashResult(const SimResult &r)
{
    Fnv f;
    f.str(r.workload);
    f.str(r.policy);
    f.num(r.completed ? 1.0 : 0.0);
    for (double v : {r.runningTime, r.totalInstr, r.totalReadGB,
                     r.totalWriteGB, r.totalL2Misses, r.memEnergy,
                     r.cpuEnergy, r.maxAmb, r.maxDram, r.timeAboveAmbTdp,
                     r.timeAboveDramTdp})
        f.num(v);
    f.vec(r.peakAmbPerDimm);
    f.vec(r.peakDramPerDimm);
    f.vec(r.avgPowerPerDimm);
    f.vec(r.refreshBwLossPerDimm);
    f.vec(r.refreshEnergyPerDimm);
    f.num(r.bankGridX);
    f.num(r.bankGridZ);
    f.vec(r.peakBankDramPerDimm);
    for (const TimeSeries *t : {&r.ambTrace, &r.dramTrace, &r.inletTrace,
                                &r.cpuPowerTrace, &r.bwTrace})
        f.vec(t->values());
    return f.h;
}

std::string
whatOf(std::exception_ptr err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

/**
 * The benchmark's RunSink: hashes every result, then hands it to its
 * destination — appended to the JSONL stream, or kept in memory for the
 * one results document — and stamps each delivery with its time and the
 * worker thread that made it (the engine calls the sink on the thread
 * that ran the run). The engine serializes sink calls, so no locking is
 * needed here.
 */
class BenchSink : public RunSink
{
  public:
    BenchSink(const LoweredScenario &low,
              const std::vector<ExperimentEngine::Run> &runs,
              JsonlResultWriter *writer, Clock::time_point start)
        : low(low), runs(runs), writer(writer), start(start),
          results(runs.size()), ok(runs.size(), false),
          hashes(runs.size(), 0), wallS(runs.size(), 0.0),
          latencyS(runs.size(), 0.0), windows(runs.size(), 0.0)
    {
    }

    void
    onResult(std::size_t i, SimResult &&r, double wall_s) override
    {
        const auto t0 = Clock::now();
        hashes[i] = hashResult(r);
        windows[i] = std::round(r.runningTime / runs[i].cfg.window);
        if (writer) {
            writer->appendResult(i, point(i), workload(i), policy(i), r,
                                 wall_s, true);
        } else {
            results[i] = std::move(r);
        }
        ok[i] = true;
        stamp(i, wall_s, t0);
    }

    void
    onFailure(std::size_t i, std::exception_ptr err) override
    {
        const auto t0 = Clock::now();
        const std::string what = whatOf(err);
        if (writer)
            writer->appendError(i, point(i), workload(i), policy(i), what);
        failures.emplace_back(i, what);
        stamp(i, 0.0, t0);
    }

    /** The grid's results document, assembled as runScenario() does. */
    ScenarioResults
    document(const ScenarioSpec &spec)
    {
        ScenarioResults out;
        out.scenario = spec.name;
        std::size_t k = 0;
        for (const auto &pt : low.points) {
            ScenarioResults::Point rp;
            rp.label = pt.label;
            for (const auto &w : low.workloads)
                for (const auto &p : low.policies) {
                    if (ok[k])
                        rp.suite[w][p] = std::move(results[k]);
                    ++k;
                }
            out.points.push_back(std::move(rp));
        }
        std::sort(failures.begin(), failures.end());
        for (const auto &[i, what] : failures)
            out.errors.push_back(
                RunError{i, point(i), workload(i), policy(i), what});
        return out;
    }

    const LoweredScenario &low;
    const std::vector<ExperimentEngine::Run> &runs;
    JsonlResultWriter *writer;
    Clock::time_point start;

    std::vector<SimResult> results;
    std::vector<bool> ok;
    std::vector<std::uint64_t> hashes;
    std::vector<double> wallS, latencyS, windows;
    std::map<std::thread::id, double> workerLastS;
    std::vector<std::pair<std::size_t, std::string>> failures;
    double handlingS = 0.0; ///< time spent inside the sink

  private:
    void
    stamp(std::size_t i, double wall_s, Clock::time_point t0)
    {
        const auto t1 = Clock::now();
        const double handled = std::chrono::duration<double>(t1 - t0).count();
        handlingS += handled;
        wallS[i] = wall_s;
        latencyS[i] = wall_s + handled;
        workerLastS[std::this_thread::get_id()] =
            std::chrono::duration<double>(t1 - start).count();
    }

    std::size_t perPoint() const
    {
        return low.workloads.size() * low.policies.size();
    }
    const std::string &point(std::size_t i) const
    {
        return low.points[i / perPoint()].label;
    }
    const std::string &workload(std::size_t i) const
    {
        return low.workloads[(i % perPoint()) / low.policies.size()];
    }
    const std::string &policy(std::size_t i) const
    {
        return low.policies[i % low.policies.size()];
    }
};

} // namespace

RepResult
runRep(const Mode &mode, const ScenarioSpec &spec, const LoweredScenario &low,
       const std::vector<ExperimentEngine::Run> &runs,
       ExperimentEngine &engine, const std::string &out_path)
{
    std::optional<JsonlResultWriter> writer;
    if (mode.stream)
        writer.emplace(out_path, spec, runs.size(), ShardSpec{}, true);

    RepResult rep;
    BatchStats stats;
    const auto t0 = Clock::now();
    BenchSink sink(low, runs, writer ? &*writer : nullptr, t0);
    if (mode.batchWidth > 0)
        engine.runBatched(runs, low.classes, mode.batchWidth, sink, &stats);
    else
        engine.run(runs, sink);
    if (!mode.stream) {
        // The in-memory path delivers its results as one document,
        // written once when the grid is done (`memtherm run -o`).
        const auto s0 = Clock::now();
        toJson(sink.document(spec)).save(out_path);
        rep.serializeS += secondsSince(s0);
    }
    rep.gridS = secondsSince(t0);
    writer.reset();

    rep.serializeS += sink.handlingS;
    rep.bytes = std::filesystem::file_size(out_path);
    rep.wallS = sink.wallS;
    rep.latencyS = sink.latencyS;
    for (const auto &[worker, last] : sink.workerLastS)
        rep.workerLastS.push_back(last);
    rep.runWindows = sink.windows;
    for (const auto &[i, what] : sink.failures)
        rep.failures.push_back(std::to_string(i) + ": " + what);

    Fnv digest;
    for (std::uint64_t h : sink.hashes)
        digest.bytes(&h, sizeof h);
    rep.digest = digest.h;

    for (double w : sink.windows)
        rep.logicalWindows += w;
    rep.simulatedWindows = mode.batchWidth > 0
                               ? std::round(stats.simulatedWindows)
                               : rep.logicalWindows;
    rep.forks = stats.forks;
    return rep;
}

namespace
{

std::string
numText(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    return Json::numberToString(v);
}

} // namespace

bool
jsonNear(const Json &a, const Json &b, double tol, const std::string &path,
         std::string &where, std::string &detail)
{
    auto miss = [&](const std::string &d) {
        where = path.empty() ? "(root)" : path;
        detail = d;
        return false;
    };
    if (a.type() != b.type())
        return miss("type mismatch");
    switch (a.type()) {
      case Json::Type::Null:
        return true;
      case Json::Type::Bool:
        return a.asBool() == b.asBool() ? true : miss("bool mismatch");
      case Json::Type::Number: {
          const double x = a.asNumber(), y = b.asNumber();
          if (std::isnan(x) && std::isnan(y))
              return true;
          if (!std::isfinite(x) || !std::isfinite(y))
              return x == y ? true : miss(numText(x) + " vs " + numText(y));
          const double bound =
              tol * std::max(std::abs(x), std::abs(y)) + 1e-12;
          return std::abs(x - y) <= bound
                     ? true
                     : miss(numText(x) + " vs " + numText(y));
      }
      case Json::Type::String:
        return a.asString() == b.asString()
                   ? true
                   : miss("'" + a.asString() + "' vs '" + b.asString() +
                          "'");
      case Json::Type::Array: {
          const auto &av = a.asArray(), &bv = b.asArray();
          if (av.size() != bv.size())
              return miss("array length mismatch");
          for (std::size_t i = 0; i < av.size(); ++i)
              if (!jsonNear(av[i], bv[i], tol,
                            path + "[" + std::to_string(i) + "]", where,
                            detail))
                  return false;
          return true;
      }
      case Json::Type::Object: {
          std::size_t compared = 0;
          for (const auto &[k, v] : a.asObject()) {
              if (k == "traces")
                  continue;
              const Json *bv = b.find(k);
              if (!bv)
                  return miss("unexpected member '" + k + "'");
              if (!jsonNear(v, *bv, tol, path + "." + k, where, detail))
                  return false;
              ++compared;
          }
          return compared == b.asObject().size()
                     ? true
                     : miss("golden member missing");
      }
    }
    return miss("unreachable");
}

} // namespace perfbench
