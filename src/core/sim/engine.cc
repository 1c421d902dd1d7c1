#include "core/sim/engine.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "common/logging.hh"
#include "core/sim/registry.hh"

namespace memtherm
{

int
ExperimentEngine::defaultThreads()
{
    if (const char *env = std::getenv("MEMTHERM_THREADS")) {
        int n = std::atoi(env);
        if (n >= 1)
            return n;
        warn("MEMTHERM_THREADS='" + std::string(env) +
             "' is not a positive integer; using hardware concurrency");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

ExperimentEngine::ExperimentEngine(int n_threads)
    : nThreads(n_threads > 0 ? n_threads : defaultThreads())
{
    // One thread means "serial reference mode": run() executes inline on
    // the calling thread and no workers exist.
    if (nThreads < 2)
        return;
    workers.reserve(static_cast<std::size_t>(nThreads));
    for (int i = 0; i < nThreads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ExperimentEngine::~ExperimentEngine()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    wake.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ExperimentEngine::workerLoop()
{
    // Worker-owned scratch: reused across every run this thread executes,
    // so back-to-back runs stop allocating once the buffers are warm.
    ThermalSimulator::Scratch scratch;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mtx);
            wake.wait(lock, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task(scratch);
    }
}

std::unique_ptr<DtmPolicy>
ExperimentEngine::makePolicy(const Run &r)
{
    auto policy = r.factory
                      ? r.factory(r.cfg, r.policy)
                      : PolicyRegistry::instance().make(
                            r.policy, PolicyBuildContext{
                                          r.cfg.dtmInterval,
                                          r.cfg.emergencyLevels,
                                          r.cfg.remapInterval,
                                          r.cfg.remapHysteresis,
                                          r.cfg.trafficShares});
    panicIfNot(policy != nullptr, "ExperimentEngine: null policy");
    return policy;
}

void
ExperimentEngine::run(const std::vector<Run> &runs, RunSink &sink)
{
    // Every run its own class, one policy per chunk: each chunk is a
    // one-policy runBatch(), i.e. ThermalSimulator::run().
    std::vector<RunClass> singles(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        singles[i] = RunClass{i, 1};
    runBatched(runs, singles, 1, sink, nullptr);
}

void
ExperimentEngine::runBatched(const std::vector<Run> &runs,
                             const std::vector<RunClass> &classes,
                             int batch_width, RunSink &sink,
                             BatchStats *stats)
{
    using clock = std::chrono::steady_clock;

    // The classes must tile the run list in order — every run belongs to
    // exactly one class, so delivery covers every index exactly once.
    std::size_t covered = 0;
    for (const RunClass &c : classes) {
        panicIfNot(c.first == covered && c.count >= 1,
                   "runBatched: classes must tile the run list in order");
        covered += c.count;
    }
    panicIfNot(covered == runs.size(),
               "runBatched: classes do not cover every run");

    // Split classes into chunks of at most batch_width runs. A chunk is
    // the unit of dispatch: one pool task, one runBatch() call.
    struct Chunk
    {
        std::size_t first = 0;
        std::size_t count = 0;
    };
    const std::size_t width = batch_width >= 1
                                  ? static_cast<std::size_t>(batch_width)
                                  : runs.size() + 1;
    std::vector<Chunk> chunks;
    for (const RunClass &c : classes)
        for (std::size_t off = 0; off < c.count; off += width)
            chunks.push_back(
                Chunk{c.first + off, std::min(width, c.count - off)});

    // The first exception a *sink call* throws; run failures go through
    // sink.onFailure and never abort the batch.
    std::exception_ptr sink_error;
    // Serializes sink invocations (the RunSink contract) and guards
    // sink_error and agg. In inline mode the calling thread is the only
    // caller, but the lock is cheap and keeps one code path.
    std::mutex sink_mtx;
    BatchStats agg;
    auto deliver = [&](std::size_t i, SimResult &&r, double wall_s,
                       std::exception_ptr err) {
        std::lock_guard<std::mutex> lock(sink_mtx);
        try {
            if (err)
                sink.onFailure(i, err);
            else
                sink.onResult(i, std::move(r), wall_s);
        } catch (...) {
            if (!sink_error)
                sink_error = std::current_exception();
        }
    };

    // Runs one chunk, charging each member an even share of its wall
    // time plus prior_s. A shared simulation that throws returns the
    // members still owed an outcome instead.
    auto attempt = [&](const Chunk &ch, ThermalSimulator::Scratch &s,
                       double prior_s) -> std::vector<std::size_t> {
        const auto t0 = clock::now();

        // Build one policy per member; a failing build (unknown name,
        // bad config) fails only that run and the rest still batch.
        std::vector<std::unique_ptr<DtmPolicy>> built;
        std::vector<std::size_t> idx;
        for (std::size_t i = ch.first; i < ch.first + ch.count; ++i) {
            try {
                built.push_back(makePolicy(runs[i]));
                idx.push_back(i);
            } catch (...) {
                deliver(i, SimResult{}, 0.0, std::current_exception());
            }
        }
        if (idx.empty())
            return {};

        std::vector<DtmPolicy *> ptrs;
        ptrs.reserve(built.size());
        for (const auto &p : built)
            ptrs.push_back(p.get());

        BatchStats chunk_stats;
        std::vector<SimResult> results;
        std::exception_ptr err;
        try {
            ThermalSimulator sim(runs[ch.first].cfg);
            results = sim.runBatch(runs[ch.first].workload, ptrs, s,
                                   &chunk_stats);
        } catch (...) {
            err = std::current_exception();
        }
        if (err && idx.size() > 1)
            return idx;
        const double wall_s =
            std::chrono::duration<double>(clock::now() - t0).count();
        // The chunk's wall time is shared work; apportion it evenly so
        // per-run timings still sum to the grid total.
        const double share =
            wall_s / static_cast<double>(idx.size()) + prior_s;
        if (err) {
            deliver(idx[0], SimResult{}, share, err);
            return {};
        }
        for (std::size_t k = 0; k < idx.size(); ++k)
            deliver(idx[k], std::move(results[k]), share, nullptr);
        if (stats) {
            std::lock_guard<std::mutex> lock(sink_mtx);
            agg.add(chunk_stats);
        }
        return {};
    };

    auto oneChunk = [&](const Chunk &ch, ThermalSimulator::Scratch &s) {
        const auto t0 = clock::now();
        const std::vector<std::size_t> rerun = attempt(ch, s, 0.0);
        if (rerun.empty())
            return;
        // The chunk cannot tell whose policy threw: rerun each member
        // alone with a fresh policy, so only the faulty run fails, and
        // split the failed attempt's time evenly across the reruns.
        const double lost =
            std::chrono::duration<double>(clock::now() - t0).count() /
            static_cast<double>(rerun.size());
        for (std::size_t i : rerun)
            attempt(Chunk{i, 1}, s, lost);
    };

    if (workers.empty()) {
        std::unique_lock<std::mutex> own(serialMtx, std::try_to_lock);
        ThermalSimulator::Scratch fresh;
        ThermalSimulator::Scratch &scratch =
            own.owns_lock() ? serialScratch : fresh;
        for (const Chunk &ch : chunks)
            oneChunk(ch, scratch);
    } else {
        // Completion state lives on this frame; `done` is guarded by
        // done_mtx (not an atomic) so this call cannot observe the grid
        // as finished before the last worker has released the mutex —
        // i.e. before it is done touching done_cv/done_mtx. An atomic
        // counter would let it return (and destroy these objects)
        // between a worker's increment and its notify.
        std::size_t done = 0;
        std::mutex done_mtx;
        std::condition_variable done_cv;
        {
            std::lock_guard<std::mutex> lock(mtx);
            for (const Chunk &ch : chunks) {
                queue.emplace_back([&, ch](ThermalSimulator::Scratch &s) {
                    oneChunk(ch, s);
                    std::lock_guard<std::mutex> dlock(done_mtx);
                    if (++done == chunks.size())
                        done_cv.notify_all();
                });
            }
        }
        wake.notify_all();
        {
            std::unique_lock<std::mutex> lock(done_mtx);
            done_cv.wait(lock, [&] { return done == chunks.size(); });
        }
    }

    if (stats)
        stats->add(agg);
    if (sink_error)
        std::rethrow_exception(sink_error);
}

namespace
{

/**
 * Sink behind the collecting run() overload: positional results plus
 * the first failure (kept as exception_ptr so the original type
 * survives the labeled rethrow).
 */
class CollectingSink : public RunSink
{
  public:
    explicit CollectingSink(std::size_t n) : results(n) {}

    void onResult(std::size_t i, SimResult &&r, double) override
    {
        results[i] = std::move(r);
        ++completed;
    }

    void onFailure(std::size_t i, std::exception_ptr err) override
    {
        if (!firstError) {
            firstError = err;
            firstIndex = i;
        }
    }

    std::vector<SimResult> results;
    std::size_t completed = 0;
    std::exception_ptr firstError;
    std::size_t firstIndex = 0;
};

} // namespace

std::vector<SimResult>
ExperimentEngine::run(const std::vector<Run> &runs)
{
    CollectingSink sink(runs.size());
    run(runs, sink);
    if (sink.firstError) {
        const Run &r = runs[sink.firstIndex];
        const std::string label =
            " [in run #" + std::to_string(sink.firstIndex) +
            ": workload '" + r.workload.name + "', policy '" + r.policy +
            "'; " + std::to_string(sink.completed) + " of " +
            std::to_string(runs.size()) + " runs completed]";
        // Re-throw as the original diagnostic type where known, so
        // callers' FatalError/PanicError handling still applies.
        try {
            std::rethrow_exception(sink.firstError);
        } catch (const FatalError &e) {
            throw FatalError(e.what() + label);
        } catch (const PanicError &e) {
            throw PanicError(e.what() + label);
        } catch (const std::exception &e) {
            throw std::runtime_error(e.what() + label);
        }
    }
    return std::move(sink.results);
}

std::vector<ExperimentEngine::Run>
ExperimentEngine::makeSuiteRuns(const SimConfig &cfg,
                                const std::vector<Workload> &workloads,
                                const std::vector<std::string> &policies,
                                const PolicyFactory &factory)
{
    std::vector<Run> runs;
    runs.reserve(workloads.size() * policies.size());
    for (const auto &w : workloads)
        for (const auto &pname : policies)
            runs.push_back(Run{cfg, w, pname, factory});
    return runs;
}

SuiteResults
ExperimentEngine::runSuite(const SimConfig &cfg,
                           const std::vector<Workload> &workloads,
                           const std::vector<std::string> &policy_names,
                           const PolicyFactory &factory)
{
    std::vector<SimResult> results =
        run(makeSuiteRuns(cfg, workloads, policy_names, factory));

    SuiteResults out;
    std::size_t k = 0;
    for (const auto &w : workloads)
        for (const auto &pname : policy_names)
            out[w.name][pname] = std::move(results[k++]);
    return out;
}

GridResults
ExperimentEngine::runGrid(const std::vector<SimConfig> &cfgs,
                          const std::vector<Workload> &workloads,
                          const std::vector<std::string> &policy_names,
                          const PolicyFactory &factory)
{
    // One flat batch across all configs: a sweep with many configs but
    // few runs per config still fills every worker.
    std::vector<Run> runs;
    runs.reserve(cfgs.size() * workloads.size() * policy_names.size());
    for (const auto &cfg : cfgs) {
        auto suite = makeSuiteRuns(cfg, workloads, policy_names, factory);
        for (auto &r : suite)
            runs.push_back(std::move(r));
    }
    std::vector<SimResult> results = run(runs);

    GridResults out(cfgs.size());
    std::size_t k = 0;
    for (std::size_t c = 0; c < cfgs.size(); ++c)
        for (const auto &w : workloads)
            for (const auto &pname : policy_names)
                out[c][w.name][pname] = std::move(results[k++]);
    return out;
}

} // namespace memtherm
