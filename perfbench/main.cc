/**
 * @file
 * exion_perfbench: runs one workload of the repository benchmark and
 * prints every metric by name and unit, with the result as one JSON
 * object on the last line of standard output.
 *
 *   exion_perfbench --workload mld-exion|mld-dense|http-stream
 *                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 is a separate
 * run that measures the per-layer metrics (and writes the Chrome
 * trace to --trace-out). See README.md for the workloads and metrics.
 */

#include <algorithm>
#include <cmath>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"

#include "exion/common/rng.h"
#include "exion/metrics/metrics.h"
#include "exion/net/http_client.h"
#include "exion/net/http_server.h"
#include "exion/serve/http_front.h"

using namespace exion;
using namespace perfbench;

namespace
{

/** Requests each in-process closed loop keeps outstanding
    (= cohortMaxRows, so one cohort can fill). */
constexpr u64 kMldOutstanding = 8;

/**
 * Mean think time of the mld-* clients. Without it every member of a
 * finished cohort is resubmitted in the same instant, and the cohort
 * partition that follows can persist for tens of seconds, so run-to-run
 * spread of latency_p90_s and step_gap_p99_s on mld-dense reached 20%.
 * 1 ms (0.5% of a dense request) is enough to break that lock-step.
 */
constexpr double kThinkMeanSeconds = 0.001;

/** Closed-loop HTTP clients of http-stream. */
constexpr u64 kHttpClients = 2;

/** Set-up is repeated at least this often and for at least
    kSetupMinSeconds; the median is reported. */
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 1.0;

/** Replay self-times must add up to the replay wall time within this
    share. */
constexpr double kReplayTolerance = 0.05;

struct Args
{
    Workload workload = Workload::MldExion;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            if (!parseWorkload(v, args.workload))
                return false;
            haveWorkload = true;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty())
                return false;
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                return false;
            args.trace = v == "1";
        } else if (arg == "--trace-out") {
            args.traceOut = v;
        } else {
            return false;
        }
    }
    return haveWorkload;
}

// ------------------------------------------------------------ serving

/** Engine, recording decorator and (http-stream) the front door. */
struct Stack
{
    std::unique_ptr<BatchEngine> engine;
    std::unique_ptr<RecordingBackend> recorder;
    std::unique_ptr<HttpFront> front;
    std::unique_ptr<HttpServer> server;
};

std::unique_ptr<Stack>
buildStack(Workload w)
{
    auto stack = std::make_unique<Stack>();
    stack->engine = std::make_unique<BatchEngine>(engineOptions(w));
    for (Benchmark b : workloadModels(w))
        stack->engine->addModel(workloadConfig(w, b));
    stack->recorder = std::make_unique<RecordingBackend>(*stack->engine);
    if (w == Workload::HttpStream) {
        stack->front = std::make_unique<HttpFront>(*stack->recorder);
        HttpFront *front = stack->front.get();
        stack->server = std::make_unique<HttpServer>(
            HttpServer::Options{},
            [front](const HttpRequest &req, ResponseWriter &writer) {
                front->handle(req, writer);
            });
        stack->server->start();
    }
    return stack;
}

/** Every request type of the list, plus the dense twin of each sparse
    one (the quality comparator). */
std::vector<RequestSpec>
referenceSpecs(Workload w, u64 seed)
{
    std::vector<RequestSpec> specs;
    for (u64 i = 0; i < kListPeriod; ++i) {
        RequestSpec spec = requestAt(w, seed, i);
        specs.push_back(spec);
        if (spec.mode != ExecMode::Dense) {
            spec.mode = ExecMode::Dense;
            specs.push_back(spec);
        }
    }
    std::sort(specs.begin(), specs.end());
    specs.erase(std::unique(specs.begin(), specs.end()), specs.end());
    return specs;
}

/** Solo DiffusionPipeline::run of every reference request, spread
    over the hardware threads (outside any timed window). */
ReferenceMap
computeReferences(Workload w, u64 seed, const BatchEngine &engine)
{
    const std::vector<RequestSpec> specs = referenceSpecs(w, seed);
    std::vector<Matrix> outs(specs.size());
    std::atomic<std::size_t> next{0};
    const BatchEngine::Options opts = engineOptions(w);
    const auto worker = [&] {
        for (std::size_t i = next++; i < specs.size(); i = next++) {
            const DiffusionPipeline &pipe = engine.pipeline(specs[i].benchmark);
            const auto exec = makeSoloExecutor(pipe.config(), specs[i].mode, opts);
            RunOptions run;
            run.noiseSeed = specs[i].noiseSeed;
            outs[i] = pipe.run(*exec, run);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < opts.workers; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    ReferenceMap refs;
    for (std::size_t i = 0; i < specs.size(); ++i)
        refs.emplace(specs[i], std::move(outs[i]));
    return refs;
}

/** Measured window of a closed loop and the requests it covers. */
struct Window
{
    Clock::time_point start;
    Clock::time_point end;
    double seconds() const { return secondsBetween(start, end); }
    bool contains(Clock::time_point t) const { return t >= start && t <= end; }
};

/**
 * mld-*: one thread plays kMldOutstanding closed-loop clients against
 * the engine; each resubmits after a seeded exponential think time.
 * The window opens once the first kMldOutstanding requests have
 * completed (weights paged in, cohorts formed) and lasts `seconds`;
 * requests outstanding when it closes run to completion.
 * @return ids of the requests submitted inside the window
 */
std::vector<u64>
runInProcessLoop(RecordingBackend &rec, Workload w, u64 seed, double seconds,
                 Window &window)
{
    std::mutex m;
    std::condition_variable cv;
    u64 completions = 0;
    // Notifies under the lock: once the loop sees the last completion
    // it returns and destroys cv, so no notify may follow the unlock.
    rec.setOnComplete([&](const RequestResult &) {
        std::lock_guard<std::mutex> lock(m);
        ++completions;
        cv.notify_one();
    });

    std::vector<u64> measured;
    u64 next = 0;
    u64 outstanding = 0;
    bool measuring = false;
    const auto submitNext = [&] {
        const RequestSpec spec = requestAt(w, seed, next);
        ServeRequest req;
        req.id = ++next;
        req.benchmark = spec.benchmark;
        req.mode = spec.mode;
        req.noiseSeed = spec.noiseSeed;
        if (measuring)
            measured.push_back(req.id);
        if (rec.trySubmit(req).accepted())
            ++outstanding;
    };
    Rng thinkRng(seed);
    std::vector<Clock::time_point> due;
    for (u64 i = 0; i < kMldOutstanding; ++i)
        submitNext();
    u64 handled = 0;
    while (outstanding > 0 || !due.empty()) {
        {
            std::unique_lock<std::mutex> lock(m);
            const auto pending = [&] { return completions > handled; };
            if (due.empty())
                cv.wait(lock, pending);
            else
                cv.wait_until(lock, *std::min_element(due.begin(), due.end()), pending);
        }
        const Clock::time_point now = Clock::now();
        for (auto it = due.begin(); it != due.end();) {
            if (*it <= now) {
                submitNext();
                it = due.erase(it);
            } else {
                ++it;
            }
        }
        u64 done;
        {
            std::lock_guard<std::mutex> lock(m);
            done = completions;
        }
        for (; handled < done; ++handled) {
            --outstanding;
            if (!measuring && handled + 1 >= kMldOutstanding) {
                measuring = true;
                window.start = now;
                window.end = now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
            }
            if (!measuring || now < window.end) {
                const double think = -kThinkMeanSeconds * std::log1p(-thinkRng.uniform());
                due.push_back(now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(think)));
            }
        }
    }
    rec.setOnComplete(nullptr);
    return measured;
}

/** What one HTTP client saw of one job. */
struct ClientRecord
{
    u64 job = 0;
    RequestSpec spec;
    Clock::time_point postSent;
    Clock::time_point postDone;
    std::vector<Clock::time_point> events; //!< SSE progress arrivals
    Clock::time_point doneAt;
    bool accepted = false;
    bool gotDone = false;
    bool doneOk = false;
    bool transportError = false;
};

/** Follows one job's SSE stream to its `done` event. */
void
followEvents(u16 port, ClientRecord &rec)
{
    HttpConnection sse = HttpConnection::connect("127.0.0.1", port, 60.0);
    HttpClientResponse head;
    if (!sse.connected()
        || !sse.startStream("/v1/jobs/" + std::to_string(rec.job) + "/events",
                            head)
        || head.status != 200) {
        rec.transportError = true;
        return;
    }
    std::string buf;
    std::string data;
    // readStreamData appends to its argument.
    while (!rec.gotDone && (data.clear(), sse.readStreamData(data))) {
        const Clock::time_point t = Clock::now();
        buf += data;
        for (std::size_t pos; (pos = buf.find("\n\n")) != std::string::npos;) {
            const std::string ev = buf.substr(0, pos);
            buf.erase(0, pos + 2);
            if (ev.rfind("event: progress", 0) == 0) {
                rec.events.push_back(t);
            } else if (ev.rfind("event: done", 0) == 0) {
                rec.doneAt = t;
                rec.gotDone = true;
                rec.doneOk = ev.find("\"state\": \"done\"") != std::string::npos
                    && ev.find("\"seed\": " + std::to_string(rec.spec.noiseSeed))
                        != std::string::npos;
            }
        }
    }
    if (!rec.gotDone)
        rec.transportError = true;
}

/**
 * http-stream: kHttpClients closed-loop clients, each POSTing a job,
 * following its SSE stream to `done`, then POSTing the next. The
 * window opens once kHttpClients jobs are done.
 * @return every client record (the caller keeps those inside the
 *         window)
 */
std::vector<ClientRecord>
runHttpLoop(u16 port, Workload w, u64 seed, double seconds, Window &window)
{
    std::atomic<u64> nextIndex{0};
    std::atomic<u64> doneCount{0};
    std::atomic<bool> stop{false};
    std::vector<std::vector<ClientRecord>> perClient(kHttpClients);
    const auto client = [&](std::vector<ClientRecord> &out) {
        HttpConnection conn;
        while (!stop.load()) {
            if (!conn.connected())
                conn = HttpConnection::connect("127.0.0.1", port, 60.0);
            ClientRecord rec;
            rec.spec = requestAt(w, seed, nextIndex++);
            const std::string body = "{\"benchmark\": \""
                + benchmarkName(rec.spec.benchmark) + "\", \"mode\": \""
                + execModeName(rec.spec.mode)
                + "\", \"seed\": " + std::to_string(rec.spec.noiseSeed) + "}";
            HttpClientResponse resp;
            rec.postSent = Clock::now();
            const bool sent = conn.connected()
                && conn.request("POST", "/v1/jobs", resp, body);
            rec.postDone = Clock::now();
            if (!sent) {
                rec.transportError = true;
                conn.close();
            } else if (resp.status == 201) {
                rec.accepted = true;
                const std::size_t at = resp.body.find("\"id\": ");
                rec.job = at == std::string::npos
                    ? 0 : std::strtoull(resp.body.c_str() + at + 6, nullptr, 10);
                followEvents(port, rec);
                if (rec.gotDone)
                    ++doneCount;
            }
            out.push_back(std::move(rec));
        }
    };
    std::vector<std::thread> threads;
    for (u64 c = 0; c < kHttpClients; ++c)
        threads.emplace_back(client, std::ref(perClient[c]));
    const Clock::time_point giveUp = Clock::now() + std::chrono::seconds(60);
    while (doneCount.load() < kHttpClients && Clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (doneCount.load() < kHttpClients) {
        stop = true;
        for (std::thread &t : threads)
            t.join();
        throw std::runtime_error("no job completed over HTTP within 60 s");
    }
    window.start = Clock::now();
    window.end = window.start + std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    std::this_thread::sleep_until(window.end);
    stop = true;
    for (std::thread &t : threads)
        t.join();
    std::vector<ClientRecord> all;
    for (auto &recs : perClient)
        for (ClientRecord &r : recs)
            all.push_back(std::move(r));
    return all;
}

/** Samples the live cohorts' rows per cohort until stopped. */
class CohortSampler
{
  public:
    CohortSampler(const BatchEngine &engine, const ServeRequest &key,
                  u64 maxRows)
        : thread_([this, &engine, key, maxRows] {
              while (!stop_.load()) {
                  const BatchEngine::CohortOccupancy occ =
                      engine.cohortOccupancy(key);
                  const u64 capacity = occ.running + occ.spareRows;
                  if (occ.running > 0 && capacity > 0) {
                      // Every live cohort has maxRows capacity.
                      const double cohorts =
                          static_cast<double>(capacity) / maxRows;
                      sum_ += static_cast<double>(occ.running) / cohorts;
                      ++samples_;
                  }
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
              }
          })
    {
    }

    ~CohortSampler() { stopAndJoin(); }

    CohortSampler(const CohortSampler &) = delete;
    CohortSampler &operator=(const CohortSampler &) = delete;

    /** Mean rows per live cohort; call after stopAndJoin(). */
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }

    void stopAndJoin()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
    }

  private:
    std::atomic<bool> stop_{false};
    double sum_ = 0.0;
    u64 samples_ = 0;
    std::thread thread_;
};

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

// ------------------------------------------------------------ results

struct Printed
{
    std::string name;
    double value = 0.0;
    std::string note;
};

class Report
{
  public:
    void add(const std::string &name, double value, const std::string &note = "")
    {
        rows_.push_back({name, value, note});
    }

    void add(const std::string &name, const Quantile &q)
    {
        add(name, q.value,
            "n=" + std::to_string(q.samples) + ", "
                + std::to_string(q.beyond) + " beyond");
    }

    /** Prints the table and the JSON line; false when the metric
        names differ from the declared set. */
    bool print(const std::vector<MetricDef> &defs, bool correct,
               u64 attempted, u64 failed) const
    {
        std::map<std::string, const Printed *> byName;
        for (const Printed &p : rows_)
            byName[p.name] = &p;
        if (byName.size() != defs.size() || rows_.size() != defs.size()) {
            std::fprintf(stderr, "error: metric set differs from the "
                                 "declared metrics\n");
            return false;
        }
        std::string json;
        for (const MetricDef &d : defs) {
            const auto it = byName.find(d.name);
            if (it == byName.end()) {
                std::fprintf(stderr, "error: metric %s not measured\n",
                             d.name.c_str());
                return false;
            }
            const Printed &p = *it->second;
            std::printf("%-32s %14.6g %-6s %s\n", d.name.c_str(), p.value,
                        d.unit.c_str(), p.note.c_str());
            char num[64];
            std::snprintf(num, sizeof num, "%.17g", p.value);
            json += (json.empty() ? "" : ", ") + std::string("\"") + d.name
                + "\": {\"value\": " + num + ", \"unit\": \"" + d.unit + "\"}";
        }
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {%s}}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed), json.c_str());
        std::fflush(stdout);
        return true;
    }

  private:
    std::vector<Printed> rows_;
};

/** Ratio of two sums, 0 when the denominator is 0. */
double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Sparsity counts over the first completed result of each distinct
    request (each is deterministic, so the ratios are exact). */
void
addSparsityCounts(Report &report,
                  const std::vector<std::shared_ptr<const ServeRecord>> &recs)
{
    std::map<RequestSpec, const ExecStats *> distinct;
    for (const auto &r : recs)
        if (r->done && r->ok)
            distinct.emplace(r->spec, &r->stats);
    ExecStats sum;
    for (const auto &[spec, stats] : distinct)
        sum.merge(*stats);
    const std::string note =
        "over " + std::to_string(distinct.size()) + " distinct requests";
    report.add("sparsity.exec_op_ratio",
               ratio(static_cast<double>(sum.totalExecuted()),
                     static_cast<double>(sum.totalDense())),
               note);
    report.add("sparsity.ffn_mask_sparsity",
               ratio(sum.ffnSparsitySum,
                     static_cast<double>(sum.ffnSparsitySamples)));
    report.add("sparsity.score_sparsity",
               ratio(sum.scoreSparsitySum,
                     static_cast<double>(sum.scoreSparsitySamples)));
    report.add("sparsity.q_rows_skipped_ratio",
               ratio(static_cast<double>(sum.qRowsSkipped),
                     static_cast<double>(sum.qRowsTotal)));
    report.add("sparsity.kv_cols_skipped_ratio",
               ratio(static_cast<double>(sum.kColsSkipped + sum.vColsSkipped),
                     static_cast<double>(sum.kColsTotal + sum.vColsTotal)));
}

int
run(const Args &args)
{
    const Workload w = args.workload;
    const std::string facts = hostFacts();
    std::printf("host: %s\n", facts.c_str());
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", workloadName(w),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    const Clock::time_point origin = Clock::now();

    // Set-up: engine construction, model registration and (http)
    // listening, repeated; the last stack serves the run.
    std::vector<double> setupReps;
    std::unique_ptr<Stack> stack;
    double setupTotal = 0.0;
    while (static_cast<int>(setupReps.size()) < kSetupMaxReps
           && (static_cast<int>(setupReps.size()) < kSetupMinReps
               || setupTotal < kSetupMinSeconds)) {
        stack.reset();
        const Clock::time_point t0 = Clock::now();
        stack = buildStack(w);
        setupReps.push_back(secondsBetween(t0, Clock::now()));
        setupTotal += setupReps.back();
    }

    const ReferenceMap refs = computeReferences(w, args.seed, *stack->engine);

    // The measured closed loop.
    Window window;
    u64 refused = 0;
    std::vector<u64> measuredIds;
    std::vector<ClientRecord> clients;
    std::unique_ptr<CohortSampler> sampler;
    if (args.trace && w != Workload::HttpStream) {
        const RequestSpec spec = requestAt(w, args.seed, 0);
        ServeRequest key;
        key.benchmark = spec.benchmark;
        key.mode = spec.mode;
        sampler = std::make_unique<CohortSampler>(
            *stack->engine, key, engineOptions(w).cohortMaxRows);
    }
    if (w == Workload::HttpStream) {
        std::vector<ClientRecord> all = runHttpLoop(
            stack->server->port(), w, args.seed, args.seconds, window);
        for (ClientRecord &c : all)
            if (c.postSent >= window.start)
                clients.push_back(std::move(c));
        stack->server->stop();
    } else {
        measuredIds = runInProcessLoop(*stack->recorder, w, args.seed,
                                       args.seconds, window);
    }
    stack->engine->waitIdle();
    if (sampler)
        sampler->stopAndJoin();
    const double rssMib = peakRssMib();

    // Gather what the serving layer saw of the measured requests.
    std::vector<std::shared_ptr<const ServeRecord>> measured;
    if (w == Workload::HttpStream) {
        for (const ClientRecord &c : clients)
            if (c.accepted)
                if (auto r = stack->recorder->record(c.job))
                    measured.push_back(r);
    } else {
        for (u64 id : measuredIds)
            if (auto r = stack->recorder->record(id); r && r->accepted)
                measured.push_back(r);
    }

    // Correctness gate: every completed output against its solo
    // reference, byte for byte; quality against the dense twin. Each
    // attempted request fails at most once, for its first fault.
    u64 failedRuns = 0;
    u64 mismatches = 0;
    u64 transportErrors = 0;
    u64 badDone = 0;
    double cosMin = 1.0;
    const auto checkOutput = [&](const ServeRecord *r) {
        if (r == nullptr || !r->done || !r->ok) {
            ++failedRuns;
            return;
        }
        const auto ref = refs.find(r->spec);
        if (ref == refs.end() || !sameBytes(r->output, ref->second)) {
            ++mismatches;
            return;
        }
        RequestSpec denseSpec = r->spec;
        denseSpec.mode = ExecMode::Dense;
        cosMin = std::min(cosMin,
                          cosineSimilarity(r->output, refs.at(denseSpec)));
    };
    for (const ClientRecord &c : clients) {
        if (c.transportError)
            ++transportErrors;
        else if (!c.accepted)
            ++refused;
        else if (!c.doneOk)
            ++badDone;
        else
            checkOutput(stack->recorder->record(c.job).get());
    }
    for (u64 id : measuredIds) {
        const auto r = stack->recorder->record(id);
        if (!r->accepted)
            ++refused;
        else
            checkOutput(r.get());
    }

    // End-to-end samples.
    std::vector<double> latency;
    std::vector<double> firstStep;
    std::vector<double> stepGap;
    u64 completedInWindow = 0;
    u64 attempted = 0;
    std::map<std::string, std::vector<double>> latencyByType;
    if (w == Workload::HttpStream) {
        attempted = clients.size();
        for (const ClientRecord &c : clients) {
            if (!c.gotDone || !c.doneOk)
                continue;
            if (window.contains(c.doneAt))
                ++completedInWindow;
            latency.push_back(secondsBetween(c.postSent, c.doneAt));
            latencyByType[requestTypeName(c.spec)].push_back(latency.back());
            if (!c.events.empty())
                firstStep.push_back(secondsBetween(c.postSent, c.events[0]));
            for (std::size_t i = 1; i < c.events.size(); ++i)
                stepGap.push_back(secondsBetween(c.events[i - 1], c.events[i]));
        }
    } else {
        attempted = measuredIds.size();
        for (const auto &r : measured) {
            if (!r->done || !r->ok)
                continue;
            if (window.contains(r->completed))
                ++completedInWindow;
            latency.push_back(secondsBetween(r->submitted, r->completed));
            if (!r->progress.empty())
                firstStep.push_back(
                    secondsBetween(r->submitted, r->progress[0]));
            for (std::size_t i = 1; i < r->progress.size(); ++i)
                stepGap.push_back(
                    secondsBetween(r->progress[i - 1], r->progress[i]));
        }
    }
    for (const auto &[type, samples] : latencyByType)
        std::printf("latency %-24s median %.6f s, max %.6f s (n=%zu)\n",
                    type.c_str(), median(samples),
                    *std::max_element(samples.begin(), samples.end()),
                    samples.size());
    const u64 failed =
        refused + failedRuns + mismatches + transportErrors + badDone;
    std::printf("failed_ratio %g: refused %llu, failed %llu, mismatches "
                "%llu, transport %llu, bad done %llu, of %llu attempted\n",
                ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<unsigned long long>(refused),
                static_cast<unsigned long long>(failedRuns),
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(transportErrors),
                static_cast<unsigned long long>(badDone),
                static_cast<unsigned long long>(attempted));

    bool correct = mismatches == 0 && attempted > 0;
    Report report;
    if (!args.trace) {
        report.add("setup_s", median(setupReps),
                   "median of " + std::to_string(setupReps.size()) + " set-ups");
        report.add("throughput_rps",
                   static_cast<double>(completedInWindow) / window.seconds(),
                   std::to_string(completedInWindow) + " done in "
                       + std::to_string(window.seconds()) + " s");
        report.add("latency_p50_s", quantile(latency, 500, "latency_p50_s"));
        report.add("latency_p90_s", quantile(latency, 900, "latency_p90_s"));
        report.add("first_step_p50_s",
                   quantile(firstStep, 500, "first_step_p50_s"));
        report.add("step_gap_p50_s", quantile(stepGap, 500, "step_gap_p50_s"));
        report.add("step_gap_p99_s", quantile(stepGap, 990, "step_gap_p99_s"));
        report.add("success_ratio",
                   1.0 - ratio(static_cast<double>(failed),
                               static_cast<double>(attempted)),
                   "1 - failed_ratio");
        report.add("quality_cos_min", cosMin,
                   "min cosine(output, dense reference)");
        report.add("rss_peak_mib", rssMib, "VmHWM");
        stack.reset();
        if (!report.print(endToEndMetrics(), correct, attempted, failed))
            return 1;
        return correct ? 0 : 1;
    }

    // ---- traced run: per-layer metrics.
    SpanLog spans;
    std::vector<double> queueWait;
    std::vector<double> service;
    for (const auto &r : measured) {
        if (!r->done || !r->ok)
            continue;
        const double total = secondsBetween(r->submitted, r->completed);
        queueWait.push_back(std::max(0.0, total - r->serviceSeconds));
        service.push_back(r->serviceSeconds);
        const long req = spans.add("serve.request", r->submitted,
                                   r->completed, -1, r->id);
        const Clock::time_point started =
            r->completed - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(r->serviceSeconds));
        spans.add("serve.queue", r->submitted, std::max(r->submitted, started),
                  req, r->id);
        Clock::time_point prev = std::max(r->submitted, started);
        for (std::size_t i = 0; i < r->progress.size(); ++i) {
            spans.add(i == 0 ? "serve.first_step" : "serve.step", prev,
                      r->progress[i], req, r->id);
            prev = r->progress[i];
        }
    }
    report.add("serve.queue_wait_p50_s",
               quantile(queueWait, 500, "serve.queue_wait_p50_s"));
    report.add("serve.queue_wait_p90_s",
               quantile(queueWait, 900, "serve.queue_wait_p90_s"));
    report.add("serve.service_p50_s",
               quantile(service, 500, "serve.service_p50_s"));
    report.add("serve.cohort_rows_mean", sampler ? sampler->mean() : 1.0,
               sampler ? "sampled cohortOccupancy()" : "cohort batching off");
    report.add("serve.refused",
               static_cast<double>(stack->recorder->snapshot().rejected()),
               "snapshot().rejected()");

    if (w == Workload::HttpStream) {
        std::vector<double> rtt;
        std::vector<double> eventLag;
        std::vector<double> deliveryLag;
        for (const ClientRecord &c : clients) {
            rtt.push_back(secondsBetween(c.postSent, c.postDone));
            const auto r = stack->recorder->record(c.job);
            const u64 lane = c.job;
            spans.add("net.post", c.postSent, c.postDone, -1, lane);
            if (!c.gotDone || !r || !r->done)
                continue;
            const std::size_t n = std::min(c.events.size(), r->progress.size());
            for (std::size_t i = 0; i < n; ++i) {
                eventLag.push_back(secondsBetween(r->progress[i], c.events[i]));
                spans.add("net.sse_event", r->progress[i], c.events[i], -1,
                          lane);
            }
            deliveryLag.push_back(secondsBetween(r->completed, c.doneAt));
            spans.add("net.sse_done", r->completed, c.doneAt, -1, lane);
        }
        report.add("net.submit_rtt_p50_s",
                   quantile(rtt, 500, "net.submit_rtt_p50_s"));
        report.add("net.submit_rtt_p90_s",
                   quantile(rtt, 900, "net.submit_rtt_p90_s"));
        report.add("net.event_lag_p50_s",
                   quantile(eventLag, 500, "net.event_lag_p50_s"));
        report.add("net.event_lag_p99_s",
                   quantile(eventLag, 990, "net.event_lag_p99_s"));
        report.add("net.delivery_lag_p50_s",
                   quantile(deliveryLag, 500, "net.delivery_lag_p50_s"));
    } else {
        for (const char *name :
             {"net.submit_rtt_p50_s", "net.submit_rtt_p90_s",
              "net.event_lag_p50_s", "net.event_lag_p99_s",
              "net.delivery_lag_p50_s"})
            report.add(name, 0.0, "no network on this workload");
    }
    addSparsityCounts(report, stack->recorder->records());

    // Replay through the public model API.
    std::map<Benchmark, const DiffusionPipeline *> pipes;
    for (Benchmark b : workloadModels(w))
        pipes[b] = &stack->engine->pipeline(b);
    const ReplayResult rep = replayRequestList(
        w, args.seed, pipes, engineOptions(w), refs, spans);
    mismatches += rep.mismatches;
    LayerTimes all;
    LayerTimes dense;
    LayerTimes sparse;
    for (const auto &[type, t] : rep.byType) {
        const double other = t.iteration - t.attention - t.ffn;
        std::printf("replay %-24s steps %4llu  iteration %.6f s  attention "
                    "%.6f s  ffn %.6f s  other %.6f s  ep_predict %.6f s "
                    "(per step)\n",
                    type.c_str(), static_cast<unsigned long long>(t.steps),
                    t.iteration / t.steps, t.attention / t.steps,
                    t.ffn / t.steps, other / t.steps, t.epPredict / t.steps);
        all += t;
        (type.ends_with("/dense") ? dense : sparse) += t;
    }
    const double perStep = 1.0 / static_cast<double>(std::max<u64>(all.steps, 1));
    const auto perSideStep = [](double v, const LayerTimes &side) {
        return side.steps ? v / static_cast<double>(side.steps) : 0.0;
    };
    report.add("model.iteration_s", all.iteration * perStep,
               std::to_string(all.steps) + " replay steps");
    report.add("model.other_s",
               (all.iteration - all.attention - all.ffn) * perStep,
               "iteration - attention - ffn");
    report.add("model.attention_s", perSideStep(dense.attention, dense),
               "dense requests");
    report.add("model.ffn_s", perSideStep(dense.ffn, dense), "dense requests");
    report.add("sparsity.attention_s", perSideStep(sparse.attention, sparse),
               "exion requests");
    report.add("sparsity.ep_predict_s", perSideStep(sparse.epPredict, sparse),
               "predictHeadScore on captured operands");
    report.add("sparsity.ffn_s", perSideStep(sparse.ffn, sparse),
               "exion requests");
    report.add("tensor.executed_gop",
               all.executedOps / 1e9 / static_cast<double>(all.requests),
               "per request");
    report.add("tensor.achieved_gops",
               ratio(all.executedOps / 1e9, all.attention + all.ffn),
               "executed ops / (attention + ffn) time");
    report.add("tensor.weight_mib_per_step", all.weightMib * perStep,
               "float weights per request-iteration");
    report.add("trace.overhead", ratio(rep.tracedWall, rep.untracedWall),
               "traced / untraced replay wall");

    const double balance = ratio(std::abs(rep.selfSum - rep.tracedWall),
                                 rep.tracedWall);
    std::printf("replay self-times %.6f s vs wall %.6f s (%.2f%%, limit "
                "%.0f%%)\n",
                rep.selfSum, rep.tracedWall, 100.0 * balance,
                100.0 * kReplayTolerance);
    if (balance > kReplayTolerance) {
        std::fprintf(stderr, "error: replay self-times do not add up to the "
                             "iteration time\n");
        correct = false;
    }
    if (!args.traceOut.empty()) {
        if (!spans.writeChromeTrace(args.traceOut, origin, facts)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         args.traceOut.c_str());
            return 1;
        }
        std::printf("trace: %zu spans -> %s\n", spans.spans().size(),
                    args.traceOut.c_str());
    }
    correct = correct && mismatches == 0;
    stack.reset();
    if (!report.print(perLayerMetrics(), correct, attempted, failed))
        return 1;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: exion_perfbench --workload "
                     "mld-exion|mld-dense|http-stream --seed N --seconds S "
                     "--trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    try {
        return run(args);
    } catch (const RunTooShort &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
