/**
 * @file
 * The repository benchmark: workloads, measurement helpers and the
 * probes that time each layer from outside, through its public API.
 *
 * Nothing here instruments the library itself. The serving layer is
 * timed through a recording ServeBackend decorator, the network layer
 * from the HTTP client side, and the model, sparsity and tensor
 * layers by replaying the workload's request list through a timing
 * BlockExecutor decorator.
 */

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/model/pipeline.h"
#include "exion/serve/batch_engine.h"
#include "exion/serve/request.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;
using exion::u64;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ metrics

/** A metric as BENCHMARK.json declares it. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Metrics printed by an untraced run, in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics printed by a traced run, in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

/** A run whose samples cannot support a requested percentile. */
struct RunTooShort : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Samples a percentile needs beyond it before it is reported. */
inline constexpr std::size_t kMinBeyond = 10;

/** A nearest-rank percentile with the sample count behind it. */
struct Quantile
{
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0; //!< samples ranked above the percentile
};

/**
 * Nearest-rank percentile (rank = ceil(n * perMille / 1000)).
 *
 * @throws RunTooShort when fewer than kMinBeyond samples rank above
 *         it; the message names the metric and the counts
 */
Quantile quantile(std::vector<double> samples, int perMille,
                  const std::string &metric);

/** Median without a sample floor (set-up repetitions). */
double median(std::vector<double> samples);

// ---------------------------------------------------------- workloads

enum class Workload
{
    MldExion,
    MldDense,
    HttpStream,
};

bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/** One request of a workload's list. */
struct RequestSpec
{
    exion::Benchmark benchmark = exion::Benchmark::MLD;
    exion::ExecMode mode = exion::ExecMode::Exion;
    u64 noiseSeed = 0;

    bool operator<(const RequestSpec &o) const;
    bool operator==(const RequestSpec &o) const = default;
};

/**
 * The request list repeats with this period: position p of every
 * period carries the same request, so a run's outputs can be checked
 * against one reference per position.
 */
inline constexpr u64 kListPeriod = 16;

/**
 * Request `index` of a workload's list under a workload seed. The
 * seed picks the noise seeds; the request types depend only on the
 * position. Noise seeds stay below 2^53 so they round-trip through a
 * JSON number unchanged.
 */
RequestSpec requestAt(Workload w, u64 seed, u64 index);

/** "MDM/exion"-style label of a request type. */
std::string requestTypeName(const RequestSpec &spec);

/** Every model a workload registers. */
std::vector<exion::Benchmark> workloadModels(Workload w);

/** The configuration a workload serves a model at. */
exion::ModelConfig workloadConfig(Workload w, exion::Benchmark b);

/** Engine options of a workload (workers = hardware threads). */
exion::BatchEngine::Options engineOptions(Workload w);

/**
 * The solo executor a reference run or a replay uses for a request:
 * same GEMM backend and SIMD tier as the engine.
 */
std::unique_ptr<exion::BlockExecutor>
makeSoloExecutor(const exion::ModelConfig &cfg, exion::ExecMode mode,
                 const exion::BatchEngine::Options &engine);

/** Cohort executor options matching the engine's cohort path. */
exion::SparseExecutor::Options
cohortOptions(const exion::ModelConfig &cfg, exion::ExecMode mode,
              const exion::BatchEngine::Options &engine);

// -------------------------------------------------------------- spans

/** One timed interval of the traced run. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    long parent = -1; //!< index of the enclosing span, -1 for roots
    u64 request = 0;  //!< request the span belongs to (0 = none)
};

/** Spans kept in memory and written out when the run ends. */
class SpanLog
{
  public:
    /** Appends a span; returns its index (for children). */
    long add(std::string name, Clock::time_point start,
             Clock::time_point end, long parent, u64 request);

    /** Sets the end of a span opened with end == start. */
    void close(long index, Clock::time_point end)
    {
        spans_[static_cast<std::size_t>(index)].end = end;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the time its direct children cover, seconds. */
    std::vector<double> selfSeconds() const;

    /**
     * Writes Chrome trace-event JSON ("X" events, one lane per
     * request, timestamps relative to origin) with the host facts as
     * metadata. @return false when the file cannot be written
     */
    bool writeChromeTrace(const std::string &path,
                          Clock::time_point origin,
                          const std::string &hostFacts) const;

  private:
    std::vector<Span> spans_;
};

/** nproc, SIMD level, build type, compiler and assertion state. */
std::string hostFacts();

// -------------------------------------------------------------- serve

/** What the recording decorator saw of one request. */
struct ServeRecord
{
    u64 id = 0;
    RequestSpec spec;
    Clock::time_point submitted;
    Clock::time_point completed;
    /** Engine-side time of each onProgress call, in order. */
    std::vector<Clock::time_point> progress;
    /** RequestResult::seconds: time a worker spent running it. */
    double serviceSeconds = 0.0;
    bool accepted = false;
    bool done = false;
    bool ok = false;
    exion::Matrix output;
    exion::ExecStats stats;
};

/**
 * ServeBackend decorator over one BatchEngine that timestamps each
 * request's submission, every progress call and its completion, and
 * keeps its output and ExecStats for the correctness gate. Front ends
 * (HttpFront, the in-process loop) talk to it exactly as to the
 * engine; records are keyed by ServeRequest::id.
 */
class RecordingBackend final : public exion::ServeBackend
{
  public:
    explicit RecordingBackend(exion::BatchEngine &inner);
    ~RecordingBackend() override;

    RecordingBackend(const RecordingBackend &) = delete;
    RecordingBackend &operator=(const RecordingBackend &) = delete;

    exion::SubmitOutcome trySubmit(const exion::ServeRequest &req) override;
    exion::Ticket submit(const exion::ServeRequest &req) override;
    exion::EngineMetrics snapshot() const override;
    std::string metricsText() const override;
    void setOnComplete(CompletionCallback cb) override;
    u64 inFlight() const override;
    void waitIdle() const override;
    void pause() override;
    void resume() override;
    void shutdown() override;
    int workerCount() const override;

    /** The record of a request id, nullptr when never submitted. */
    std::shared_ptr<const ServeRecord> record(u64 id) const;

    /** Every record, by id. Call once the engine is idle. */
    std::vector<std::shared_ptr<const ServeRecord>> records() const;

  private:
    exion::ServeRequest wrap(const exion::ServeRequest &req,
                             std::shared_ptr<ServeRecord> &rec);
    void completed(const exion::RequestResult &result);

    exion::BatchEngine &inner_;
    mutable std::mutex mutex_;
    std::map<u64, std::shared_ptr<ServeRecord>> records_;
    CompletionCallback onComplete_;
};

// ------------------------------------------------------------- replay

/** Solo reference output of every request a run may issue. */
using ReferenceMap = std::map<RequestSpec, exion::Matrix>;

/** Whether two outputs are byte-identical (shape and every float). */
bool sameBytes(const exion::Matrix &a, const exion::Matrix &b);

/** Layer times of one request type in the traced replay. */
struct LayerTimes
{
    u64 steps = 0;            //!< denoising steps (cohort steps)
    double iteration = 0.0;   //!< seconds, summed over steps
    double attention = 0.0;
    double ffn = 0.0;
    double epPredict = 0.0;   //!< predictHeadScore on captured operands
    double executedOps = 0.0; //!< ExecStats::totalExecuted, summed
    u64 requests = 0;
    double weightMib = 0.0;   //!< weight MiB per request-iteration, summed

    LayerTimes &operator+=(const LayerTimes &o);
};

/** What the replay measured, by request type. */
struct ReplayResult
{
    std::map<std::string, LayerTimes> byType;
    double untracedWall = 0.0; //!< run()/runCohort() wall, no decorator
    double tracedWall = 0.0;   //!< the same calls through the decorator
    double selfSum = 0.0;      //!< attention + ffn + other self-times
    u64 mismatches = 0;        //!< replay outputs that differ from refs
};

/**
 * Replays the first requests of a workload's list through the public
 * model API on the calling thread — runCohort in groups of 8 for the
 * cohort-batched MLD workloads, run() per request for http-stream —
 * with plain executors (a warm-up pass, then a timed one) and once
 * through the timing decorator, whose spans go to `spans`.
 */
ReplayResult replayRequestList(
    Workload w, u64 seed,
    const std::map<exion::Benchmark, const exion::DiffusionPipeline *> &pipes,
    const exion::BatchEngine::Options &engine, const ReferenceMap &refs,
    SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H_
