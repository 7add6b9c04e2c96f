#include "perfbench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "exion/common/rng.h"
#include "exion/sparsity/sparse_executor.h"
#include "exion/tensor/simd_dispatch.h"

namespace perfbench
{

using namespace exion;

// ------------------------------------------------------------ metrics

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"throughput_rps", "1/s"},
        {"latency_p50_s", "s"},
        {"latency_p90_s", "s"},
        {"first_step_p50_s", "s"},
        {"step_gap_p50_s", "s"},
        {"step_gap_p99_s", "s"},
        {"success_ratio", "ratio"},
        {"quality_cos_min", "cosine"},
        {"rss_peak_mib", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"serve.queue_wait_p50_s", "s"},
        {"serve.queue_wait_p90_s", "s"},
        {"serve.service_p50_s", "s"},
        {"serve.cohort_rows_mean", "rows"},
        {"serve.refused", "count"},
        {"net.submit_rtt_p50_s", "s"},
        {"net.submit_rtt_p90_s", "s"},
        {"net.event_lag_p50_s", "s"},
        {"net.event_lag_p99_s", "s"},
        {"net.delivery_lag_p50_s", "s"},
        {"model.iteration_s", "s"},
        {"model.other_s", "s"},
        {"model.attention_s", "s"},
        {"model.ffn_s", "s"},
        {"sparsity.attention_s", "s"},
        {"sparsity.ep_predict_s", "s"},
        {"sparsity.ffn_s", "s"},
        {"sparsity.exec_op_ratio", "ratio"},
        {"sparsity.ffn_mask_sparsity", "ratio"},
        {"sparsity.score_sparsity", "ratio"},
        {"sparsity.q_rows_skipped_ratio", "ratio"},
        {"sparsity.kv_cols_skipped_ratio", "ratio"},
        {"tensor.executed_gop", "count"},
        {"tensor.achieved_gops", "GOP/s"},
        {"tensor.weight_mib_per_step", "MiB"},
        {"trace.overhead", "ratio"},
    };
    return defs;
}

Quantile
quantile(std::vector<double> samples, int perMille, const std::string &metric)
{
    const std::size_t n = samples.size();
    const std::size_t rank = std::max<std::size_t>(
        (n * static_cast<std::size_t>(perMille) + 999) / 1000, 1);
    const std::size_t beyond = n >= rank ? n - rank : 0;
    if (n == 0 || beyond < kMinBeyond)
        throw RunTooShort("run too short: " + metric + " has "
                          + std::to_string(beyond)
                          + " samples beyond its percentile (n="
                          + std::to_string(n) + ", needs "
                          + std::to_string(kMinBeyond) + "); raise --seconds");
    std::sort(samples.begin(), samples.end());
    return {samples[rank - 1], n, beyond};
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ---------------------------------------------------------- workloads

namespace
{

constexpr struct
{
    Workload w;
    const char *name;
} kWorkloads[] = {
    {Workload::MldExion, "mld-exion"},
    {Workload::MldDense, "mld-dense"},
    {Workload::HttpStream, "http-stream"},
};

/** Denoising iterations of the full-scale MLD workloads: two
    FFN-Reuse cycles, so the dense:sparse iteration ratio matches the
    50-step schedule. */
constexpr int kMldIterations = 10;

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (const auto &w : kWorkloads) {
        if (name == w.name) {
            out = w.w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    for (const auto &entry : kWorkloads)
        if (entry.w == w)
            return entry.name;
    return "?";
}

bool
RequestSpec::operator<(const RequestSpec &o) const
{
    if (benchmark != o.benchmark)
        return benchmark < o.benchmark;
    if (mode != o.mode)
        return mode < o.mode;
    return noiseSeed < o.noiseSeed;
}

RequestSpec
requestAt(Workload w, u64 seed, u64 index)
{
    const u64 pos = index % kListPeriod;
    u64 state = seed * kListPeriod + pos;
    RequestSpec spec;
    spec.noiseSeed = splitMix64(state) & ((u64{1} << 53) - 1);
    switch (w) {
      case Workload::MldExion:
        spec.benchmark = Benchmark::MLD;
        spec.mode = ExecMode::Exion;
        break;
      case Workload::MldDense:
        spec.benchmark = Benchmark::MLD;
        spec.mode = ExecMode::Dense;
        break;
      case Workload::HttpStream:
        // 3:1 MDM-r:StableDiffusion-r crossed with 3:1 exion:dense.
        spec.benchmark = pos % 4 == 3 ? Benchmark::StableDiffusion
                                      : Benchmark::MDM;
        spec.mode = (pos / 4) % 4 == 3 ? ExecMode::Dense : ExecMode::Exion;
        break;
    }
    return spec;
}

std::string
requestTypeName(const RequestSpec &spec)
{
    return benchmarkName(spec.benchmark) + "/" + execModeName(spec.mode);
}

std::vector<Benchmark>
workloadModels(Workload w)
{
    if (w == Workload::HttpStream)
        return {Benchmark::MDM, Benchmark::StableDiffusion};
    return {Benchmark::MLD};
}

ModelConfig
workloadConfig(Workload w, Benchmark b)
{
    if (w == Workload::HttpStream)
        return makeConfig(b, Scale::Reduced);
    ModelConfig cfg = makeConfig(b, Scale::Full);
    cfg.iterations = kMldIterations;
    return cfg;
}

BatchEngine::Options
engineOptions(Workload w)
{
    BatchEngine::Options opts;
    opts.workers = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    opts.queueResults = false;
    if (w == Workload::HttpStream) {
        // exion_serve's shipped defaults.
        opts.admission.maxQueuedPerClass = 16;
    } else {
        opts.cohortBatching = true;
        opts.cohortMaxRows = 8;
    }
    return opts;
}

std::unique_ptr<BlockExecutor>
makeSoloExecutor(const ModelConfig &cfg, ExecMode mode,
                 const BatchEngine::Options &engine)
{
    if (mode == ExecMode::Dense)
        return std::make_unique<DenseExecutor>(
            false, engine.gemmBackend, engine.simdTier);
    return std::make_unique<SparseExecutor>(
        cohortOptions(cfg, mode, engine));
}

SparseExecutor::Options
cohortOptions(const ModelConfig &cfg, ExecMode mode,
              const BatchEngine::Options &engine)
{
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    SparseExecutor::Options opts =
        SparseExecutor::fromConfig(cfg, ffnr, ep, false);
    opts.gemm = engine.gemmBackend;
    opts.simd = engine.simdTier;
    return opts;
}

// -------------------------------------------------------------- spans

long
SpanLog::add(std::string name, Clock::time_point start,
             Clock::time_point end, long parent, u64 request)
{
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<long>(spans_.size()) - 1;
}

std::vector<double>
SpanLog::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = secondsBetween(spans_[i].start, spans_[i].end);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                secondsBetween(s.start, s.end);
    return self;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

bool
SpanLog::writeChromeTrace(const std::string &path, Clock::time_point origin,
                          const std::string &facts) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    out << "{\"otherData\": {\"host\": \"" << jsonEscape(facts)
        << "\"},\n\"traceEvents\": [\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                      "\"ts\": %.3f, \"dur\": %.3f",
                      static_cast<unsigned long long>(s.request),
                      us(s.start), us(s.end) - us(s.start));
        out << (i ? ",\n" : "") << "{\"name\": \"" << jsonEscape(s.name)
            << "\", " << buf << ", \"args\": {\"span\": " << i
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

std::string
hostFacts()
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
    const char *ndebug = "on";
#else
    const char *ndebug = "off";
#endif
    return "nproc=" + std::to_string(std::thread::hardware_concurrency())
        + " simd=" + simdLevelName(activeSimdLevel())
        + " build=" PERFBENCH_BUILD_TYPE + " compiler=" + compiler
        + " exion_assert=" PERFBENCH_EXION_ASSERTIONS
        + " ndebug=" + ndebug;
}

// -------------------------------------------------------------- serve

RecordingBackend::RecordingBackend(BatchEngine &inner) : inner_(inner)
{
    inner_.setOnComplete(
        [this](const RequestResult &r) { completed(r); });
}

RecordingBackend::~RecordingBackend()
{
    inner_.setOnComplete(nullptr);
}

ServeRequest
RecordingBackend::wrap(const ServeRequest &req,
                       std::shared_ptr<ServeRecord> &rec)
{
    rec = std::make_shared<ServeRecord>();
    rec->id = req.id;
    rec->spec = {req.benchmark, req.mode, req.noiseSeed};
    ServeRequest wrapped = req;
    // Only the worker running the request appends here; readers wait
    // for its completion, which the decorator's mutex orders after.
    wrapped.onProgress = [rec, user = req.onProgress](int iteration) {
        rec->progress.push_back(Clock::now());
        if (user)
            user(iteration);
    };
    {
        std::lock_guard<std::mutex> lock(mutex_);
        records_[req.id] = rec;
    }
    rec->submitted = Clock::now();
    return wrapped;
}

SubmitOutcome
RecordingBackend::trySubmit(const ServeRequest &req)
{
    std::shared_ptr<ServeRecord> rec;
    const ServeRequest wrapped = wrap(req, rec);
    SubmitOutcome outcome = inner_.trySubmit(wrapped);
    std::lock_guard<std::mutex> lock(mutex_);
    rec->accepted = outcome.accepted();
    return outcome;
}

Ticket
RecordingBackend::submit(const ServeRequest &req)
{
    std::shared_ptr<ServeRecord> rec;
    const ServeRequest wrapped = wrap(req, rec);
    Ticket ticket = inner_.submit(wrapped);
    std::lock_guard<std::mutex> lock(mutex_);
    rec->accepted = true;
    return ticket;
}

void
RecordingBackend::completed(const RequestResult &result)
{
    const Clock::time_point now = Clock::now();
    CompletionCallback cb;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = records_.find(result.id);
        if (it != records_.end()) {
            ServeRecord &rec = *it->second;
            rec.completed = now;
            rec.serviceSeconds = result.seconds;
            rec.done = true;
            rec.ok = result.ok();
            rec.output = result.output;
            rec.stats = result.stats;
        }
        cb = onComplete_;
    }
    if (cb)
        cb(result);
}

EngineMetrics
RecordingBackend::snapshot() const
{
    return inner_.snapshot();
}

std::string
RecordingBackend::metricsText() const
{
    return inner_.metricsText();
}

void
RecordingBackend::setOnComplete(CompletionCallback cb)
{
    std::lock_guard<std::mutex> lock(mutex_);
    onComplete_ = std::move(cb);
}

u64
RecordingBackend::inFlight() const
{
    return inner_.inFlight();
}

void
RecordingBackend::waitIdle() const
{
    inner_.waitIdle();
}

void
RecordingBackend::pause()
{
    inner_.pause();
}

void
RecordingBackend::resume()
{
    inner_.resume();
}

void
RecordingBackend::shutdown()
{
    inner_.shutdown();
}

int
RecordingBackend::workerCount() const
{
    return inner_.workerCount();
}

std::shared_ptr<const ServeRecord>
RecordingBackend::record(u64 id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(id);
    return it == records_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const ServeRecord>>
RecordingBackend::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::shared_ptr<const ServeRecord>> out;
    out.reserve(records_.size());
    for (const auto &[id, rec] : records_)
        out.push_back(rec);
    return out;
}

} // namespace perfbench
