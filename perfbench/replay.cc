#include <cstring>

#include "perfbench.h"

#include "exion/model/transformer_block.h"
#include "exion/model/weight_store.h"
#include "exion/sparsity/cohort_executor.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/tensor/ops.h"
#include "exion/tensor/quant_matrix.h"

namespace perfbench
{

using namespace exion;

bool
sameBytes(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    if (a.size() == 0)
        return true;
    return std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float))
        == 0;
}

LayerTimes &
LayerTimes::operator+=(const LayerTimes &o)
{
    steps += o.steps;
    iteration += o.iteration;
    attention += o.attention;
    ffn += o.ffn;
    epPredict += o.epPredict;
    executedOps += o.executedOps;
    requests += o.requests;
    weightMib += o.weightMib;
    return *this;
}

namespace
{

/** Replay lanes sit above any request id a run issues. */
constexpr u64 kReplayLane = 1000000;

/** Requests per runCohort group (= the engine's cohortMaxRows). */
constexpr u64 kCohortGroup = 8;

/** An attention() input kept for timing the EP predictor. */
struct Capture
{
    const TransformerBlock *blk = nullptr;
    Matrix x;
};

/**
 * BlockExecutor decorator: forwards every call to the wrapped
 * executor and records an iteration span per denoising step with the
 * attention and ffn calls inside it as children.
 */
class TimedExecutor final : public CohortBlockExecutor
{
  public:
    TimedExecutor(BlockExecutor &inner, bool sparse, Index tokens,
                  SpanLog &spans, long parent, u64 lane,
                  std::vector<Capture> *captures)
        : inner_(inner),
          attentionName_(sparse ? "sparsity.attention" : "model.attention"),
          ffnName_(sparse ? "sparsity.ffn" : "model.ffn"), tokens_(tokens),
          spans_(spans), parent_(parent), lane_(lane), captures_(captures)
    {
    }

    void beginIteration(int iteration) override
    {
        openStep(1);
        inner_.beginIteration(iteration);
    }

    void beginCohortStep(const std::vector<Index> &slots,
                         const std::vector<int> &iterations) override
    {
        openStep(slots.size());
        static_cast<CohortBlockExecutor &>(inner_).beginCohortStep(
            slots, iterations);
    }

    GemmBackend gemmBackend() const override { return inner_.gemmBackend(); }
    SimdTier simdTier() const override { return inner_.simdTier(); }
    TpContext tpContext() const override { return inner_.tpContext(); }

    Matrix attention(const TransformerBlock &blk, const Matrix &x) override
    {
        if (captures_ != nullptr)
            for (Index r = 0; r + tokens_ <= x.rows(); r += tokens_)
                captures_->push_back({&blk, sliceRows(x, r, tokens_)});
        const Clock::time_point t0 = Clock::now();
        Matrix out = inner_.attention(blk, x);
        const Clock::time_point t1 = Clock::now();
        spans_.add(attentionName_, t0, t1, step_, lane_);
        times_.attention += secondsBetween(t0, t1);
        return out;
    }

    Matrix ffn(const TransformerBlock &blk, const Matrix &x) override
    {
        const Clock::time_point t0 = Clock::now();
        Matrix out = inner_.ffn(blk, x);
        const Clock::time_point t1 = Clock::now();
        spans_.add(ffnName_, t0, t1, step_, lane_);
        times_.ffn += secondsBetween(t0, t1);
        return out;
    }

    /** Closes the last step; call when the run returns. */
    void finish() { closeStep(Clock::now()); }

    /** Steps and iteration/attention/ffn seconds. */
    const LayerTimes &times() const { return times_; }

    /** Sum over steps of 1 / requests stepped together. */
    double requestShare() const { return requestShare_; }

  private:
    void openStep(Index members)
    {
        const Clock::time_point now = Clock::now();
        closeStep(now);
        step_ = spans_.add("model.iteration", now, now, parent_, lane_);
        stepStart_ = now;
        ++times_.steps;
        requestShare_ += 1.0 / static_cast<double>(members);
    }

    void closeStep(Clock::time_point now)
    {
        if (step_ < 0)
            return;
        spans_.close(step_, now);
        times_.iteration += secondsBetween(stepStart_, now);
        step_ = -1;
    }

    BlockExecutor &inner_;
    const char *attentionName_;
    const char *ffnName_;
    Index tokens_;
    SpanLog &spans_;
    long parent_;
    u64 lane_;
    std::vector<Capture> *captures_;
    long step_ = -1;
    Clock::time_point stepStart_;
    LayerTimes times_;
    double requestShare_ = 0.0;
};

/** MiB of float weight images one forward traverses. */
double
weightMib(const DiffusionPipeline &pipe)
{
    u64 bytes = 0;
    for (const auto &[name, e] : pipe.store()->entries())
        if (e.kind == WeightStore::TensorKind::Float32 && name.ends_with(".w"))
            bytes += static_cast<u64>(e.rows) * e.cols * sizeof(float);
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/** Seconds predictHeadScore takes over every captured operand. */
double
timeEpPredictor(const std::vector<Capture> &captures, LodMode lod,
                SimdTier simd)
{
    double total = 0.0;
    for (const Capture &c : captures) {
        const TransformerBlock &blk = *c.blk;
        const Index dh = blk.headDim();
        const QuantMatrix qx = QuantMatrix::fromFloat(c.x, IntWidth::Int12);
        for (Index h = 0; h < blk.nHeads(); ++h) {
            const QuantMatrix qwq = QuantMatrix::fromFloat(
                sliceCols(blk.wq().weight(), h * dh, dh), IntWidth::Int12);
            const QuantMatrix qwk = QuantMatrix::fromFloat(
                sliceCols(blk.wk().weight(), h * dh, dh), IntWidth::Int12);
            const Clock::time_point t0 = Clock::now();
            const Matrix predicted = predictHeadScore(qx, qwq, qwk, lod, simd);
            total += secondsBetween(t0, Clock::now());
        }
    }
    return total;
}

/** One replay unit: a cohort group or a single request. */
struct Unit
{
    std::vector<RequestSpec> specs;
};

std::vector<Unit>
replayUnits(Workload w, u64 seed)
{
    std::vector<Unit> units;
    if (w == Workload::HttpStream) {
        for (u64 i = 0; i < kListPeriod; ++i)
            units.push_back({{requestAt(w, seed, i)}});
    } else {
        Unit group;
        for (u64 i = 0; i < kCohortGroup; ++i)
            group.specs.push_back(requestAt(w, seed, i));
        units.push_back(group);
    }
    return units;
}

/** The executor the engine would run a unit with. */
std::unique_ptr<BlockExecutor>
unitExecutor(bool cohort, const ModelConfig &cfg, ExecMode mode,
             const BatchEngine::Options &engine)
{
    if (cohort)
        return std::make_unique<CohortExecutor>(
            cohortOptions(cfg, mode, engine));
    return makeSoloExecutor(cfg, mode, engine);
}

/** Runs a unit: runCohort for a group, run() for a single request. */
std::vector<Matrix>
runUnit(const DiffusionPipeline &pipe, BlockExecutor &exec, const Unit &u,
        bool cohort)
{
    if (cohort) {
        std::vector<u64> seeds;
        for (const RequestSpec &s : u.specs)
            seeds.push_back(s.noiseSeed);
        return pipe.runCohort(static_cast<CohortBlockExecutor &>(exec), seeds);
    }
    RunOptions opts;
    opts.noiseSeed = u.specs.front().noiseSeed;
    return {pipe.run(exec, opts)};
}

} // namespace

ReplayResult
replayRequestList(Workload w, u64 seed,
                  const std::map<Benchmark, const DiffusionPipeline *> &pipes,
                  const BatchEngine::Options &engine, const ReferenceMap &refs,
                  SpanLog &spans)
{
    const bool cohort = w != Workload::HttpStream;
    const std::vector<Unit> units = replayUnits(w, seed);
    ReplayResult result;

    // Untraced passes: the same calls without the decorator, for
    // trace.overhead. The first only warms caches and allocator state,
    // which would otherwise bill the first pass for them.
    for (int pass = 0; pass < 2; ++pass) {
        for (const Unit &u : units) {
            const RequestSpec &spec = u.specs.front();
            const DiffusionPipeline &pipe = *pipes.at(spec.benchmark);
            const auto exec =
                unitExecutor(cohort, pipe.config(), spec.mode, engine);
            const Clock::time_point t0 = Clock::now();
            runUnit(pipe, *exec, u, cohort);
            if (pass == 1)
                result.untracedWall += secondsBetween(t0, Clock::now());
        }
    }

    // Traced pass.
    const std::size_t firstSpan = spans.spans().size();
    u64 lane = kReplayLane;
    for (const Unit &u : units) {
        const RequestSpec &spec = u.specs.front();
        const DiffusionPipeline &pipe = *pipes.at(spec.benchmark);
        const ModelConfig &cfg = pipe.config();
        const SparseExecutor::Options sparseOpts =
            cohortOptions(cfg, spec.mode, engine);
        const bool sparse = spec.mode != ExecMode::Dense;
        const auto inner = unitExecutor(cohort, cfg, spec.mode, engine);
        std::vector<Capture> captures;
        const Clock::time_point t0 = Clock::now();
        const long root = spans.add("replay.run", t0, t0, -1, lane);
        TimedExecutor timed(*inner, sparse, cfg.latentTokens, spans, root,
                            lane, sparse ? &captures : nullptr);
        const std::vector<Matrix> outs = runUnit(pipe, timed, u, cohort);
        timed.finish();
        const Clock::time_point t1 = Clock::now();
        spans.close(root, t1);
        result.tracedWall += secondsBetween(t0, t1);

        LayerTimes times = timed.times();
        for (Index m = 0; m < outs.size(); ++m) {
            const auto ref = refs.find(u.specs[m]);
            if (ref == refs.end() || !sameBytes(outs[m], ref->second))
                ++result.mismatches;
            const ExecStats &stats = cohort
                ? static_cast<CohortExecutor &>(*inner).slotContext(m).stats
                : inner->stats();
            times.executedOps += static_cast<double>(stats.totalExecuted());
        }
        if (sparse && sparseOpts.useEp)
            times.epPredict =
                timeEpPredictor(captures, sparseOpts.lodMode, sparseOpts.simd);
        times.requests = u.specs.size();
        // A step traverses every weight once for all the requests it
        // carries.
        times.weightMib = weightMib(pipe) * timed.requestShare();
        result.byType[requestTypeName(spec)] += times;
        ++lane;
    }

    const std::vector<double> self = spans.selfSeconds();
    for (std::size_t i = firstSpan; i < spans.spans().size(); ++i)
        if (spans.spans()[i].name != "replay.run")
            result.selfSum += self[i];
    return result;
}

} // namespace perfbench
