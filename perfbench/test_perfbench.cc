#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "perfbench.h"

using namespace perfbench;
using exion::Benchmark;
using exion::ExecMode;

namespace
{

/** (name, unit) pairs of one metric array of BENCHMARK.json. */
std::vector<MetricDef>
declared(const std::string &key)
{
    std::ifstream in(PERFBENCH_JSON);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::size_t at = text.find("\"" + key + "\"");
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t end = text.find(']', at);
    const std::string array = text.substr(at, end - at);
    const std::regex metric(
        R"re(\{\s*"name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
    std::vector<MetricDef> out;
    for (auto it = std::sregex_iterator(array.begin(), array.end(), metric);
         it != std::sregex_iterator(); ++it)
        out.push_back({(*it)[1], (*it)[2]});
    return out;
}

void
expectSame(const std::vector<MetricDef> &printed,
           const std::vector<MetricDef> &json)
{
    ASSERT_EQ(printed.size(), json.size());
    for (std::size_t i = 0; i < json.size(); ++i) {
        EXPECT_EQ(printed[i].name, json[i].name);
        EXPECT_EQ(printed[i].unit, json[i].unit) << json[i].name;
    }
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

TEST(PerfbenchMetrics, PrintedNamesEqualBenchmarkJson)
{
    expectSame(endToEndMetrics(), declared("end_to_end"));
    expectSame(perLayerMetrics(), declared("per_layer"));
}

TEST(PerfbenchQuantile, NeedsTenSamplesBeyond)
{
    EXPECT_THROW(quantile(ramp(99), 900, "p90"), RunTooShort);
    const Quantile p90 = quantile(ramp(100), 900, "p90");
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_THROW(quantile(ramp(999), 990, "p99"), RunTooShort);
    EXPECT_EQ(quantile(ramp(1000), 990, "p99").value, 990.0);
    EXPECT_THROW(quantile({}, 500, "p50"), RunTooShort);
    EXPECT_EQ(quantile(ramp(21), 500, "p50").value, 11.0);
    EXPECT_EQ(quantile(ramp(20), 500, "p50").beyond, 10u);
    EXPECT_THROW(quantile(ramp(19), 500, "p50"), RunTooShort);
}

TEST(PerfbenchQuantile, TooShortMessageNamesTheMetric)
{
    try {
        quantile(ramp(50), 900, "latency_p90_s");
        FAIL() << "expected RunTooShort";
    } catch (const RunTooShort &e) {
        EXPECT_NE(std::string(e.what()).find("latency_p90_s"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("n=50"), std::string::npos);
    }
}

TEST(PerfbenchWorkloads, SeedChangesNoiseButKeepsTheMix)
{
    for (Workload w :
         {Workload::MldExion, Workload::MldDense, Workload::HttpStream}) {
        std::set<u64> noiseA;
        std::set<u64> noiseB;
        for (u64 i = 0; i < 4 * kListPeriod; ++i) {
            const RequestSpec a = requestAt(w, 1, i);
            const RequestSpec b = requestAt(w, 2, i);
            EXPECT_EQ(a.benchmark, b.benchmark);
            EXPECT_EQ(a.mode, b.mode);
            EXPECT_EQ(a, requestAt(w, 1, i)) << "same seed, same request";
            EXPECT_EQ(a, requestAt(w, 1, i + kListPeriod)) << "period";
            EXPECT_LT(a.noiseSeed, u64{1} << 53);
            noiseA.insert(a.noiseSeed);
            noiseB.insert(b.noiseSeed);
        }
        EXPECT_EQ(noiseA.size(), kListPeriod) << workloadName(w);
        for (u64 s : noiseA)
            EXPECT_EQ(noiseB.count(s), 0u) << workloadName(w);
    }
}

TEST(PerfbenchWorkloads, HttpStreamMixIsThreeToOneBothWays)
{
    std::map<std::string, int> count;
    for (u64 i = 0; i < kListPeriod; ++i)
        ++count[requestTypeName(requestAt(Workload::HttpStream, 7, i))];
    EXPECT_EQ(count["MDM/exion"], 9);
    EXPECT_EQ(count["MDM/dense"], 3);
    EXPECT_EQ(count["StableDiffusion/exion"], 3);
    EXPECT_EQ(count["StableDiffusion/dense"], 1);
}

TEST(PerfbenchWorkloads, MldWorkloadsDifferOnlyInMode)
{
    for (u64 i = 0; i < kListPeriod; ++i) {
        const RequestSpec e = requestAt(Workload::MldExion, 3, i);
        const RequestSpec d = requestAt(Workload::MldDense, 3, i);
        EXPECT_EQ(e.benchmark, Benchmark::MLD);
        EXPECT_EQ(e.mode, ExecMode::Exion);
        EXPECT_EQ(d.mode, ExecMode::Dense);
        EXPECT_EQ(e.noiseSeed, d.noiseSeed);
    }
}

TEST(PerfbenchSpans, SelfTimeSubtractsDirectChildren)
{
    SpanLog log;
    const Clock::time_point t0 = Clock::now();
    const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
    const long root = log.add("iteration", at(0), at(100), -1, 1);
    const long attn = log.add("attention", at(10), at(40), root, 1);
    log.add("inner", at(15), at(20), attn, 1);
    log.add("ffn", at(50), at(90), root, 1);
    const std::vector<double> self = log.selfSeconds();
    EXPECT_NEAR(self[0], 0.030, 1e-9);
    EXPECT_NEAR(self[1], 0.025, 1e-9);
    EXPECT_NEAR(self[3], 0.040, 1e-9);
}
