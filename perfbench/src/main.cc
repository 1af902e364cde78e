/**
 * @file
 * Simulator benchmark program.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--scale X] [--out DIR] [--check-anchor]
 *
 * Runs one workload (replay-miss, replay-hit, campaign-mix, fuzz-clean)
 * serially in this process for about --seconds host seconds, checks its
 * outputs, and prints a human-readable report followed by two
 * machine-readable lines: `perfbench-sim {...}` (simulated results and
 * the output digest, which must be bit-identical for a given seed on any
 * commit that does not change the model) and, last, the result object
 * `{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the
 * metrics are the end-to-end host metrics; with --trace 1 every unit
 * also runs under the span recorder and the metrics are the per-layer
 * ones. perfbench/run.py builds this binary and is the entry point.
 */

#include <sys/resource.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"

namespace perfbench
{

double
SpanRecorder::nsPerTick() const
{
    const std::uint64_t ticks = spanTicks() - tick0_;
    return ticks ? static_cast<double>(nowNs() - ns0_)
                       / static_cast<double>(ticks)
                 : 1.0;
}

void
SpanRecorder::foldUnit(const std::string &label)
{
    const double ns = nsPerTick();
    for (std::uint32_t i = 0; i < live_.size(); ++i) {
        Live &l = live_[i];
        if (l.calls == 0)
            continue;
        const Totals u{l.calls, ns * static_cast<double>(l.total),
                       ns * static_cast<double>(l.self)};
        Totals &t = totals_[names_[i]];
        t.calls += u.calls;
        t.totalNs += u.totalNs;
        t.selfNs += u.selfNs;
        rows_.push_back({unit_, label, names_[i], u});
        l = Live{};
    }
    for (; foldedRoots_ < roots_.size(); ++foldedRoots_) {
        const Root &r = roots_[foldedRoots_];
        durations_[names_[r.name]].push_back(
            ns * static_cast<double>(r.end - r.start));
    }
    ++unit_;
}

void
SpanRecorder::write(const std::string &spans_path,
                    const std::string &units_path) const
{
    const double ns = nsPerTick();
    if (std::FILE *f = std::fopen(spans_path.c_str(), "w")) {
        // Times in ns since the recorder started.
        std::fprintf(f, "unit\tname\tstart_ns\tend_ns\n");
        for (const Root &r : roots_) {
            std::fprintf(f, "%u\t%s\t%.0f\t%.0f\n", r.unit,
                         names_[r.name].c_str(),
                         ns * static_cast<double>(r.start - tick0_),
                         ns * static_cast<double>(r.end - tick0_));
        }
        std::fclose(f);
    }
    if (std::FILE *f = std::fopen(units_path.c_str(), "w")) {
        std::fprintf(f, "unit\tlabel\tname\tcalls\ttotal_ns\tself_ns\n");
        for (const UnitRow &r : rows_) {
            std::fprintf(f, "%u\t%s\t%s\t%" PRIu64 "\t%.0f\t%.0f\n", r.unit,
                         r.label.c_str(), r.name.c_str(), r.t.calls,
                         r.t.totalNs, r.t.selfNs);
        }
        std::fclose(f);
    }
}

namespace
{

/** Dependent steps of one reference burst through the L2-sized and the
 *  larger table, and the burst time the factor is relative to. */
constexpr unsigned l2Steps = 25000;
constexpr unsigned l3Steps = 2000;
constexpr double nominalBurstNs = 0.5e6;
/** Run time between reference measurements. */
constexpr std::uint64_t refreshNs = 100'000'000;

std::vector<std::uint32_t>
randomTable(std::size_t entries)
{
    std::vector<std::uint32_t> t(entries);
    std::uint64_t x = entries;
    for (std::uint32_t &v : t) {
        x = mixSeed(x, 1);
        v = static_cast<std::uint32_t>(x);
    }
    return t;
}

/** Dependent walk with a hash per step; @p t's size is a power of 2. */
std::uint64_t
walk(const std::vector<std::uint32_t> &t, unsigned steps, std::uint64_t x)
{
    const std::uint32_t mask = static_cast<std::uint32_t>(t.size() - 1);
    for (unsigned i = 0; i < steps; ++i) {
        const std::uint32_t v = t[static_cast<std::uint32_t>(x) & mask];
        x = (x ^ v) * 0x9e3779b97f4a7c15ULL;
        x ^= x >> 29;
        if (v & 1)
            x += i;
    }
    return x;
}

} // namespace

HostSpeed::HostSpeed()
    : l2Table_(randomTable(std::size_t{1} << 17)),
      l3Table_(randomTable(std::size_t{1} << 21))
{
    burstNs(); // warm the branch predictors
}

std::uint64_t
HostSpeed::burstNs()
{
    const std::uint64_t t0 = nowNs();
    sink_ = walk(l2Table_, l2Steps, sink_);
    sink_ = walk(l3Table_, l3Steps, sink_);
    return nowNs() - t0;
}

void
HostSpeed::sample()
{
    const std::uint64_t now = nowNs();
    if (lastNs_ != 0 && now - lastNs_ < refreshNs)
        return;
    // Read both tables once first, so the burst finds them in the host
    // caches however much the last unit evicted: the reference must not
    // depend on the simulator's footprint. Then the fastest of three
    // bursts: an interrupt only ever adds time.
    for (const auto *t : {&l2Table_, &l3Table_}) {
        for (const std::uint32_t v : *t)
            sink_ += v;
    }
    std::uint64_t best = burstNs();
    for (int i = 0; i < 2; ++i)
        best = std::min(best, burstNs());
    samples_.push_back(nominalBurstNs / static_cast<double>(best));
    lastNs_ = nowNs();
}

double
HostSpeed::factor() const
{
    return samples_.empty() ? 1.0 : median(samples_);
}

bool
Run::nextRound()
{
    if (rounds_ > 0)
        lastRoundS_ = secondsSince(roundStart_);
    const bool more =
        rounds_ < 2 || secondsSince(start_) + lastRoundS_ <= opt.seconds;
    if (more) {
        ++rounds_;
        roundStart_ = nowNs();
    }
    return more;
}

void
Run::checkUnit(std::size_t idx, std::uint64_t digest, bool ok,
               const std::string &label)
{
    if (idx >= digests_.size()) {
        digests_.resize(idx + 1, 0);
        seen_.resize(idx + 1, false);
        unitLabels.resize(idx + 1);
    }
    ++attempted;
    bool good = ok;
    if (!seen_[idx]) {
        seen_[idx] = true;
        digests_[idx] = digest;
        unitLabels[idx] = label;
    } else if (digests_[idx] != digest) {
        good = false;
        std::fprintf(stderr,
                     "perfbench: unit %s digest %016" PRIx64
                     " differs from its first run %016" PRIx64 "\n",
                     label.c_str(), digest, digests_[idx]);
    }
    if (!ok)
        std::fprintf(stderr, "perfbench: unit %s failed its output check\n",
                     label.c_str());
    if (!good)
        ++failed;
}

void
Run::timeUnit(std::size_t idx, double seconds, std::uint64_t accesses)
{
    if (idx >= bestS.size()) {
        bestS.resize(idx + 1, 0.0);
        unitAccesses.resize(idx + 1, 0.0);
    }
    if (bestS[idx] == 0.0 || seconds < bestS[idx])
        bestS[idx] = seconds;
    unitAccesses[idx] = static_cast<double>(accesses);
    speed.sample();
}

void
Run::writeUnitTimes(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::fprintf(f, "unit\tlabel\tbest_ms\taccesses\n");
    for (std::size_t i = 0; i < bestS.size(); ++i) {
        std::fprintf(f, "%zu\t%s\t%.6f\t%.0f\n", i,
                     i < unitLabels.size() ? unitLabels[i].c_str() : "",
                     bestS[i] * 1e3, unitAccesses[i]);
    }
    std::fclose(f);
}

std::uint64_t
Run::workloadDigest() const
{
    Fnv f;
    for (const std::uint64_t d : digests_)
        f.mix(d);
    return f.h;
}

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, printed on every workload (0 = the layer is
 *  not on this workload's path). Names follow the src/ modules. */
std::vector<MetricDef>
perLayerMetrics()
{
    std::vector<MetricDef> m = {
        {"unit_ms_p50", "ms"},
        {"unit_ms_p90", "ms"},
        {"host.speed_factor", "ratio"},
        {"trace.generate_ns_per_op", "ns"},
        {"sys.construct_ms", "ms"},
        {"cpu.replay_self_ns_per_access", "ns"},
        {"cpu.steps_per_access", "ratio"},
        {"cache.l1_hit_frac", "fraction"},
        {"cache.llc_hit_frac", "fraction"},
        {"coherence.miss_self_ns_per_call", "ns"},
        {"coherence.misses", "count"},
        {"coherence.writebacks", "count"},
        {"noc.messages_per_miss", "ratio"},
        {"noc.inter_socket_bytes_per_access", "B"},
        {"mem.read_ns_per_call", "ns"},
        {"mem.reads", "count"},
        {"mem.writeback_ns_per_call", "ns"},
        {"mem.writebacks", "count"},
        {"dram.activates_per_read", "ratio"},
        {"core.grant_ns_per_call", "ns"},
        {"core.grants", "count"},
        {"core.replica_read_frac", "fraction"},
        {"core.permission_pulls", "count"},
        {"core.rm_pushes", "count"},
        {"replay.miss_path_share", "fraction"},
    };
    static std::vector<std::string> preset_metrics;
    if (preset_metrics.empty()) {
        for (const auto &p : campaignPresetNames())
            preset_metrics.push_back("fault.trial_ms_p50." + p);
    }
    for (const auto &n : preset_metrics)
        m.push_back({n.c_str(), "ms"});
    const std::vector<MetricDef> tail = {
        {"fault.accesses_per_trial", "count"},
        {"fault.arrivals", "count"},
        {"fault.replica_recoveries", "count"},
        {"fault.repaired_copies", "count"},
        {"fault.link_retries", "count"},
        {"policy.promotions", "count"},
        {"policy.demotion_writebacks", "count"},
        {"fuzz.generate_ms_p50", "ms"},
        {"fuzz.run_ms_p50", "ms"},
        {"fuzz.steps", "count"},
        {"fuzz.monitor_share", "fraction"},
        {"trace_overhead_frac", "fraction"},
        {"sim_speedup_allow", "x"},
        {"sim_speedup_deny", "x"},
        {"sim_speedup_dynamic", "x"},
    };
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
metricsJson(const std::vector<std::pair<MetricDef, double>> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + std::string(ms[i].first.name) + "\": {\"value\": "
               + num(ms[i].second) + ", \"unit\": \""
               + ms[i].first.unit + "\"}";
    }
    return out + "}";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "replay-miss|replay-hit|campaign-mix|fuzz-clean "
                 "[--seed N] [--seconds S] [--trace 0|1] [--scale X] "
                 "[--out DIR] [--check-anchor]\n",
                 msg);
    std::exit(2);
}

double
parseNumber(const char *flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno != 0 || !(v >= 0))
        usage((std::string(flag) + " wants a non-negative number").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            const char *s = value();
            char *end = nullptr;
            errno = 0;
            o.seed = std::strtoull(s, &end, 10);
            if (end == s || *end != '\0' || errno != 0)
                usage("--seed wants a whole number");
        } else if (a == "--seconds") {
            o.seconds = parseNumber("--seconds", value());
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            o.trace = v == "1";
        } else if (a == "--scale") {
            o.scale = parseNumber("--scale", value());
            if (o.scale <= 0)
                usage("--scale must be positive");
        } else if (a == "--out") {
            o.outDir = value();
        } else if (a == "--check-anchor") {
            o.checkAnchor = true;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

} // namespace

} // namespace perfbench

using namespace perfbench;

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Run run(opt);

    if (opt.workload == "replay-miss")
        runReplayMiss(run);
    else if (opt.workload == "replay-hit")
        runReplayHit(run);
    else if (opt.workload == "campaign-mix")
        runCampaignMix(run);
    else if (opt.workload == "fuzz-clean")
        runFuzzClean(run);
    else
        usage(("unknown workload " + opt.workload).c_str());

    for (const auto &line : run.notes)
        std::printf("%s\n", line.c_str());
    // End-to-end host times are at the reference speed (see HostSpeed).
    const double speedFactor = run.speed.factor();
    std::printf("set-up host s, in order:");
    for (const double s : run.setupS)
        std::printf(" %.4f", s);
    std::printf("\n");
    std::vector<std::size_t> order(run.bestS.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return run.bestS[a] > run.bestS[b];
    });
    std::vector<double> best_ms;
    std::vector<double> rate;
    for (std::size_t i = 0; i < run.bestS.size(); ++i) {
        if (run.bestS[i] == 0.0)
            continue; // the unit failed every time it ran
        best_ms.push_back(run.bestS[i] * speedFactor * 1e3);
        rate.push_back(run.unitAccesses[i] / (run.bestS[i] * speedFactor));
    }
    std::printf("unit ms at reference speed (fastest repeat) over %zu units: "
                "geomean %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f p95 %.3f "
                "max %.3f\n",
                best_ms.size(), geomean(best_ms), quantile(best_ms, 0.25),
                quantile(best_ms, 0.5), quantile(best_ms, 0.75),
                quantile(best_ms, 0.9), quantile(best_ms, 0.95),
                quantile(best_ms, 1.0));
    std::printf("slowest units (fastest repeat, host ms):");
    for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i)
        std::printf(" %s %.2f", run.unitLabels[order[i]].c_str(),
                    run.bestS[order[i]] * 1e3);
    std::printf("\n");

    const double failed_frac =
        run.attempted ? static_cast<double>(run.failed)
                            / static_cast<double>(run.attempted)
                      : 1.0;
    std::printf("host speed (nominal/measured reference burst) over %zu "
                "samples: min %.3f p50 %.3f max %.3f\n",
                run.speed.samples().size(), quantile(run.speed.samples(), 0),
                median(run.speed.samples()), quantile(run.speed.samples(), 1));
    std::printf("units: %" PRIu64 " attempted, %" PRIu64
                " failed (failed_frac %s), %u rounds\n",
                run.attempted, run.failed, num(failed_frac).c_str(),
                run.round() + 1);

    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                  run.workloadDigest());
    std::printf("digest %s %s seed %" PRIu64 "\n", opt.workload.c_str(),
                digest, opt.seed);

    std::string sim = "{\"workload\": \"" + opt.workload
                      + "\", \"seed\": " + std::to_string(opt.seed)
                      + ", \"digest\": \"" + digest + "\"";
    for (const auto &[k, v] : run.sim)
        sim += ", \"" + k + "\": " + num(v);
    std::printf("perfbench-sim %s}\n", sim.c_str());

    const std::string outBase =
        opt.outDir.empty() ? std::string()
                           : opt.outDir + "/" + opt.workload + "-seed"
                                 + std::to_string(opt.seed);
    std::vector<std::pair<MetricDef, double>> metrics;
    if (opt.trace) {
        run.layer["unit_ms_p50"] = quantile(best_ms, 0.5);
        run.layer["unit_ms_p90"] = quantile(best_ms, 0.9);
        run.layer["host.speed_factor"] = speedFactor;
        for (const MetricDef &m : perLayerMetrics()) {
            const auto it = run.layer.find(m.name);
            metrics.push_back({m, it == run.layer.end() ? 0.0 : it->second});
        }
        if (!outBase.empty())
            run.spans.write(outBase + "-spans.tsv", outBase + "-units.tsv");
    } else {
        if (!outBase.empty())
            run.writeUnitTimes(outBase + "-best.tsv");
        // Geometric means over units, each unit at its fastest repeat.
        // Not sums: campaign trials are heavy-tailed (p95 ~7x the
        // median, set by how long a seed's fault episodes last), so a sum
        // would measure which trials a seed drew. Not medians: the
        // campaign's units fall in two clusters (baselines ~1 ms, Dve
        // schemes 2-8 ms) and the median jumps between them with host
        // speed.
        metrics = {
            {{"setup_s", "s"}, median(run.setupS) * speedFactor},
            {{"sim_accesses_per_s", "1/s"}, geomean(rate)},
            {{"unit_ms_geomean", "ms"}, geomean(best_ms)},
            // The reference tables are resident from the start; the
            // simulator's own peak is what is left.
            {{"peak_rss_mb", "MB"},
             peakRssMb()
                 - static_cast<double>(run.speed.tableBytes()) / (1 << 20)},
        };
    }

    const bool correct = run.failed == 0 && run.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", run.attempted, run.failed,
                metricsJson(metrics).c_str());
    return 0;
}
