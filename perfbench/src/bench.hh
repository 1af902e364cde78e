/**
 * @file
 * Shared pieces of the simulator benchmark: run options, the round loop
 * and its unit bookkeeping, output digests, and the span recorder the
 * traced run uses to split host time across the simulator's layers.
 *
 * A run prepares its inputs (set-up, timed several times), then runs a
 * sequence of rounds. A round executes a fixed list of units (one System
 * replay, one campaign trial or one fuzz scenario each). Every round
 * repeats the same units,
 * so each unit's simulated-stat digest must come out identical every
 * time it runs; a mismatch, or a broken output contract, fails the unit.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/**
 * Span timestamp. On x86-64 this is the time-stamp counter, which costs
 * about half a steady_clock read; millions of hook spans per second make
 * that difference the bulk of the tracing overhead. SpanRecorder
 * converts ticks to nanoseconds against steady_clock.
 */
inline std::uint64_t
spanTicks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return nowNs();
#endif
}

/** Seconds elapsed since @p t0_ns. */
inline double
secondsSince(std::uint64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

/** splitmix64 finalizer: derives independent seeds from one argument. */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a over 64-bit words (the repository's digest convention). */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    mix(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    void
    mix(const std::map<std::string, double> &m)
    {
        for (const auto &[k, v] : m) {
            for (const char c : k)
                mix(static_cast<std::uint64_t>(c));
            mix(v);
        }
    }
};

/** Linear-interpolated quantile of @p v (0 <= q <= 1); 0 when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Geometric mean of positive values; 0 when empty. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0;
    for (const double x : v)
        logs += std::log(x);
    return std::exp(logs / static_cast<double>(v.size()));
}

/**
 * In-memory span recorder for the traced run.
 *
 * A span has a name, start, end, parent (the span open around it) and
 * the unit it belongs to. Spans nest through an open-span stack; a
 * closing span adds its duration to its parent's child time, so its
 * self time (duration minus children) is exact when it closes. Every
 * span folds into per-unit, per-name totals as it closes, and top-level
 * spans (one per replay, trial, scenario or set-up step) are also kept
 * whole. Nothing is written until the run ends. The millions of hook
 * spans a replay opens per second are not kept one by one: streaming
 * their records through memory evicted the simulator's own working set
 * from the host caches and tripled the tracing overhead.
 */
class SpanRecorder
{
  public:
    /** Per-name totals, in nanoseconds. */
    struct Totals
    {
        std::uint64_t calls = 0;
        double totalNs = 0;
        double selfNs = 0;
    };

    /** Per-name totals of one folded unit (the per-unit table). */
    struct UnitRow
    {
        std::uint32_t unit = 0;
        std::string label;
        std::string name;
        Totals t;
    };

    SpanRecorder() : tick0_(spanTicks()), ns0_(nowNs()) {}

    std::uint32_t
    intern(const char *name)
    {
        for (std::uint32_t i = 0; i < names_.size(); ++i) {
            if (names_[i] == name)
                return i;
        }
        names_.emplace_back(name);
        live_.emplace_back();
        return static_cast<std::uint32_t>(names_.size() - 1);
    }

    void
    begin(std::uint32_t name)
    {
        stack_.push_back({name, spanTicks(), 0});
    }

    void
    end()
    {
        const std::uint64_t t = spanTicks();
        const Open o = stack_.back();
        stack_.pop_back();
        const std::uint64_t dur = t - o.start;
        Live &l = live_[o.name];
        ++l.calls;
        l.total += dur;
        l.self += dur - o.children;
        if (stack_.empty())
            roots_.push_back({o.name, unit_, o.start, t});
        else
            stack_.back().children += dur;
    }

    /** Close the current unit: move its totals into the run's tables. */
    void foldUnit(const std::string &label);

    const Totals &
    totals(const char *name) const
    {
        static const Totals none;
        const auto it = totals_.find(name);
        return it == totals_.end() ? none : it->second;
    }

    const std::vector<UnitRow> &unitRows() const { return rows_; }

    /** Durations (ns) of every top-level span named @p name. */
    const std::vector<double> &
    durations(const char *name) const
    {
        static const std::vector<double> none;
        const auto it = durations_.find(name);
        return it == durations_.end() ? none : it->second;
    }

    /** Write top-level spans and the per-unit table as TSV files. */
    void write(const std::string &spans_path,
               const std::string &units_path) const;

  private:
    struct Open
    {
        std::uint32_t name;
        std::uint64_t start;    ///< spanTicks()
        std::uint64_t children; ///< ticks inside closed child spans
    };

    struct Live
    {
        std::uint64_t calls = 0;
        std::uint64_t total = 0;
        std::uint64_t self = 0;
    };

    struct Root
    {
        std::uint32_t name;
        std::uint32_t unit;
        std::uint64_t start;
        std::uint64_t end;
    };

    /** Nanoseconds per span tick, measured since construction. */
    double nsPerTick() const;

    std::uint64_t tick0_;
    std::uint64_t ns0_;
    std::vector<std::string> names_;
    std::vector<Open> stack_;
    std::vector<Live> live_;   ///< per name, unit in progress
    std::vector<Root> roots_;
    std::size_t foldedRoots_ = 0;
    std::uint32_t unit_ = 0;
    std::map<std::string, Totals> totals_;
    std::map<std::string, std::vector<double>> durations_;
    std::vector<UnitRow> rows_;
};

/** RAII span; records nothing when @p on is false (untraced runs). */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, std::uint32_t name, bool on = true)
        : rec_(rec), on_(on)
    {
        if (on_)
            rec_.begin(name);
    }
    ~SpanScope()
    {
        if (on_)
            rec_.end();
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder &rec_;
    bool on_;
};

/**
 * Host-speed reference for the end-to-end timings.
 *
 * The shared 4-vCPU VM this benchmark was tuned on changes speed by up
 * to 2x over minutes: other tenants, with no steal time recorded, and
 * thread CPU time slowing exactly as wall time does. Raw host times of
 * one commit then differ more between two batches of runs than any
 * bound worth having. So every ~100 ms of run time, between units, a
 * fixed reference burst is timed: dependent walks with a hash per step,
 * the cache- and branch-bound shape of the simulator's map lookups,
 * first over a 512 KB table that stays in the core's L2, then over an
 * 8 MB one that does not. The end-to-end times are host times
 * multiplied by the run's median factor, nominal (0.5 ms) over measured
 * burst time: host time at the speed where one burst takes 0.5 ms. The
 * burst runs no simulator code, so a faster simulator still reads
 * faster, while a slower host reads about the same.
 */
class HostSpeed
{
  public:
    HostSpeed();

    /** Time a reference burst if the last one is ~100 ms old. */
    void sample();

    /** Median of nominal over measured burst time (1 before any). */
    double factor() const;

    const std::vector<double> &samples() const { return samples_; }

    /** Resident bytes of the reference tables (touched at construction). */
    std::size_t
    tableBytes() const
    {
        return (l2Table_.size() + l3Table_.size()) * sizeof(std::uint32_t);
    }

  private:
    std::uint64_t burstNs();

    std::vector<std::uint32_t> l2Table_;
    std::vector<std::uint32_t> l3Table_;
    std::uint64_t sink_ = 0;
    std::uint64_t lastNs_ = 0;
    std::vector<double> samples_;
};

/**
 * Times each workload repeats its set-up, back to back before the first
 * round; setup_s is the median. Set-up inside the rounds would run in
 * whatever state the last round left the heap: replay set-up measured
 * 0.07 s in one round and 0.15 s in the next of the same run.
 */
constexpr unsigned setupRepeats = 5;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;  ///< 1 keeps every harness's own seeds
    double seconds = 20;
    bool trace = false;
    double scale = 1.0;      ///< multiplies every workload's unit size
    std::string outDir;      ///< where the traced run writes its spans
    bool checkAnchor = false;
};

/**
 * State of one run: the round loop, unit outcomes, timings and the
 * metrics each workload fills in.
 */
class Run
{
  public:
    explicit Run(const Options &opt) : opt(opt), start_(nowNs()) {}

    /**
     * Start another round? Always for the first two (every unit must
     * repeat at least once), then while the last round's length still
     * fits in the time budget.
     */
    bool nextRound();

    /** Index of the round in progress. */
    unsigned round() const { return rounds_ - 1; }

    /**
     * Record one unit execution. @p idx identifies the unit within a
     * round; its digest must match the first execution's. @p ok carries
     * the workload's own output checks.
     */
    void checkUnit(std::size_t idx, std::uint64_t digest, bool ok,
                   const std::string &label);

    /**
     * Record an untraced unit execution's host time. Units are
     * deterministic, so every repeat does the same work and short host
     * stalls only ever add time: a unit's cost is its fastest repeat.
     */
    void timeUnit(std::size_t idx, double seconds, std::uint64_t accesses);

    /** Seconds of one set-up (a round may set up more than once). */
    void recordSetup(double setup_s) { setupS.push_back(setup_s); }

    /** Digest over the first execution of every unit, in unit order. */
    std::uint64_t workloadDigest() const;

    /** Write every unit's fastest repeat and access count as TSV. */
    void writeUnitTimes(const std::string &path) const;

    Options opt;
    SpanRecorder spans;
    std::map<std::string, double> layer; ///< per-layer metrics
    /** Extra machine-readable facts (simulated results, shares). */
    std::map<std::string, double> sim;
    std::vector<std::string> notes; ///< human-readable report lines

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    HostSpeed speed;
    std::vector<double> setupS;       ///< per set-up
    std::vector<double> bestS;        ///< per unit: fastest repeat
    std::vector<double> unitAccesses; ///< per unit: memory accesses
    std::vector<std::string> unitLabels;

  private:
    std::uint64_t start_;
    unsigned rounds_ = 0;
    double lastRoundS_ = 0;
    std::uint64_t roundStart_ = 0;
    std::vector<std::uint64_t> digests_;
    std::vector<bool> seen_;
};

void runReplayMiss(Run &run);
void runReplayHit(Run &run);
void runCampaignMix(Run &run);
void runFuzzClean(Run &run);

/** The six per-preset trial metrics campaign-mix reports. */
const std::vector<std::string> &campaignPresetNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
