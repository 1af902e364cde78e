/**
 * @file
 * replay-miss and replay-hit: trace-driven System replays, the fig6
 * path (generateTraces -> engine construction -> ReplayEngine::run).
 *
 * A unit is one replay of one profile on a freshly built engine of one
 * scheme. Set-up (trace generation plus engine construction) is timed
 * apart from the replay; sim_accesses_per_s counts every replayed
 * memory access, warmup included, per host second of ReplayEngine::run.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "sys/system.hh"
#include "trace/workloads.hh"
#include "traced_engine.hh"

namespace perfbench
{

namespace
{

using namespace dve;

/** fig6's replay shape: SystemConfig defaults (16 threads, 5% warmup). */
const SystemConfig paperShape{};

/** One replay workload: its profiles, their trace scales, the schemes. */
struct ReplaySpec
{
    std::vector<WorkloadProfile> profiles;
    std::vector<double> scales; ///< generateTraces scale, per profile
    std::vector<SchemeKind> schemes;
};

/** Exact simulated counts of one replay, summed over a round. */
struct Counts
{
    double accesses = 0;
    double steps = 0;  ///< replay-loop dispatches: trace ops + thread exits
    double l1Hits = 0;
    double llcHits = 0;
    double llcMisses = 0;
    double writebacks = 0;
    double nocMessages = 0;
    double interBytes = 0;
    double activates = 0;
    double dramReads = 0;
    double memReads = 0;
    double replicaReads = 0;
    double permPulls = 0;
    double rmPushes = 0;
};

SystemConfig
configFor(SchemeKind scheme)
{
    SystemConfig cfg = paperShape;
    cfg.scheme = scheme;
    return cfg;
}

/** The engine System's constructor builds, wrapped in span hooks. */
std::unique_ptr<CoherenceEngine>
makeTracedEngine(const SystemConfig &cfg, SpanRecorder &rec)
{
    const EngineConfig ecfg = System::engineConfigFor(cfg);
    if (cfg.scheme != SchemeKind::DveAllow && cfg.scheme != SchemeKind::DveDeny
        && cfg.scheme != SchemeKind::DveDynamic) {
        return std::make_unique<TracedEngine<CoherenceEngine>>(rec, ecfg);
    }
    DveConfig d = cfg.dve;
    d.protocol = cfg.scheme == SchemeKind::DveAllow  ? DveProtocol::Allow
                 : cfg.scheme == SchemeKind::DveDeny ? DveProtocol::Deny
                                                     : DveProtocol::Dynamic;
    return std::make_unique<TracedEngine<DveEngine>>(rec, ecfg, d);
}

double
statOf(const StatGroup &g, const char *name)
{
    return g.has(name) ? g.get(name) : 0.0;
}

/** Digest of every simulated statistic a replay leaves behind. */
std::uint64_t
digestReplay(const ReplayResult &rr, CoherenceEngine &eng)
{
    Fnv f;
    f.mix(rr.finishTick);
    f.mix(rr.roiStartTick);
    f.mix(rr.memOps);
    f.mix(rr.computeCycles);
    f.mix(rr.barrierWaits);
    f.mix(rr.lockAcquisitions);
    f.mix(rr.instructionsApprox);
    f.mix(eng.stats().snapshot());
    f.mix(eng.requestLatency().sum());
    f.mix(eng.interconnect().stats().snapshot());
    for (unsigned s = 0; s < eng.config().sockets; ++s) {
        auto &mc = eng.memory(s);
        f.mix(mc.stats().snapshot());
        for (unsigned c = 0; c < mc.copies(); ++c) {
            f.mix(mc.dram(c).activates());
            f.mix(mc.dram(c).reads());
            f.mix(mc.dram(c).writes());
        }
    }
    if (const auto *dve = dynamic_cast<const DveEngine *>(&eng))
        f.mix(dve->dveStats().snapshot());
    return f.h;
}

void
addCounts(Counts &c, CoherenceEngine &eng, std::uint64_t trace_ops,
          unsigned threads)
{
    const StatGroup &st = eng.stats();
    const double accesses = statOf(st, "reads") + statOf(st, "writes");
    c.accesses += accesses;
    c.steps += static_cast<double>(trace_ops + threads);
    c.l1Hits += static_cast<double>(eng.l1Hits());
    c.llcHits += static_cast<double>(eng.llcHits());
    c.llcMisses += static_cast<double>(eng.llcMisses());
    c.writebacks += statOf(st, "writebacks");
    const StatGroup &noc = eng.interconnect().stats();
    c.nocMessages += statOf(noc, "intra_messages")
                     + statOf(noc, "inter_socket_messages");
    c.interBytes += static_cast<double>(eng.interconnect().interSocketBytes());
    for (unsigned s = 0; s < eng.config().sockets; ++s) {
        auto &mc = eng.memory(s);
        c.memReads += statOf(mc.stats(), "reads");
        for (unsigned k = 0; k < mc.copies(); ++k) {
            c.activates += static_cast<double>(mc.dram(k).activates());
            c.dramReads += static_cast<double>(mc.dram(k).reads());
        }
    }
    if (const auto *dve = dynamic_cast<const DveEngine *>(&eng)) {
        c.replicaReads += static_cast<double>(dve->replicaLocalReads());
        c.permPulls += static_cast<double>(dve->permissionPulls());
        c.rmPushes += static_cast<double>(dve->rmPushes());
    }
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

std::uint64_t
opsOf(const ThreadTraces &traces)
{
    std::uint64_t n = 0;
    for (const auto &t : traces)
        n += t.size();
    return n;
}

void
runReplay(Run &run, const ReplaySpec &spec)
{
    SpanRecorder &rec = run.spans;
    const std::uint32_t spanGenerate = rec.intern("trace.generate");
    const std::uint32_t spanConstruct = rec.intern("sys.construct");
    const std::uint32_t spanReplay = rec.intern("cpu.replay");
    const unsigned threads = paperShape.threads;
    std::vector<double> scales;
    for (const double s : spec.scales)
        scales.push_back(s * run.opt.scale);
    const std::size_t nschemes = spec.schemes.size();

    std::vector<Tick> roi(spec.profiles.size() * nschemes, 0);
    Counts counts;
    std::uint64_t generatedOps = 0;
    double untracedReplayNs = 0;
    double tracedAccesses = 0;
    unsigned rounds = 0;

    // Set-up, timed setupRepeats times back to back: every profile's
    // traces, then one engine per scheme. The rounds replay the last
    // set-up's traces.
    std::vector<ThreadTraces> traces;
    for (unsigned rep = 0; rep < setupRepeats; ++rep) {
        traces.clear();
        const std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < spec.profiles.size(); ++i) {
            SpanScope s(rec, spanGenerate, run.opt.trace);
            traces.push_back(
                generateTraces(spec.profiles[i], threads, scales[i]));
        }
        for (const SchemeKind scheme : spec.schemes)
            const System sys(configFor(scheme));
        run.recordSetup(secondsSince(t0));
        for (const ThreadTraces &tr : traces)
            generatedOps += opsOf(tr);
    }
    if (run.opt.trace)
        rec.foldUnit("setup");

    while (run.nextRound()) {
        for (std::size_t u = 0; u < roi.size(); ++u) {
            const WorkloadProfile &prof = spec.profiles[u / nschemes];
            const ThreadTraces &tr = traces[u / nschemes];
            const SystemConfig cfg = configFor(spec.schemes[u % nschemes]);
            const std::string label =
                prof.name + "/" + schemeKindName(cfg.scheme);

            System sys(cfg);
            ReplayEngine replay(sys.engine(), cfg.warmupFraction);
            const std::uint64_t t0 = nowNs();
            const ReplayResult rr = replay.run(tr);
            const double replay_s = secondsSince(t0);
            untracedReplayNs += replay_s * 1e9;
            const StatGroup &st = sys.engine().stats();
            run.timeUnit(u, replay_s,
                         static_cast<std::uint64_t>(statOf(st, "reads")
                                                    + statOf(st, "writes")));
            run.checkUnit(u, digestReplay(rr, sys.engine()),
                          sys.engine().sdcReadsObserved() == 0, label);
            if (run.round() == 0) {
                roi[u] = rr.roiTime();
                addCounts(counts, sys.engine(), opsOf(tr), threads);
            }

            if (run.opt.checkAnchor && run.round() == 0) {
                // The harness path: System::run generates its own traces.
                System ref(cfg);
                const RunResult r = ref.run(prof, scales[u / nschemes]);
                const bool same = r.roiTime == rr.roiTime();
                run.checkUnit(u, digestReplay(rr, sys.engine()), same,
                              label + "/anchor");
                if (!same) {
                    std::fprintf(stderr,
                                 "perfbench: %s roi %" PRIu64
                                 " differs from System::run's %" PRIu64 "\n",
                                 label.c_str(), rr.roiTime(), r.roiTime);
                }
            }

            if (run.opt.trace) {
                std::unique_ptr<CoherenceEngine> eng;
                {
                    SpanScope s(rec, spanConstruct);
                    eng = makeTracedEngine(cfg, rec);
                }
                ReplayEngine traced(*eng, cfg.warmupFraction);
                ReplayResult trr;
                {
                    SpanScope s(rec, spanReplay);
                    trr = traced.run(tr);
                }
                tracedAccesses += statOf(eng->stats(), "reads")
                                  + statOf(eng->stats(), "writes");
                run.checkUnit(u, digestReplay(trr, *eng),
                              eng->sdcReadsObserved() == 0,
                              label + "/traced");
                rec.foldUnit(label);
            }
        }
        ++rounds;
    }

    // Simulated results: fig6's speedup definition, numa ROI ticks over
    // the scheme's, per profile and as a geomean over profiles.
    std::string table = "fig6-shape speedups over numa (trace scale";
    for (std::size_t i = 0; i < spec.profiles.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %g", spec.profiles[i].name.c_str(),
                      scales[i]);
        table += buf;
    }
    table += "):";
    for (std::size_t j = 0; j < nschemes; ++j) {
        const SchemeKind s = spec.schemes[j];
        if (s == SchemeKind::BaselineNuma)
            continue;
        double log_sum = 0;
        for (std::size_t i = 0; i < spec.profiles.size(); ++i) {
            const double sp =
                static_cast<double>(roi[i * nschemes])
                / static_cast<double>(roi[i * nschemes + j]);
            log_sum += std::log(sp);
            char buf[96];
            std::snprintf(buf, sizeof(buf), " %s/%s %.3f",
                          spec.profiles[i].name.c_str(), schemeKindName(s),
                          sp);
            table += buf;
            run.sim["speedup." + spec.profiles[i].name + "."
                    + schemeKindName(s)] = sp;
        }
        const double gm =
            std::exp(log_sum / static_cast<double>(spec.profiles.size()));
        const char *metric = s == SchemeKind::DveAllow ? "sim_speedup_allow"
                             : s == SchemeKind::DveDeny ? "sim_speedup_deny"
                             : s == SchemeKind::DveDynamic
                                 ? "sim_speedup_dynamic"
                                 : "sim_speedup_intel_mirror_pp";
        run.sim[metric] = gm;
        if (s != SchemeKind::IntelMirrorPlus)
            run.layer[metric] = gm;
    }
    run.notes.push_back(table);
    run.notes.push_back(
        "paper Fig 6 reference (context only; the model is unvalidated "
        "against hardware): deny 1.28/1.18/1.15, allow 1.17/1.14/1.12, "
        "dynamic 1.29/1.22/1.18 geomean over top-10/15/all");
    for (const char *m :
         {"sim_speedup_allow", "sim_speedup_deny", "sim_speedup_dynamic"}) {
        if (run.sim.count(m)) {
            char buf[80];
            std::snprintf(buf, sizeof(buf), "%s %.6f", m, run.sim[m]);
            run.notes.push_back(buf);
        }
    }

    auto &L = run.layer;
    L["cpu.steps_per_access"] = ratio(counts.steps, counts.accesses);
    L["cache.l1_hit_frac"] = ratio(counts.l1Hits, counts.accesses);
    L["cache.llc_hit_frac"] =
        ratio(counts.llcHits, counts.llcHits + counts.llcMisses);
    L["coherence.writebacks"] = counts.writebacks;
    L["noc.messages_per_miss"] = ratio(counts.nocMessages, counts.llcMisses);
    L["noc.inter_socket_bytes_per_access"] =
        ratio(counts.interBytes, counts.accesses);
    L["dram.activates_per_read"] = ratio(counts.activates, counts.dramReads);
    L["core.replica_read_frac"] = ratio(counts.replicaReads, counts.memReads);
    L["core.permission_pulls"] = counts.permPulls;
    L["core.rm_pushes"] = counts.rmPushes;
    run.sim["llc_hit_frac"] = L["cache.llc_hit_frac"];
    run.sim["l1_hit_frac"] = L["cache.l1_hit_frac"];

    if (!run.opt.trace || rounds == 0)
        return;

    // Host-time split from the traced units.
    const auto &gen = rec.totals("trace.generate");
    const auto &rep = rec.totals("cpu.replay");
    const auto &miss = rec.totals("coherence.miss");
    const auto &rd = rec.totals("mem.read");
    const auto &wb = rec.totals("mem.writeback");
    const auto &gr = rec.totals("core.grant");
    const double perRound = 1.0 / rounds;
    L["trace.generate_ns_per_op"] =
        ratio(gen.totalNs, static_cast<double>(generatedOps));
    L["sys.construct_ms"] = median(rec.durations("sys.construct")) * 1e-6;
    L["cpu.replay_self_ns_per_access"] = ratio(rep.selfNs, tracedAccesses);
    L["coherence.miss_self_ns_per_call"] =
        ratio(miss.selfNs, static_cast<double>(miss.calls));
    L["coherence.misses"] = static_cast<double>(miss.calls) * perRound;
    L["mem.read_ns_per_call"] = ratio(rd.selfNs, static_cast<double>(rd.calls));
    L["mem.reads"] = static_cast<double>(rd.calls) * perRound;
    L["mem.writeback_ns_per_call"] =
        ratio(wb.selfNs, static_cast<double>(wb.calls));
    L["mem.writebacks"] = static_cast<double>(wb.calls) * perRound;
    L["core.grant_ns_per_call"] =
        ratio(gr.selfNs, static_cast<double>(gr.calls));
    L["core.grants"] = static_cast<double>(gr.calls) * perRound;
    const double missPath = miss.selfNs + rd.selfNs + wb.selfNs + gr.selfNs;
    L["replay.miss_path_share"] = ratio(missPath, rep.totalNs);
    L["trace_overhead_frac"] = ratio(rep.totalNs, untracedReplayNs) - 1.0;

    // Per-layer host-time shares of the traced replays, and the numa
    // units' replica-layer time (must be zero: numa has no replica layer).
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "host-time shares of traced replay: cpu.replay-self "
                  "%.1f%%, coherence.miss-self %.1f%%, mem.read %.1f%%, "
                  "mem.writeback %.1f%%, core.grant %.1f%% (miss path "
                  "%.1f%%)",
                  100 * ratio(rep.selfNs, rep.totalNs),
                  100 * ratio(miss.selfNs, rep.totalNs),
                  100 * ratio(rd.selfNs, rep.totalNs),
                  100 * ratio(wb.selfNs, rep.totalNs),
                  100 * ratio(gr.selfNs, rep.totalNs),
                  100 * L["replay.miss_path_share"]);
    run.notes.push_back(buf);
    run.sim["share.cpu.replay"] = ratio(rep.selfNs, rep.totalNs);
    run.sim["share.coherence.miss"] = ratio(miss.selfNs, rep.totalNs);
    run.sim["share.mem.read"] = ratio(rd.selfNs, rep.totalNs);
    run.sim["share.mem.writeback"] = ratio(wb.selfNs, rep.totalNs);
    run.sim["share.core.grant"] = ratio(gr.selfNs, rep.totalNs);
    double numaCore = 0;
    for (const auto &row : rec.unitRows()) {
        if (row.name == "core.grant"
            && row.label.size() > 5
            && row.label.compare(row.label.size() - 5, 5, "/numa") == 0)
            numaCore += static_cast<double>(row.t.calls);
    }
    run.sim["numa_core_spans"] = numaCore;
}

std::vector<WorkloadProfile>
missProfiles(std::uint64_t seed)
{
    std::vector<WorkloadProfile> out;
    std::uint64_t salt = 0;
    for (const char *name : {"backprop", "graph500", "canneal", "lbm"}) {
        WorkloadProfile p = workloadByName(name);
        if (seed != 1)
            p.seed = mixSeed(seed, salt);
        ++salt;
        out.push_back(p);
    }
    return out;
}

/**
 * Benchmark-defined cache-resident profile: a 2 MB read-mostly shared
 * region plus 128 KB private per thread fit the 8 MB per-socket LLC, so
 * once the cold misses are paid nearly every access stays on the replay
 * loop and private-cache path. The trace is long enough (80k accesses
 * per thread) that cold misses are under a tenth of all accesses.
 */
WorkloadProfile
hitProfile(std::uint64_t seed)
{
    WorkloadProfile p;
    p.name = "cache-resident";
    p.suite = "perfbench";
    p.memOpsPerThread = 100000;
    p.computePerMem = 4.0;
    p.sharedBytes = 2ULL << 20;
    p.privateBytes = 128ULL << 10;
    p.sharedFraction = 0.6;
    p.privateWriteFraction = 0.1;
    p.sharedWriteFraction = 0.01;
    p.meanRunLength = 8.0;
    p.barrierInterval = 2000;
    p.seed = seed == 1 ? 7000 : mixSeed(seed, 100);
    return p;
}

} // namespace

void
runReplayMiss(Run &run)
{
    ReplaySpec spec;
    spec.profiles = missProfiles(run.opt.seed);
    // lbm replays 4x longer: its private writes must overflow the 8 MB
    // per-socket LLC before dirty evictions (memory writebacks) start.
    spec.scales = {0.125, 0.125, 0.125, 0.5};
    spec.schemes = {SchemeKind::BaselineNuma, SchemeKind::IntelMirrorPlus,
                    SchemeKind::DveAllow, SchemeKind::DveDeny,
                    SchemeKind::DveDynamic};
    runReplay(run, spec);
}

void
runReplayHit(Run &run)
{
    ReplaySpec spec;
    spec.profiles = {hitProfile(run.opt.seed)};
    spec.scales = {1.0};
    spec.schemes = {SchemeKind::BaselineNuma, SchemeKind::DveDeny};
    runReplay(run, spec);
}

} // namespace perfbench
