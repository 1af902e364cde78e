/**
 * @file
 * fuzz-clean: clean chaos-fuzz scenarios with the invariant monitors
 * armed (generateScenario + runScenario), the only workload where the
 * monitors run.
 *
 * Scenario i rotates the protocol family (allow/deny/dynamic by i % 3,
 * as fuzz_campaign does) and the generator mode (plain, pool, policy,
 * metadata, hammer by i % 5), so a round of 15 scenarios covers every
 * pair. Set-up generates the scenarios; a unit is one runScenario
 * call, which builds its own engine. A scenario that fires
 * a monitor fails its unit: no seeded bug is armed.
 */

#include <string>
#include <vector>

#include "bench.hh"
#include "fuzz/generator.hh"
#include "fuzz/runner.hh"

namespace perfbench
{

namespace
{

using namespace dve;

constexpr unsigned modes = 5;
const char *const modeNames[modes] = {"plain", "pool", "policy", "metadata",
                                      "hammer"};

/** Mirrors fuzz_campaign's per-scenario shaping for each mode. */
GeneratorConfig
scenarioConfig(std::uint64_t base_seed, std::size_t index)
{
    GeneratorConfig gc;
    gc.seed = base_seed * 1000003 + index;
    gc.ops = 400;
    switch (index % 3) {
      case 0: gc.protocol = DveProtocol::Allow; break;
      case 1: gc.protocol = DveProtocol::Deny; break;
      default: gc.protocol = DveProtocol::Dynamic; break;
    }
    switch (index % modes) {
      case 1: gc.poolMode = true; break;
      case 2:
        gc.policyMode = true;
        gc.footprintPages = 16;
        break;
      case 3: gc.metadataMode = true; break;
      case 4:
        gc.hammerMode = true;
        gc.footprintPages = 32;
        break;
      default: break;
    }
    return gc;
}

std::uint64_t
digestRun(const FuzzRunResult &r)
{
    Fnv f;
    f.mix(r.digest);
    f.mix(r.stepsRun);
    f.mix(r.faultsInjected);
    f.mix(r.faultsHealed);
    return f.h;
}

} // namespace

void
runFuzzClean(Run &run)
{
    const std::size_t scenarios =
        15 * std::max(1u, static_cast<unsigned>(8 * run.opt.scale + 0.5));

    SpanRecorder &rec = run.spans;
    const std::uint32_t spanGenerate = rec.intern("fuzz.generate");
    const std::uint32_t spanRun = rec.intern("fuzz.run");

    double monitoredNs = 0;
    double unmonitoredNs = 0;
    double untracedNs = 0;
    double steps = 0;

    // Set-up, timed setupRepeats times: generate every scenario. The
    // rounds run the last set-up's scenarios.
    std::vector<FuzzScenario> scs;
    for (unsigned rep = 0; rep < setupRepeats; ++rep) {
        scs.clear();
        const std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < scenarios; ++i) {
            SpanScope s(rec, spanGenerate, run.opt.trace);
            scs.push_back(generateScenario(scenarioConfig(run.opt.seed, i)));
        }
        run.recordSetup(secondsSince(t0));
    }
    if (run.opt.trace)
        rec.foldUnit("setup");

    while (run.nextRound()) {
        for (std::size_t i = 0; i < scenarios; ++i) {
            const std::string label = std::string(modeNames[i % modes])
                                      + "/"
                                      + dveProtocolName(scs[i].protocol)
                                      + "/" + std::to_string(i);
            const std::uint64_t t0 = nowNs();
            const FuzzRunResult r = runScenario(scs[i]);
            const double dt = secondsSince(t0);
            untracedNs += dt * 1e9;
            run.timeUnit(i, dt, r.reads + r.writes);
            run.checkUnit(i, digestRun(r), !r.violated, label);
            if (run.round() == 0)
                steps += static_cast<double>(r.stepsRun);

            if (run.opt.trace) {
                FuzzRunResult tr;
                std::uint64_t t1 = nowNs();
                {
                    SpanScope s(rec, spanRun);
                    tr = runScenario(scs[i]);
                }
                monitoredNs += static_cast<double>(nowNs() - t1);
                run.checkUnit(i, digestRun(tr), !tr.violated,
                              label + "/traced");
                rec.foldUnit(label);

                // Monitors are observers too: a clean scenario must play
                // out identically with them disarmed.
                FuzzRunOptions off;
                off.invariantChecks = false;
                t1 = nowNs();
                const FuzzRunResult ur = runScenario(scs[i], off);
                unmonitoredNs += static_cast<double>(nowNs() - t1);
                run.checkUnit(i, digestRun(ur), !ur.violated,
                              label + "/unmonitored");
            }
        }
    }

    run.layer["fuzz.steps"] = steps;
    run.sim["steps_per_round"] = steps;
    if (!run.opt.trace)
        return;
    run.layer["fuzz.generate_ms_p50"] =
        median(rec.durations("fuzz.generate")) * 1e-6;
    run.layer["fuzz.run_ms_p50"] = median(rec.durations("fuzz.run")) * 1e-6;
    run.layer["fuzz.monitor_share"] =
        monitoredNs > 0 ? 1.0 - unmonitoredNs / monitoredNs : 0.0;
    run.layer["trace_overhead_frac"] =
        untracedNs > 0 ? monitoredNs / untracedNs - 1.0 : 0.0;
}

} // namespace perfbench
