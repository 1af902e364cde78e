/**
 * @file
 * Span-recording engine for the traced run.
 *
 * Overrides the virtual hooks DveEngine itself extends and calls the
 * base, wrapping each call in a span: serviceLlcMiss (global miss path:
 * home directory, NoC, replica routing), readMemoryChecked and
 * writebackToMemory (memory controller, DRAM, ECC), and, on the Dvé
 * engines only, grantedExclusive (replica-directory bookkeeping). The
 * engine is a pure observer: a traced replay must produce the same
 * simulated-stat digest as the untraced one.
 */

#ifndef PERFBENCH_TRACED_ENGINE_HH
#define PERFBENCH_TRACED_ENGINE_HH

#include <type_traits>
#include <utility>

#include "bench.hh"
#include "core/dve_engine.hh"

namespace perfbench
{

/** Span names of the hook layers (interned once per recorder). */
struct HookSpans
{
    explicit HookSpans(SpanRecorder &rec)
        : miss(rec.intern("coherence.miss")),
          memRead(rec.intern("mem.read")),
          memWriteback(rec.intern("mem.writeback")),
          grant(rec.intern("core.grant"))
    {
    }

    std::uint32_t miss;
    std::uint32_t memRead;
    std::uint32_t memWriteback;
    std::uint32_t grant;
};

template <class Base>
class TracedEngine final : public Base
{
    static_assert(std::is_base_of_v<dve::CoherenceEngine, Base>);

  public:
    template <class... Args>
    TracedEngine(SpanRecorder &rec, Args &&...args)
        : Base(std::forward<Args>(args)...), rec_(rec), names_(rec)
    {
    }

  protected:
    using typename Base::MemRead;
    using typename Base::MissResult;

    MissResult
    serviceLlcMiss(unsigned socket, dve::Addr line, bool is_write,
                   dve::Tick t_slice) override
    {
        SpanScope s(rec_, names_.miss);
        return Base::serviceLlcMiss(socket, line, is_write, t_slice);
    }

    MemRead
    readMemoryChecked(unsigned home, dve::Addr line, dve::Tick when) override
    {
        SpanScope s(rec_, names_.memRead);
        return Base::readMemoryChecked(home, line, when);
    }

    dve::Tick
    writebackToMemory(unsigned home, dve::Addr line, std::uint64_t value,
                      dve::Tick when) override
    {
        SpanScope s(rec_, names_.memWriteback);
        return Base::writebackToMemory(home, line, value, when);
    }

    // The baseline engine's grant hook is an empty coherence-layer
    // default; only the Dvé override is replica-layer (core) work.
    dve::Tick
    grantedExclusive(unsigned home, dve::Addr line, unsigned to_socket,
                     dve::Tick start, std::uint32_t prev_sharers) override
    {
        if constexpr (std::is_base_of_v<dve::DveEngine, Base>) {
            SpanScope s(rec_, names_.grant);
            return Base::grantedExclusive(home, line, to_socket, start,
                                          prev_sharers);
        } else {
            return Base::grantedExclusive(home, line, to_socket, start,
                                          prev_sharers);
        }
    }

  private:
    SpanRecorder &rec_;
    HookSpans names_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_ENGINE_HH
