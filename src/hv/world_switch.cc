#include "hv/world_switch.hh"

#include <array>
#include <string>

namespace virtsim {

namespace {

/** 2 × numRegClasses leg taps, interned once. */
struct SwitchTaps
{
    std::array<std::array<TapId, numRegClasses>, 2> ids;

    SwitchTaps()
    {
        for (std::size_t c = 0; c < numRegClasses; ++c) {
            const RegClass cls = static_cast<RegClass>(c);
            ids[0][c] = internTap(std::string("ws.restore.") +
                                  to_string(cls));
            ids[1][c] = internTap(std::string("ws.save.") +
                                  to_string(cls));
        }
    }
};

constexpr auto &switchTaps = tapsOf<SwitchTaps>;

} // namespace

TapId
switchTap(RegClass cls, bool isSave)
{
    return switchTaps().ids[isSave ? 1 : 0]
                           [static_cast<std::size_t>(cls)];
}

std::optional<SwitchTapInfo>
switchTapInfo(TapId tap)
{
    const SwitchTaps &taps = switchTaps();
    for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t c = 0; c < numRegClasses; ++c) {
            if (taps.ids[s][c] == tap)
                return SwitchTapInfo{static_cast<RegClass>(c), s == 1};
        }
    }
    return std::nullopt;
}

Cycles
WorldSwitchEngine::save(PhysicalCpu &cpu, RegFile &save_area,
                        std::initializer_list<RegClass> classes,
                        Cycles t)
{
    // Resolve the sink once: the per-class tap lookup is an
    // out-of-line call the disabled path must not pay.
    TraceSink *sink = trace && trace->enabled() ? trace : nullptr;
    Cycles total = 0;
    for (RegClass cls : classes) {
        save_area.copyClassFrom(cpu.regs(), cls);
        const Cycles c = cm.cost(cls).save;
        if (sink) {
            sink->span(t + total, t + total + c, switchTap(cls, true),
                       TraceCat::Switch,
                       static_cast<std::uint16_t>(cpu.id()), c);
        }
        total += c;
    }
    return total;
}

Cycles
WorldSwitchEngine::restore(PhysicalCpu &cpu, const RegFile &save_area,
                           std::initializer_list<RegClass> classes,
                           Cycles t)
{
    TraceSink *sink = trace && trace->enabled() ? trace : nullptr;
    Cycles total = 0;
    for (RegClass cls : classes) {
        cpu.regs().copyClassFrom(save_area, cls);
        const Cycles c = cm.cost(cls).restore;
        if (sink) {
            sink->span(t + total, t + total + c,
                       switchTap(cls, false), TraceCat::Switch,
                       static_cast<std::uint16_t>(cpu.id()), c);
        }
        total += c;
    }
    return total;
}

} // namespace virtsim
