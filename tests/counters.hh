/**
 * @file
 * Test helper: read a metrics-domain counter by name.
 */

#ifndef VIRTSIM_TESTS_COUNTERS_HH
#define VIRTSIM_TESTS_COUNTERS_HH

#include <cstdint>
#include <string_view>

#include "hw/machine.hh"
#include "sim/probe.hh"

namespace virtsim {

/** Value of the named counter in a domain; 0 if never counted. A
 *  read does not register the tap, so it adds no snapshot row. */
inline std::uint64_t
countOf(const MetricsDomain &dom, std::string_view name)
{
    return dom.value(internTap(name));
}

/** Value of the named counter in a machine's machine domain. */
inline std::uint64_t
countOf(Machine &m, std::string_view name)
{
    return countOf(m.metrics().machine(), name);
}

} // namespace virtsim

#endif // VIRTSIM_TESTS_COUNTERS_HH
