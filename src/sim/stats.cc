#include "sim/stats.hh"

#include <sstream>

namespace virtsim {

void
HistogramStat::reset()
{
    buckets.fill(0);
    _count = 0;
    _sum = 0;
    _min = UINT64_MAX;
    _max = 0;
}

std::string
HistogramStat::render() const
{
    std::ostringstream oss;
    oss << "n=" << _count;
    if (_count > 0) {
        oss << " min=" << _min << " mean=" << mean()
            << " max=" << _max;
    }
    return oss.str();
}

} // namespace virtsim
