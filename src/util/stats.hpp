// Small descriptive-statistics helpers and an ASCII sparkline used by the
// report renderers to draw figure series inline.
#pragma once

#include <span>
#include <string>

namespace spfail::util {

double mean(std::span<const double> values);
// Population standard deviation; 0 for fewer than two values.
double stddev(std::span<const double> values);
// Linear-interpolated percentile, q in [0,1]. Throws on empty input.
double percentile(std::span<const double> values, double q);
double median(std::span<const double> values);

// A unicode block-character sparkline: "▁▂▃▅▇█". Values are scaled to the
// min..max of the series; an empty series renders as "".
std::string sparkline(std::span<const double> values);

}  // namespace spfail::util
