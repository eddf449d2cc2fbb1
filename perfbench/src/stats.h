// Order statistics over samples, and the JSON number/escape helpers the
// report writer shares.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] with linear interpolation between closest ranks
/// (the "type 7" estimator). 0 for an empty sample. Sorts a copy.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// A JSON string literal for `s` (quotes included).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
