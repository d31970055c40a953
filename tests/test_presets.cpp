#include "core/presets.h"

#include <gtest/gtest.h>

#include "core/synthesizer.h"
#include "graph/metrics.h"

namespace cold {
namespace {

// Each preset must land in its advertised region of metric space; this is
// the contract users rely on when picking a preset.
struct StyleExpectation {
  NetworkStyle style;
  double min_cvnd, max_cvnd;
  double min_degree, max_degree;
};

class PresetBehaviour : public ::testing::TestWithParam<StyleExpectation> {};

TEST_P(PresetBehaviour, MetricsLandInAdvertisedRegion) {
  const StyleExpectation e = GetParam();
  SynthesisConfig cfg;
  cfg.context.num_pops = 24;
  cfg.costs = preset_costs(e.style);
  cfg.ga.population = 32;
  cfg.ga.generations = 24;
  const Synthesizer synth(cfg);
  double cvnd = 0.0, degree = 0.0;
  const std::size_t seeds = 3;
  for (std::size_t s = 0; s < seeds; ++s) {
    const TopologyMetrics m =
        compute_metrics(synth.synthesize(10 + s).network.topology);
    EXPECT_TRUE(m.connected);
    cvnd += m.degree_cv / seeds;
    degree += m.avg_degree / seeds;
  }
  EXPECT_GE(cvnd, e.min_cvnd) << to_string(e.style);
  EXPECT_LE(cvnd, e.max_cvnd) << to_string(e.style);
  EXPECT_GE(degree, e.min_degree) << to_string(e.style);
  EXPECT_LE(degree, e.max_degree) << to_string(e.style);
}

INSTANTIATE_TEST_SUITE_P(
    Styles, PresetBehaviour,
    ::testing::Values(
        StyleExpectation{NetworkStyle::kTree, 0.0, 1.7, 1.8, 2.05},
        StyleExpectation{NetworkStyle::kHubAndSpoke, 1.8, 3.0, 1.8, 2.1},
        StyleExpectation{NetworkStyle::kRegional, 0.8, 2.2, 1.9, 2.6},
        StyleExpectation{NetworkStyle::kBalanced, 0.6, 1.8, 1.9, 3.0},
        StyleExpectation{NetworkStyle::kMesh, 0.3, 1.2, 2.8, 8.0}),
    [](const ::testing::TestParamInfo<StyleExpectation>& info) {
      std::string name = to_string(info.param.style);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cold
