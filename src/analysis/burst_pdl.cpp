#include "analysis/burst_pdl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "math/allocation.hpp"
#include "math/combin.hpp"
#include "placement/lrc.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlec {

namespace {

/// Iterate (key, value) pairs as per-key groups in ascending-key order,
/// preserving insertion order within a key; `fn(values)` returning false
/// stops the sweep. Deterministic replacement for hash-map grouping inside
/// the trial loops: group iteration feeds floating-point log-survival sums,
/// so its order must be a pure function of the trial inputs, never of the
/// standard library's hash layout.
template <typename T, typename Fn>
void for_each_group(std::vector<std::pair<std::size_t, T>>& grouped, std::vector<T>& scratch,
                    Fn&& fn) {
  std::stable_sort(grouped.begin(), grouped.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t begin = 0;
  while (begin < grouped.size()) {
    scratch.clear();
    std::size_t end = begin;
    while (end < grouped.size() && grouped[end].first == grouped[begin].first)
      scratch.push_back(grouped[end++].second);
    if (!fn(scratch)) return;
    begin = end;
  }
}

}  // namespace

double saturating_loss(double per_stripe, double stripes) {
  if (per_stripe <= 0.0 || stripes <= 0.0) return 0.0;
  if (per_stripe >= 1.0) return 1.0;
  return -std::expm1(stripes * std::log1p(-per_stripe));
}

double prob_no_pool_reaches(std::size_t pools, std::size_t pool_size, std::size_t failures,
                            std::size_t threshold) {
  MLEC_REQUIRE(pools >= 1 && pool_size >= 1, "pool geometry must be non-empty");
  if (failures == 0) return 1.0;
  if (threshold == 0) return 0.0;
  MLEC_REQUIRE(failures <= pools * pool_size, "more failures than disks");
  // Exact fast paths keep provably-safe cells at literally 0/1 (no floating
  // dust): with fewer failures than the threshold no pool can reach it.
  if (failures < threshold) return 1.0;
  const std::size_t per_pool_max = std::min(pool_size, threshold - 1);
  if (failures > pools * per_pool_max) return 0.0;

  // Ways to place the failures with every pool below the threshold, divided
  // by all ways. Linear-domain DP is safe: values stay below C(n, f) which
  // fits a double for the topologies in scope.
  std::vector<double> ways(failures + 1, 0.0);
  ways[0] = 1.0;
  for (std::size_t pool = 0; pool < pools; ++pool) {
    for (std::size_t j = failures; j + 1 > 0; --j) {
      double acc = 0.0;
      for (std::size_t a = 0; a <= std::min(per_pool_max, j); ++a)
        acc += choose(static_cast<std::int64_t>(pool_size), static_cast<std::int64_t>(a)) *
               ways[j - a];
      ways[j] = acc;
      if (j == 0) break;
    }
  }
  const double total = choose(static_cast<std::int64_t>(pools * pool_size),
                              static_cast<std::int64_t>(failures));
  MLEC_ASSERT(total > 0.0);
  return std::min(1.0, ways[failures] / total);
}

double random_rack_choice_tail(const std::vector<double>& prob, std::size_t total,
                               std::size_t choose_racks, std::size_t threshold) {
  MLEC_REQUIRE(choose_racks <= total, "cannot choose more racks than exist");
  const std::size_t affected = prob.size();
  MLEC_REQUIRE(affected <= total, "more per-rack probabilities than racks");
  if (threshold == 0) return 1.0;
  if (threshold > choose_racks) return 0.0;

  // dp[t][l]: over processed affected racks, combinatorially-weighted
  // probability mass of choosing t of them with l losses (l saturating).
  const std::size_t tmax = std::min(choose_racks, affected);
  std::vector<std::vector<double>> dp(tmax + 1, std::vector<double>(threshold + 1, 0.0));
  dp[0][0] = 1.0;
  std::size_t processed = 0;
  for (double pr : prob) {
    ++processed;
    const std::size_t tcap = std::min(processed, tmax);
    for (std::size_t t = tcap; t + 1 > 0; --t) {
      for (std::size_t l = threshold; l + 1 > 0; --l) {
        double from_choose = 0.0;
        if (t > 0) {
          // Chosen: loss with pr, survive with 1-pr.
          const double stay = dp[t - 1][l] * (1.0 - pr);
          const double lose = l > 0 ? dp[t - 1][l - 1] * pr : 0.0;
          const double lose_sat = l == threshold ? dp[t - 1][l] * pr : 0.0;
          from_choose = stay + lose + lose_sat;
        }
        dp[t][l] = (t <= processed - 1 ? dp[t][l] : 0.0) + from_choose;
        if (l == 0) break;
      }
      if (t == 0) break;
    }
  }

  const std::size_t unaffected = total - affected;
  double numer = 0.0;
  for (std::size_t t = 0; t <= tmax; ++t) {
    if (choose_racks - t > unaffected) continue;
    numer += dp[t][threshold] * choose(static_cast<std::int64_t>(unaffected),
                                       static_cast<std::int64_t>(choose_racks - t));
  }
  const double denom =
      choose(static_cast<std::int64_t>(total), static_cast<std::int64_t>(choose_racks));
  return std::min(1.0, numer / denom);
}

namespace {

/// Per-failure-count lookup of hypergeom_tail_geq(population, f, draws, t).
std::vector<double> tail_table(std::size_t max_f, std::size_t population, std::size_t draws,
                               std::size_t threshold) {
  std::vector<double> tab(max_f + 1, 0.0);
  for (std::size_t f = 0; f <= max_f; ++f)
    tab[f] = hypergeom_tail_geq(static_cast<std::int64_t>(population),
                                static_cast<std::int64_t>(f), static_cast<std::int64_t>(draws),
                                static_cast<std::int64_t>(threshold));
  return tab;
}

std::uint64_t cell_seed(std::uint64_t base, std::size_t x, std::size_t y, std::uint64_t salt) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL * (x + 1)) ^ (0xc2b2ae3d27d4eb4fULL * (y + 1)) ^
                    salt;
  return splitmix64(s);
}

}  // namespace

BurstPdlEngine::BurstPdlEngine(BurstPdlConfig config) : config_(config) {
  config_.dc.validate();
  MLEC_REQUIRE(config_.trials_per_cell >= 1, "need at least one trial per cell");
}

double BurstPdlEngine::mlec_cell(const MlecCode& code, MlecScheme scheme, std::size_t racks,
                                 std::size_t failures) const {
  const auto& dc = config_.dc;
  MLEC_REQUIRE(racks >= 1 && racks <= dc.racks, "rack count out of range");
  if (failures < racks) return 0.0;  // infeasible burst: every rack needs a failure
  MLEC_REQUIRE(failures <= racks * dc.disks_per_rack(), "more failures than disks");

  const PoolLayout layout(dc, code, scheme);
  const std::size_t D = dc.disks_per_rack();
  const std::size_t width = code.local_width();
  const std::size_t pl1 = code.local.p + 1;
  const std::size_t pn1 = code.network.p + 1;
  const std::size_t net_width = code.network_width();
  const std::size_t pools_per_rack = layout.local_pools_per_rack();
  const bool local_clustered = local_placement(scheme) == Placement::kClustered;
  const bool network_clustered = network_placement(scheme) == Placement::kClustered;
  const std::size_t enclosures = dc.enclosures_per_rack;
  const std::size_t enc_disks = dc.disks_per_enclosure;

  const BurstAllocationSampler alloc(D, racks, failures);
  Rng rng(cell_seed(config_.seed, racks, failures, static_cast<std::uint64_t>(scheme)));

  // Per-failure-count lookups (f <= failures).
  std::vector<double> q_tab;    // specific Cp pool in rack catastrophic
  std::vector<double> rho_tab;  // rack has >= 1 catastrophic Cp pool
  std::vector<double> pi_tab;   // per-stripe loss in a Dp pool with f failures
  // Dp locals, marginalized over how a rack's f failures scatter across its
  // enclosures (hypergeometric): the alignment rarity is integrated
  // analytically instead of sampled, keeping the estimator low-variance.
  std::vector<double> enc_align_tab;  // P(one enclosure holds >= p_l+1 | f)
  std::vector<double> enc_pi_cond_tab;   // E[pi | enclosure >= p_l+1]
  std::vector<double> enc_pi_mean_tab;   // E[pi] over enclosure counts
  if (local_clustered) {
    q_tab = tail_table(failures, D, width, pl1);
    if (!network_clustered) {
      rho_tab.resize(failures + 1);
      for (std::size_t f = 0; f <= failures; ++f)
        rho_tab[f] = 1.0 - prob_no_pool_reaches(pools_per_rack, width, f, pl1);
    }
  } else {
    pi_tab = tail_table(std::min(failures, enc_disks), enc_disks, width, pl1);
    enc_align_tab.assign(failures + 1, 0.0);
    enc_pi_cond_tab.assign(failures + 1, 0.0);
    enc_pi_mean_tab.assign(failures + 1, 0.0);
    for (std::size_t f = 0; f <= failures; ++f) {
      double align = 0.0, mass = 0.0, mean = 0.0;
      for (std::size_t c = 1; c <= std::min(f, enc_disks); ++c) {
        const double pc = hypergeom_pmf(static_cast<std::int64_t>(D),
                                        static_cast<std::int64_t>(f),
                                        static_cast<std::int64_t>(enc_disks),
                                        static_cast<std::int64_t>(c));
        const double pi = pi_tab[std::min(c, pi_tab.size() - 1)];
        mean += pc * pi;
        if (c >= pl1) {
          align += pc;
          mass += pc * pi;
        }
      }
      enc_align_tab[f] = align;
      enc_pi_cond_tab[f] = align > 0.0 ? mass / align : 0.0;
      enc_pi_mean_tab[f] = mean;
    }
  }

  // Network-declustered: per-stripe loss probability when j racks carry one
  // catastrophic clustered pool each.
  std::vector<double> dc_ps_tab;
  if (!network_clustered && local_clustered) {
    dc_ps_tab.resize(racks + 1, 0.0);
    for (std::size_t j = pn1; j <= racks; ++j) {
      const std::vector<double> marked(j, 1.0 / static_cast<double>(pools_per_rack));
      dc_ps_tab[j] = random_rack_choice_tail(marked, dc.racks, net_width, pn1);
    }
  }

  const double stripes_total = layout.total_network_stripes();
  const double stripes_per_pool = layout.network_stripes_per_pool();

  double pdl_sum = 0.0;
  std::vector<double> group_probs;
  std::vector<std::pair<std::size_t, double>> grouped_probs;
  std::vector<std::pair<std::size_t, std::size_t>> grouped_counts;
  std::vector<std::size_t> group_counts_scratch;
  for (std::size_t trial = 0; trial < config_.trials_per_cell; ++trial) {
    const auto counts = alloc.sample(racks, failures, rng);
    const auto rack_ids = rng.sample_without_replacement(dc.racks, racks);

    double pdl_trial = 0.0;
    if (network_clustered && local_clustered) {
      // C/C: per group, each of the pools_per_rack positions loses iff >=
      // p_n+1 of its member pools (one per rack, slot probability q) are
      // catastrophic.
      grouped_probs.clear();
      for (std::size_t i = 0; i < racks; ++i)
        grouped_probs.emplace_back(rack_ids[i] / net_width, q_tab[counts[i]]);
      double log_survival = 0.0;
      for_each_group(grouped_probs, group_probs, [&](const std::vector<double>& probs) {
        const double s = poisson_binomial_tail_geq(probs, static_cast<std::int64_t>(pn1));
        if (s >= 1.0) {
          log_survival = -std::numeric_limits<double>::infinity();
          return false;
        }
        log_survival += static_cast<double>(pools_per_rack) * std::log1p(-s);
        return true;
      });
      pdl_trial = -std::expm1(log_survival);
    } else if (network_clustered && !local_clustered) {
      // C/D: one Dp pool per enclosure; a network pool is (group, enclosure
      // position). Data loss at one position needs >= p_n+1 member racks
      // with a heavy enclosure (>= p_l+1 failures) at that position AND a
      // network stripe whose local stripes are among the lost ones. Both
      // the alignment probability and the conditional stripe loss are
      // computed analytically from the per-rack failure counts.
      grouped_counts.clear();
      for (std::size_t i = 0; i < racks; ++i)
        grouped_counts.emplace_back(rack_ids[i] / net_width, counts[i]);
      double log_survival = 0.0;
      for_each_group(grouped_counts, group_counts_scratch,
                     [&](const std::vector<std::size_t>& group_counts) {
        group_probs.clear();
        double pi_weighted = 0.0, weight = 0.0;
        for (std::size_t f : group_counts) {
          const double a = enc_align_tab[f];
          if (a <= 0.0) continue;
          group_probs.push_back(a);
          pi_weighted += a * enc_pi_cond_tab[f];
          weight += a;
        }
        if (group_probs.size() < pn1) return true;
        const double q = poisson_binomial_tail_geq(group_probs, static_cast<std::int64_t>(pn1));
        if (q <= 0.0) return true;
        const double pi_typ = pi_weighted / weight;
        const double cond_loss =
            saturating_loss(std::pow(pi_typ, static_cast<double>(pn1)), stripes_per_pool);
        const double position_loss = q * cond_loss;
        if (position_loss >= 1.0) {
          log_survival = -std::numeric_limits<double>::infinity();
          return false;
        }
        log_survival += static_cast<double>(enclosures) * std::log1p(-position_loss);
        return true;
      });
      pdl_trial = -std::expm1(log_survival);
    } else if (!network_clustered && local_clustered) {
      // D/C: data loss needs >= p_n+1 racks with a catastrophic pool plus a
      // network stripe covering them; the coverage factor saturates with the
      // realistic stripe count but is kept for small systems.
      std::vector<double> rhos(racks);
      for (std::size_t i = 0; i < racks; ++i) rhos[i] = rho_tab[counts[i]];
      const auto pmf = poisson_binomial_pmf(rhos);
      for (std::size_t j = pn1; j < pmf.size(); ++j)
        pdl_trial += pmf[j] * saturating_loss(dc_ps_tab[j], stripes_total);
    } else {
      // D/D: per-stripe loss probability via the random-rack-choice DP. The
      // DP is multilinear in the per-rack loss probabilities, so the
      // enclosure-count randomness integrates exactly into the marginal
      // E[pi | f_r].
      std::vector<double> mean_pi(racks);
      for (std::size_t i = 0; i < racks; ++i) mean_pi[i] = enc_pi_mean_tab[counts[i]];
      const double ps = random_rack_choice_tail(mean_pi, dc.racks, net_width, pn1);
      pdl_trial = saturating_loss(ps, stripes_total);
    }
    pdl_sum += pdl_trial;
  }
  return pdl_sum / static_cast<double>(config_.trials_per_cell);
}

double BurstPdlEngine::slec_cell(const SlecCode& code, SlecScheme scheme, std::size_t racks,
                                 std::size_t failures) const {
  const auto& dc = config_.dc;
  MLEC_REQUIRE(racks >= 1 && racks <= dc.racks, "rack count out of range");
  if (failures < racks) return 0.0;
  MLEC_REQUIRE(failures <= racks * dc.disks_per_rack(), "more failures than disks");

  const SlecLayout layout(dc, code, scheme);
  const std::size_t D = dc.disks_per_rack();
  const std::size_t width = code.width();
  const std::size_t p1 = code.p + 1;
  const std::size_t enclosures = dc.enclosures_per_rack;
  const std::size_t enc_disks = dc.disks_per_enclosure;

  const BurstAllocationSampler alloc(D, racks, failures);
  Rng rng(cell_seed(config_.seed, racks, failures,
                    0x51ec0000ULL + (static_cast<std::uint64_t>(scheme.domain) << 1) +
                        static_cast<std::uint64_t>(scheme.placement)));

  const double stripes_total = layout.total_stripes();
  const double stripes_per_enclosure =
      stripes_total / static_cast<double>(dc.total_enclosures());

  std::vector<double> rho_tab;       // Loc-Cp: rack has a pool over threshold
  std::vector<double> enc_loss_tab;  // Loc-Dp: E[enclosure data-loss prob | f]
  if (scheme.domain == SlecDomain::kLocal) {
    if (scheme.placement == Placement::kClustered) {
      rho_tab.resize(failures + 1);
      for (std::size_t f = 0; f <= failures; ++f)
        rho_tab[f] = 1.0 - prob_no_pool_reaches(D / width, width, f, p1);
    } else {
      // Marginalize the enclosure count analytically: E over the
      // hypergeometric count c of P(some stripe in the enclosure is lost).
      const auto pi_tab = tail_table(std::min(failures, enc_disks), enc_disks, width, p1);
      enc_loss_tab.assign(failures + 1, 0.0);
      for (std::size_t f = 0; f <= failures; ++f) {
        double loss = 0.0;
        for (std::size_t c = p1; c <= std::min(f, enc_disks); ++c) {
          const double pc = hypergeom_pmf(static_cast<std::int64_t>(D),
                                          static_cast<std::int64_t>(f),
                                          static_cast<std::int64_t>(enc_disks),
                                          static_cast<std::int64_t>(c));
          loss += pc * saturating_loss(pi_tab[std::min(c, pi_tab.size() - 1)],
                                       stripes_per_enclosure);
        }
        enc_loss_tab[f] = std::min(1.0, loss);
      }
    }
  }

  double pdl_sum = 0.0;
  std::vector<double> group_probs;
  std::vector<std::pair<std::size_t, double>> grouped_probs;
  for (std::size_t trial = 0; trial < config_.trials_per_cell; ++trial) {
    const auto counts = alloc.sample(racks, failures, rng);
    const auto rack_ids = rng.sample_without_replacement(dc.racks, racks);

    double pdl_trial = 0.0;
    if (scheme.domain == SlecDomain::kLocal) {
      if (scheme.placement == Placement::kClustered) {
        double log_survival = 0.0;
        for (std::size_t i = 0; i < racks; ++i) log_survival += std::log1p(-rho_tab[counts[i]]);
        pdl_trial = -std::expm1(log_survival);
      } else {
        double log_survival = 0.0;
        for (std::size_t i = 0; i < racks; ++i) {
          const double loss = enc_loss_tab[counts[i]];
          if (loss >= 1.0) {
            log_survival = -std::numeric_limits<double>::infinity();
            break;
          }
          log_survival += static_cast<double>(enclosures) * std::log1p(-loss);
        }
        pdl_trial = -std::expm1(log_survival);
      }
    } else if (scheme.placement == Placement::kClustered) {
      // Net-Cp: pools are disk positions repeated across each group's racks.
      grouped_probs.clear();
      for (std::size_t i = 0; i < racks; ++i)
        grouped_probs.emplace_back(rack_ids[i] / width, static_cast<double>(counts[i]) /
                                                            static_cast<double>(D));
      double log_survival = 0.0;
      for_each_group(grouped_probs, group_probs, [&](const std::vector<double>& probs) {
        const double ppos = poisson_binomial_tail_geq(probs, static_cast<std::int64_t>(p1));
        if (ppos >= 1.0) {
          log_survival = -std::numeric_limits<double>::infinity();
          return false;
        }
        log_survival += static_cast<double>(D) * std::log1p(-ppos);
        return true;
      });
      pdl_trial = -std::expm1(log_survival);
    } else {
      // Net-Dp: each chunk in a random rack; per-rack chunk-loss f/D.
      std::vector<double> probs(racks);
      for (std::size_t i = 0; i < racks; ++i)
        probs[i] = static_cast<double>(counts[i]) / static_cast<double>(D);
      const double ps = random_rack_choice_tail(probs, dc.racks, width, p1);
      pdl_trial = saturating_loss(ps, stripes_total);
    }
    pdl_sum += pdl_trial;
  }
  return pdl_sum / static_cast<double>(config_.trials_per_cell);
}

double BurstPdlEngine::lrc_cell(const LrcCode& code, std::size_t racks,
                                std::size_t failures) const {
  const auto& dc = config_.dc;
  MLEC_REQUIRE(racks >= 1 && racks <= dc.racks, "rack count out of range");
  if (failures < racks) return 0.0;
  MLEC_REQUIRE(failures <= racks * dc.disks_per_rack(), "more failures than disks");
  code.validate();
  const std::size_t width = code.width();
  MLEC_REQUIRE(width <= dc.racks, "LRC-Dp needs a rack per chunk");

  const std::size_t D = dc.disks_per_rack();
  const LrcStripeShape shape(code);
  const BurstAllocationSampler alloc(D, racks, failures);
  Rng rng(cell_seed(config_.seed, racks, failures, 0x19c00000ULL));

  const double total_chunks = static_cast<double>(dc.total_disks()) * dc.chunks_per_disk();
  const double stripes_total = total_chunks / static_cast<double>(width);
  // Inner placements averaged per trial; the unrecoverability evaluation
  // itself is analytic, so a modest count suffices.
  const std::size_t placements = 32;

  double pdl_sum = 0.0;
  std::vector<double> u_all(dc.racks, 0.0);
  std::vector<double> chunk_loss(width);
  for (std::size_t trial = 0; trial < config_.trials_per_cell; ++trial) {
    const auto counts = alloc.sample(racks, failures, rng);
    const auto rack_ids = rng.sample_without_replacement(dc.racks, racks);
    std::fill(u_all.begin(), u_all.end(), 0.0);
    for (std::size_t i = 0; i < racks; ++i)
      u_all[rack_ids[i]] = static_cast<double>(counts[i]) / static_cast<double>(D);

    double ps_sum = 0.0;
    for (std::size_t a = 0; a < placements; ++a) {
      const auto chunk_racks = rng.sample_without_replacement(dc.racks, width);
      // Residual erasures after local-group absorption must exceed r.
      for (std::size_t c = 0; c < width; ++c) chunk_loss[c] = u_all[chunk_racks[c]];
      ps_sum += shape.residual_distribution(chunk_loss).tail_geq(code.r + 1);
    }
    pdl_sum += saturating_loss(ps_sum / static_cast<double>(placements), stripes_total);
  }
  return pdl_sum / static_cast<double>(config_.trials_per_cell);
}

template <typename CellFn>
BurstHeatmap BurstPdlEngine::sweep(std::size_t step, std::size_t max_racks,
                                   std::size_t max_failures, ThreadPool* pool,
                                   StopToken stop, CellFn&& cell) const {
  MLEC_REQUIRE(step >= 1, "step must be positive");
  BurstHeatmap map;
  // Always include the smallest rack counts: the paper's hottest column sits
  // at x = p_n+1, which a coarse stride would miss.
  for (std::size_t x = 1; x <= std::min<std::size_t>(max_racks, 5); ++x)
    if (x % step != 0) map.x_labels.push_back(static_cast<int>(x));
  for (std::size_t x = step; x <= max_racks; x += step) map.x_labels.push_back(static_cast<int>(x));
  std::sort(map.x_labels.begin(), map.x_labels.end());
  for (std::size_t y = max_failures; y >= step; y -= step)
    map.y_labels.push_back(static_cast<int>(y));
  map.values.assign(map.y_labels.size(), std::vector<double>(map.x_labels.size(), 0.0));

  const std::size_t cells = map.x_labels.size() * map.y_labels.size();
  auto run_cell = [&](std::size_t i) {
    if (stop.stop_requested()) {
      map.truncated = true;  // benign write race: only ever set to true
      return;
    }
    const std::size_t yi = i / map.x_labels.size();
    const std::size_t xi = i % map.x_labels.size();
    map.values[yi][xi] = cell(static_cast<std::size_t>(map.x_labels[xi]),
                              static_cast<std::size_t>(map.y_labels[yi]));
  };
  if (pool != nullptr) {
    pool->parallel_for(0, cells, run_cell, stop);
  } else {
    for (std::size_t i = 0; i < cells; ++i) run_cell(i);
  }
  return map;
}

BurstHeatmap BurstPdlEngine::mlec_heatmap(const MlecCode& code, MlecScheme scheme,
                                          std::size_t step, std::size_t max_racks,
                                          std::size_t max_failures, ThreadPool* pool,
                                          StopToken stop) const {
  return sweep(step, max_racks, max_failures, pool, std::move(stop),
               [&](std::size_t x, std::size_t y) { return mlec_cell(code, scheme, x, y); });
}

BurstHeatmap BurstPdlEngine::slec_heatmap(const SlecCode& code, SlecScheme scheme,
                                          std::size_t step, std::size_t max_racks,
                                          std::size_t max_failures, ThreadPool* pool,
                                          StopToken stop) const {
  return sweep(step, max_racks, max_failures, pool, std::move(stop),
               [&](std::size_t x, std::size_t y) { return slec_cell(code, scheme, x, y); });
}

BurstHeatmap BurstPdlEngine::lrc_heatmap(const LrcCode& code, std::size_t step,
                                         std::size_t max_racks, std::size_t max_failures,
                                         ThreadPool* pool, StopToken stop) const {
  return sweep(step, max_racks, max_failures, pool, std::move(stop),
               [&](std::size_t x, std::size_t y) { return lrc_cell(code, x, y); });
}

}  // namespace mlec
