/**
 * @file
 * Built-in experiment campaigns.
 *
 * A campaign is a declarative job list; the figure/table benches that
 * used to hand-roll their sweeps are now one campaign each plus a
 * table-printing main. `smoke` is a deliberately small mixed campaign
 * (every scheme represented, seconds per job) used by CI and the
 * determinism test.
 */

#ifndef ACT_RUNNER_CAMPAIGN_HH
#define ACT_RUNNER_CAMPAIGN_HH

#include <string>
#include <vector>

#include "runner/job.hh"

namespace act
{

/** Names of the built-in campaigns, in listing order. */
std::vector<std::string> campaignNames();

/**
 * Build a named campaign. Requires registerAllWorkloads() to have run.
 * Panics on an unknown name; check campaignNames() first.
 */
Campaign makeCampaign(const std::string &name);

bool campaignExists(const std::string &name);

} // namespace act

#endif // ACT_RUNNER_CAMPAIGN_HH
