/**
 * @file
 * Ablation: what weight protection buys.
 *
 * The table-adaptivity campaign sweeps one bug (pbzip2) with one fault
 * seed and one failure seed, so a single cell decides each of its
 * numbers. This bench runs the same kAdaptivity job over every Table V
 * bug, three fault seeds, two failure seeds and the campaign's four
 * stored-weight fault rates, for the paper's network with and without
 * protection, and summarises each configuration over its 66 (bug,
 * fault seed, failure seed) triples:
 *
 *  - clean accuracy and clean diagnoses, at rate 0;
 *  - the clean cells' mean root rank over the diagnosed triples, and
 *    how many of them rank the root first;
 *  - worst-case loss: the clean accuracy minus the lowest accuracy over
 *    the nonzero rates (the campaign's headline), averaged;
 *  - diagnosed at the worst rate: triples still diagnosed in the cell
 *    where their accuracy is lowest;
 *  - the worst-case loss of the campaign's own triple (pbzip2, fault
 *    seed 0xada97, failure seed 999).
 *
 * Knobs mirror table-adaptivity (3 training traces, 60 epochs, 6,000
 * examples, 4 postmortem traces), with table5's 400-entry Debug Buffer
 * for mysql1.
 */

#include <array>

#include "bench/bench_util.hh"

#include "runner/campaign.hh"
#include "runner/runner.hh"

namespace act
{
namespace
{

using bench::format;

struct Config
{
    const char *name;
    bool protect;
};

constexpr std::array kConfigs = {
    Config{"K=1 h=10", false},
    Config{"K=1 h=10 +prot", true},
};
constexpr std::array<std::uint64_t, 3> kFaultSeeds = {0xada97, 2, 3};
constexpr std::array<std::uint64_t, 2> kFailureSeeds = {999, 1234};
constexpr std::array kRates = {0.0, 0.002, 0.01, 0.05};

void
run()
{
    bench::banner("Ablation: adaptivity mechanisms",
                  "no paper table (weight protection vs the paper's "
                  "network)");

    Campaign campaign;
    campaign.name = "ablation-adaptivity";
    const std::vector<std::string> bugs = realBugNames();
    for (const Config &config : kConfigs) {
        for (const std::string &bug : bugs) {
            for (const std::uint64_t fault_seed : kFaultSeeds) {
                for (const std::uint64_t failure_seed : kFailureSeeds) {
                    for (const double rate : kRates) {
                        JobSpec job;
                        job.id = static_cast<std::uint32_t>(
                            campaign.jobs.size());
                        job.kind = JobKind::kAdaptivity;
                        job.scheme = Scheme::kAct;
                        job.workload = bug;
                        job.knobs.train_traces = 3;
                        job.knobs.diagnosis_epochs = 60;
                        job.knobs.diagnosis_max_examples = 6000;
                        job.knobs.postmortem_traces = 4;
                        if (bug == "mysql1")
                            job.knobs.debug_buffer_entries = 400;
                        job.knobs.failure_seed = failure_seed;
                        job.knobs.fault_seed = fault_seed;
                        job.knobs.fault_rate = rate;
                        job.knobs.protect_weights = config.protect;
                        campaign.jobs.push_back(std::move(job));
                    }
                }
            }
        }
    }
    const CampaignRunResult outcome =
        runCampaign(campaign, bench::campaignRunOptions());

    const bench::Table table({16, 11, 10, 11, 8, 12, 10, 8});
    table.row({"config", "clean acc", "clean dx", "mean rank", "rank-1",
               "worst loss", "dx@worst", "pinned"});
    table.rule();
    std::size_t next = 0;
    for (const Config &config : kConfigs) {
        double clean_sum = 0.0, loss_sum = 0.0, pinned = 0.0;
        double rank_sum = 0.0;
        std::size_t clean_dx = 0, worst_dx = 0, triples = 0, failed = 0;
        std::size_t rank_one = 0;
        for (const std::string &bug : bugs) {
            for (const std::uint64_t fault_seed : kFaultSeeds) {
                for (const std::uint64_t failure_seed : kFailureSeeds) {
                    // One triple: its cells are contiguous, clean first.
                    double clean = 0.0, worst = 2.0;
                    bool clean_diagnosed = false, worst_diagnosed = false;
                    for (const double rate : kRates) {
                        const JobResult &cell = outcome.results[next++];
                        if (!cell.ok) {
                            ++failed;
                            continue;
                        }
                        const double accuracy = cell.metrics.at("accuracy");
                        const bool diagnosed =
                            cell.metrics.at("diagnosed") > 0.0;
                        if (rate == 0.0) {
                            clean = accuracy;
                            clean_diagnosed = diagnosed;
                            if (diagnosed) {
                                const double rank = cell.metrics.at("rank");
                                rank_sum += rank;
                                rank_one += rank == 1.0 ? 1 : 0;
                            }
                        } else if (accuracy < worst) {
                            worst = accuracy;
                            worst_diagnosed = diagnosed;
                        }
                    }
                    if (worst > 1.0)
                        worst = clean; // No nonzero-rate cell ran.
                    ++triples;
                    clean_sum += clean;
                    loss_sum += clean - worst;
                    clean_dx += clean_diagnosed ? 1 : 0;
                    worst_dx += worst_diagnosed ? 1 : 0;
                    if (bug == "pbzip2" && fault_seed == 0xada97 &&
                        failure_seed == 999) {
                        pinned = clean - worst;
                    }
                }
            }
        }
        table.row({config.name,
                   format("%.3f", clean_sum / static_cast<double>(triples)),
                   format("%zu/%zu", clean_dx, triples),
                   clean_dx == 0
                       ? std::string("-")
                       : format("%.2f",
                                rank_sum / static_cast<double>(clean_dx)),
                   format("%zu", rank_one),
                   format("%.3f", loss_sum / static_cast<double>(triples)),
                   format("%zu/%zu", worst_dx, triples),
                   format("%.3f", pinned)});
        if (failed != 0)
            std::printf("  (%zu failed cells in %s)\n", failed, config.name);
    }
    std::printf("\n%zu cells: %zu bugs x %zu fault seeds x %zu failure "
                "seeds x %zu rates x %zu configurations\n",
                campaign.jobs.size(), bugs.size(), kFaultSeeds.size(),
                kFailureSeeds.size(), kRates.size(), kConfigs.size());
    bench::printRunSummary(outcome);
}

} // namespace
} // namespace act

int
main()
{
    act::registerAllWorkloads();
    act::run();
    return 0;
}
