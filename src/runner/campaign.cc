#include "runner/campaign.hh"

#include "common/logging.hh"
#include "corpus/corpus.hh"
#include "workloads/bugs.hh"
#include "workloads/emitter.hh"
#include "workloads/kernel.hh"

namespace act
{

namespace
{

/** fig7a: one invalid-deps job per prediction kernel. */
Campaign
fig7aCampaign()
{
    Campaign campaign;
    campaign.name = "fig7a";
    campaign.description =
        "Figure 7(a): misprediction on synthesised invalid dependences";
    for (const auto &name : predictionKernelNames()) {
        JobSpec job;
        job.id = static_cast<std::uint32_t>(campaign.jobs.size());
        job.kind = JobKind::kInvalidDeps;
        job.scheme = Scheme::kAct;
        job.workload = name;
        job.knobs.shuffle_seed = 0x7a; // The bench's historical seed.
        campaign.jobs.push_back(std::move(job));
    }
    return campaign;
}

/** table4: one swept prediction job per kernel. */
Campaign
table4Campaign()
{
    Campaign campaign;
    campaign.name = "table4";
    campaign.description =
        "Table IV: neural-network training (topology sweep + held-out "
        "false positives)";
    for (const auto &name : predictionKernelNames()) {
        JobSpec job;
        job.id = static_cast<std::uint32_t>(campaign.jobs.size());
        job.kind = JobKind::kPrediction;
        job.scheme = Scheme::kAct;
        job.workload = name;
        job.knobs.sweep_topology = true;
        campaign.jobs.push_back(std::move(job));
    }
    return campaign;
}

/** table4-ablation: three kernels x three encoders, no sweep. */
Campaign
table4AblationCampaign()
{
    Campaign campaign;
    campaign.name = "table4-ablation";
    campaign.description =
        "Table IV encoder ablation: pair vs dictionary vs hash";
    for (const char *kernel : {"lu", "canneal", "mcf"}) {
        for (const char *encoder : {"pair", "dictionary", "hash"}) {
            JobSpec job;
            job.id = static_cast<std::uint32_t>(campaign.jobs.size());
            job.kind = JobKind::kPrediction;
            job.scheme = Scheme::kAct;
            job.workload = kernel;
            job.knobs.encoder = encoder;
            campaign.jobs.push_back(std::move(job));
        }
    }
    return campaign;
}

/** table5: 11 real bugs x {ACT, Aviso, PBI}. */
Campaign
table5Campaign()
{
    Campaign campaign;
    campaign.name = "table5";
    campaign.description =
        "Table V: diagnosis of the 11 real bugs, ACT vs Aviso vs PBI";
    for (const auto &name : realBugNames()) {
        {
            JobSpec job;
            job.id = static_cast<std::uint32_t>(campaign.jobs.size());
            job.kind = JobKind::kDiagnoseAct;
            job.scheme = Scheme::kAct;
            job.workload = name;
            // Table V also reports the multi-detector ensemble columns
            // (per-detector + fused precision/recall) for the ACT cells.
            job.knobs.analyze = true;
            if (name == "mysql1") {
                // The paper: the buggy sequence is not in the default
                // 60-entry Debug Buffer; a larger one is needed.
                job.knobs.debug_buffer_entries = 400;
            }
            campaign.jobs.push_back(std::move(job));
        }
        {
            JobSpec job;
            job.id = static_cast<std::uint32_t>(campaign.jobs.size());
            job.kind = JobKind::kDiagnoseAviso;
            job.scheme = Scheme::kAviso;
            job.workload = name;
            campaign.jobs.push_back(std::move(job));
        }
        {
            JobSpec job;
            job.id = static_cast<std::uint32_t>(campaign.jobs.size());
            job.kind = JobKind::kDiagnosePbi;
            job.scheme = Scheme::kPbi;
            job.workload = name;
            if (name == "pbzip2") {
                // The consumer's emptiness check also implicates the
                // bug (see the original table5 bench).
                job.knobs.extra_root_pcs.push_back(
                    AddressMap(26).pc(12, 4));
            }
            campaign.jobs.push_back(std::move(job));
        }
    }
    return campaign;
}

/**
 * smoke: a fast mixed campaign for CI, cache exercises and the
 * determinism test. Twelve prediction cells (six kernels x two seed
 * offsets) plus one diagnosis cell per scheme on pbzip2, all with
 * dialled-down trace counts and epochs.
 */
Campaign
smokeCampaign()
{
    Campaign campaign;
    campaign.name = "smoke";
    campaign.description =
        "Small mixed campaign (~15 jobs, seconds each) covering every "
        "job kind";
    const std::vector<std::string> kernels = {"lu",      "fft",
                                              "ocean",   "canneal",
                                              "mcf",     "swaptions"};
    for (std::uint64_t offset = 0; offset < 2; ++offset) {
        for (const auto &kernel : kernels) {
            JobSpec job;
            job.id = static_cast<std::uint32_t>(campaign.jobs.size());
            job.kind = JobKind::kPrediction;
            job.scheme = Scheme::kAct;
            job.workload = kernel;
            job.seed = offset;
            // Trace-heavy, training-light: recording the traces is a
            // large share of each job, so a warm cache shows up in the
            // wall clock (the CI cache check depends on this).
            job.knobs.train_traces = 4;
            job.knobs.test_traces = 4;
            job.knobs.train_seed_base = 100 + offset * 1000;
            job.knobs.test_seed_base = 200 + offset * 1000;
            job.knobs.max_epochs = 12;
            job.knobs.max_examples = 2000;
            job.knobs.shuffle_seed = 0xbe4c + offset;
            campaign.jobs.push_back(std::move(job));
        }
    }
    {
        JobSpec job;
        job.id = static_cast<std::uint32_t>(campaign.jobs.size());
        job.kind = JobKind::kDiagnoseAct;
        job.scheme = Scheme::kAct;
        job.workload = "pbzip2";
        job.knobs.train_traces = 3;
        job.knobs.diagnosis_epochs = 60;
        job.knobs.diagnosis_max_examples = 6000;
        job.knobs.postmortem_traces = 4;
        campaign.jobs.push_back(std::move(job));
    }
    {
        JobSpec job;
        job.id = static_cast<std::uint32_t>(campaign.jobs.size());
        job.kind = JobKind::kDiagnoseAviso;
        job.scheme = Scheme::kAviso;
        job.workload = "pbzip2";
        job.knobs.baseline_correct_traces = 4;
        job.knobs.aviso_max_failures = 4;
        campaign.jobs.push_back(std::move(job));
    }
    {
        JobSpec job;
        job.id = static_cast<std::uint32_t>(campaign.jobs.size());
        job.kind = JobKind::kDiagnosePbi;
        job.scheme = Scheme::kPbi;
        job.workload = "pbzip2";
        job.knobs.baseline_correct_traces = 4;
        job.knobs.extra_root_pcs.push_back(AddressMap(26).pc(12, 4));
        campaign.jobs.push_back(std::move(job));
    }
    return campaign;
}

/**
 * table-resilience: graceful degradation under injected faults.
 *
 * Four diagnose-act cells on pbzip2 (smoke-sized knobs, so the rate-0
 * row reproduces the smoke diagnosis cell's oracle precision/recall
 * exactly) sweeping a uniform fault rate over every injection site.
 * Every cell is expected to complete and report.
 */
Campaign
resilienceCampaign()
{
    Campaign campaign;
    campaign.name = "table-resilience";
    campaign.description =
        "Resilience: diagnosis quality vs fault-injection rate";
    for (const double rate : {0.0, 0.002, 0.01, 0.05}) {
        JobSpec job;
        job.id = static_cast<std::uint32_t>(campaign.jobs.size());
        job.kind = JobKind::kResilience;
        job.scheme = Scheme::kAct;
        job.workload = "pbzip2";
        // Mirror the smoke diagnosis cell so rate 0 is its baseline.
        job.knobs.train_traces = 3;
        job.knobs.diagnosis_epochs = 60;
        job.knobs.diagnosis_max_examples = 6000;
        job.knobs.postmortem_traces = 4;
        job.knobs.fault_rate = rate;
        job.knobs.fault_seed = 0xfa117;
        campaign.jobs.push_back(std::move(job));
    }
    return campaign;
}

/**
 * table6-corpus: the pinned 32-variant slice of the seeded bug-injection
 * corpus, one kCorpus cell per variant. The slice is a pure function of
 * the master seed (0xc0ffee), so the job list — and with it the whole
 * report — is byte-identical across builds. `actgen list`/`gen` name
 * and materialise other slices (catalogs and failing traces), but only
 * this pinned slice runs as a campaign. Knobs are dialled down
 * smoke-style: corpus variants are small three-thread kernels, and the
 * sweep's power comes from variant count, not per-variant training
 * depth.
 */
Campaign
table6CorpusCampaign()
{
    Campaign campaign;
    campaign.name = "table6-corpus";
    campaign.description =
        "table6-corpus: 32 seeded bug-injection variants, per-class "
        "precision/recall vs ground-truth catalogs";
    for (const corpus::CorpusVariantDesc &desc :
         corpus::corpusSlice(corpus::kCorpusMasterSeed, 32)) {
        JobSpec job;
        job.id = static_cast<std::uint32_t>(campaign.jobs.size());
        job.kind = JobKind::kCorpus;
        job.scheme = Scheme::kAct;
        job.workload = corpus::corpusName(desc);
        job.knobs.train_traces = 4;
        job.knobs.diagnosis_epochs = 40;
        job.knobs.diagnosis_max_examples = 4000;
        job.knobs.postmortem_traces = 3;
        campaign.jobs.push_back(std::move(job));
    }
    return campaign;
}

/**
 * table-adaptivity: fault-hardening sweep for weight protection. The
 * paper's module (h=10) without protection (baseline) and with every
 * stored weight set guarded (protected), each swept over a
 * weight-concentrated bit-flip rate. Knobs mirror the smoke diagnosis
 * cell, so the baseline rate-0 row doubles as the smoke cell's
 * fault-free numbers. The acceptance bar: the protected configuration
 * loses strictly less `accuracy` than the baseline.
 */
Campaign
tableAdaptivityCampaign()
{
    Campaign campaign;
    campaign.name = "table-adaptivity";
    campaign.description =
        "Adaptivity: diagnosis accuracy vs stored-weight fault rate, "
        "baseline vs protected";
    for (const bool protect : {false, true}) {
        for (const double rate : {0.0, 0.002, 0.01, 0.05}) {
            JobSpec job;
            job.id = static_cast<std::uint32_t>(campaign.jobs.size());
            job.kind = JobKind::kAdaptivity;
            job.scheme = Scheme::kAct;
            job.workload = "pbzip2";
            // Mirror the smoke diagnosis cell so rate 0 is its baseline.
            job.knobs.train_traces = 3;
            job.knobs.diagnosis_epochs = 60;
            job.knobs.diagnosis_max_examples = 6000;
            job.knobs.postmortem_traces = 4;
            job.knobs.fault_rate = rate;
            job.knobs.fault_seed = 0xada97;
            job.knobs.protect_weights = protect;
            campaign.jobs.push_back(std::move(job));
        }
    }
    return campaign;
}

} // namespace

std::vector<std::string>
campaignNames()
{
    return {"fig7a", "table4", "table4-ablation", "table5",
            "table6-corpus", "table-resilience", "table-adaptivity",
            "smoke"};
}

bool
campaignExists(const std::string &name)
{
    for (const auto &known : campaignNames()) {
        if (known == name)
            return true;
    }
    return false;
}

Campaign
makeCampaign(const std::string &name)
{
    if (name == "fig7a")
        return fig7aCampaign();
    if (name == "table4")
        return table4Campaign();
    if (name == "table4-ablation")
        return table4AblationCampaign();
    if (name == "table5")
        return table5Campaign();
    if (name == "table6-corpus")
        return table6CorpusCampaign();
    if (name == "table-resilience")
        return resilienceCampaign();
    if (name == "table-adaptivity")
        return tableAdaptivityCampaign();
    if (name == "smoke")
        return smokeCampaign();
    ACT_FATAL("unknown campaign: " << name);
}

} // namespace act
