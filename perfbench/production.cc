/**
 * @file
 * `production` workload: the monitored production run that Figure 8's
 * overhead prices. Set-up trains weights for every prediction kernel
 * with a fixed, reduced recipe (the `fig8_overhead_mini` shape) and
 * records one long correct run per kernel. The timed part runs each
 * trace through System::run on the baseline machine and on the ACT
 * machine, single-threaded; every run builds a fresh System, so the
 * modelled caches start empty, as in fig8.
 */

#include <optional>
#include <span>

#include "bench.hh"
#include "host_speed.hh"
#include "diagnosis/pipeline.hh"
#include "workloads/kernel.hh"

namespace act::perfbench
{

namespace
{

/** Work multiplier of the recorded production runs. */
constexpr std::uint32_t kScale = 24;

/**
 * How strongly a production run slows with the host (host_speed.hh):
 * the simulator slows less than the reference loop's random reads when
 * the neighbours load the memory system (README, Host-speed correction).
 */
constexpr double kSensitivity = 0.6;

/** One prediction kernel, trained and recorded. */
struct Kernel
{
    std::string name;
    std::uint32_t threads = 0;
    TrainedModel model;
    Trace trace;
};

/** What one kernel's pair of runs produced; must repeat exactly. */
struct Outcome
{
    Cycle base_cycles = 0;
    Cycle act_cycles = 0;
    ActModuleStats act;

    bool
    operator==(const Outcome &o) const
    {
        return base_cycles == o.base_cycles && act_cycles == o.act_cycles &&
               act.dependences == o.act.dependences &&
               act.predictions == o.act.predictions &&
               act.predicted_invalid == o.act.predicted_invalid &&
               act.stall_cycles == o.act.stall_cycles &&
               act.mode_switches == o.act.mode_switches;
    }
};

Kernel
prepare(const std::string &name, std::uint64_t seed, std::uint32_t scale)
{
    const auto workload = makeWorkload(name);
    PairEncoder encoder;
    OfflineTrainingConfig training;
    training.traces = 2;
    training.max_examples = 4000;
    training.trainer.max_epochs = 40;

    Kernel kernel;
    kernel.name = name;
    kernel.threads = workload->threadCount();
    kernel.model = offlineTrain(*workload, encoder, training);
    WorkloadParams params;
    params.seed = seed;
    params.scale = scale;
    kernel.trace = workload->record(params);
    return kernel;
}

/** Host seconds of every run of one kernel, as measured. */
struct Samples
{
    std::vector<double> base_s;    //!< Baseline machine.
    std::vector<double> act_s;     //!< ACT machine.
    std::vector<double> monitor_s; //!< ACT minus baseline.
};

/** Sum over kernels of the median of @p field. */
double
sumOfMedians(const std::vector<Samples> &samples,
             std::vector<double> Samples::*field)
{
    double sum = 0.0;
    for (const Samples &s : samples)
        sum += median(s.*field);
    return sum;
}

/**
 * Run @p kernel on the baseline machine, then on the ACT machine, both
 * between one pair of reference loops; add their times to @p samples.
 */
Outcome
runKernel(const Kernel &kernel, HostSpeed &speed, Samples &samples)
{
    SystemConfig base_config;
    base_config.act_enabled = false;
    SystemConfig config;
    config.act_enabled = true;
    config.act.topology = kernel.model.topology;
    WeightStore store(kernel.model.topology);
    store.setAll(kernel.threads, kernel.model.weights);
    PairEncoder encoder;
    std::optional<System> baseline;
    std::optional<System> with_act;

    double base_s = 0.0;
    double act_s = 0.0;
    speed.time([&] {
        auto start = Clock::now();
        baseline.emplace(base_config);
        baseline->run(kernel.trace);
        base_s = elapsed(start);
        start = Clock::now();
        with_act.emplace(config, encoder, store);
        with_act->run(kernel.trace);
        act_s = elapsed(start);
    });
    samples.base_s.push_back(base_s);
    samples.act_s.push_back(act_s);
    samples.monitor_s.push_back(act_s - base_s);

    Outcome outcome;
    outcome.base_cycles = baseline->stats().cycles;
    outcome.act_cycles = with_act->stats().cycles;
    outcome.act = with_act->stats().act;
    return outcome;
}

} // namespace

Report
runProduction(const Options &options)
{
    Report report;
    std::vector<std::string> names = predictionKernelNames();
    if (options.small)
        names.resize(2);
    const std::uint32_t scale = options.small ? 1 : kScale;

    std::vector<Kernel> kernels;
    HostSpeed setup_speed(false, kSensitivity);
    double setup_s = 0.0;
    for (const auto &name : names) {
        setup_s += setup_speed.time(
            [&] { kernels.push_back(prepare(name, options.seed, scale)); });
    }
    double events = 0.0;
    for (const Kernel &kernel : kernels)
        events += static_cast<double>(kernel.trace.size());

    // Timed part: whole passes over every kernel until the run time is
    // spent. A pass takes the sum over kernels of each kernel's median.
    std::vector<Outcome> reference;
    std::vector<Samples> samples(kernels.size());
    HostSpeed speed(false, kSensitivity);
    std::size_t passes = 0;
    const auto run_start = Clock::now();
    do {
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            const Outcome outcome = runKernel(kernels[k], speed, samples[k]);
            ++report.attempted;
            if (passes == 0)
                reference.push_back(outcome);
            else
                report.check(outcome == reference[k],
                             kernels[k].name +
                                 ": simulated outcome changed between runs");
        }
        ++passes;
    } while (!options.small && elapsed(run_start) < options.seconds);
    const double slowdown = speed.slowdown();
    const double raw_ops_per_s =
        events / sumOfMedians(samples, &Samples::act_s);

    Cycle base_cycles = 0;
    Cycle act_cycles = 0;
    ActModuleStats totals;
    for (const Outcome &o : reference) {
        base_cycles += o.base_cycles;
        act_cycles += o.act_cycles;
        totals.dependences += o.act.dependences;
        totals.predictions += o.act.predictions;
        totals.predicted_invalid += o.act.predicted_invalid;
        totals.stall_cycles += o.act.stall_cycles;
        totals.mode_switches += o.act.mode_switches;
    }
    const double overhead = static_cast<double>(act_cycles) /
                                static_cast<double>(base_cycles) -
                            1.0;
    const double flag_ratio = static_cast<double>(totals.predicted_invalid) /
                              static_cast<double>(totals.predictions);
    std::printf("production %zu kernels x scale %u, %.0f events per pass, "
                "%zu passes, %.4g events/s as measured, host slowdown "
                "%.4f\n",
                kernels.size(), scale, events, passes, raw_ops_per_s,
                slowdown);
    std::printf("production act_overhead %.6f (paper: 0.082), flag_ratio "
                "%.6f\n",
                overhead, flag_ratio);

    if (!options.trace) {
        report.add("ops_per_s", raw_ops_per_s * slowdown, "1/s");
        report.add("setup_s", setup_s / setup_speed.slowdown(),
                   "s");
        return report;
    }

    // Traced run. Every pass above already timed the baseline machine
    // and the ACT machine apart, so the split into the baseline and what
    // monitoring adds on top of it needs no extra clock reads (its
    // tracing overhead is 0 by construction)...
    const double act_s = sumOfMedians(samples, &Samples::act_s);
    const double base_s = sumOfMedians(samples, &Samples::base_s);
    const double monitor_s = sumOfMedians(samples, &Samples::monitor_s);
    report.add("sim.baseline_s", base_s / slowdown, "s");
    report.add("act.monitor_s", monitor_s / slowdown, "s");

    // ...plus the AM's encoding and scalar inference alone, over the
    // sequences the cache model forms from the same traces.
    Layers layers;
    double sequences = 0.0;
    const SystemConfig machine;
    for (const Kernel &kernel : kernels) {
        const std::vector<DependenceSequence> seqs = collectCacheSequences(
            kernel.trace, machine.mem, machine.act.sequence_length);
        sequences += static_cast<double>(seqs.size());
        PairEncoder encoder;
        const std::size_t width =
            machine.act.sequence_length * encoder.width();
        HwNeuralNetwork network(machine.act.hw, kernel.model.topology);
        network.loadWeights(kernel.model.weights);
        std::vector<double> flat;
        flat.reserve(seqs.size() * width);
        std::vector<double> inputs;
        std::vector<double> outputs(seqs.size());
        layers.time("deps.encode_s", [&] {
            for (const DependenceSequence &seq : seqs) {
                encoder.encodeSequenceInto(seq, inputs);
                flat.insert(flat.end(), inputs.begin(), inputs.end());
            }
        });
        layers.time("hwnn.infer_s", [&] {
            for (std::size_t i = 0; i < seqs.size(); ++i) {
                outputs[i] = network.infer(
                    std::span<const double>(flat).subspan(i * width, width));
            }
        });
    }
    report.add("deps.encode_s", layers.get("deps.encode_s") / slowdown, "s");
    report.add("hwnn.infer_s", layers.get("hwnn.infer_s") / slowdown, "s");
    report.add("deps.sequences", sequences, "count");
    report.add("act.dependences", static_cast<double>(totals.dependences),
               "count");
    report.add("act.predictions", static_cast<double>(totals.predictions),
               "count");
    report.add("act.flagged", static_cast<double>(totals.predicted_invalid),
               "count");
    report.add("act.stall_cycles", static_cast<double>(totals.stall_cycles),
               "count");
    report.add("act.mode_switches",
               static_cast<double>(totals.mode_switches), "count");
    report.add("act.overhead", overhead, "ratio");
    report.add("act.flag_ratio", flag_ratio, "ratio");
    addHostMetrics(report, raw_ops_per_s, slowdown);
    // Median baseline plus median monitoring against the median ACT
    // machine, per kernel, summed.
    addLayerSum(options, report, base_s + monitor_s, act_s, act_s);
    return report;
}

} // namespace act::perfbench
