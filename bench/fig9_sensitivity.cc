/**
 * @file
 * Figure 9 reproduction (inferred): overhead sensitivity to the two
 * hardware knobs Table III sweeps — the number of multiply-add units
 * per neuron (1, 2, 5, 10; Section IV-A's latency knob) and the input
 * FIFO depth (4, 8, 16 entries).
 */

#include "bench/bench_util.hh"

namespace act
{
namespace
{

using bench::format;

/**
 * One program's trained model, production trace and baseline cycle
 * count. Every cell of both sweeps reuses them; only the AM's knobs
 * change from cell to cell.
 */
struct Program
{
    std::string name;
    std::uint32_t threads = 0;
    TrainedModel model;
    Trace trace;
    Cycle base_cycles = 0;
};

Program
prepare(const std::string &name)
{
    const auto workload = makeWorkload(name);
    Program program;
    program.name = name;
    program.threads = workload->threadCount();
    PairEncoder encoder;
    OfflineTrainingConfig training = bench::standardTraining(6);
    training.trainer.max_epochs = 300;
    program.model = offlineTrain(*workload, encoder, training);
    WorkloadParams params;
    params.seed = 300;
    program.trace = workload->record(params);

    SystemConfig config;
    config.act_enabled = false;
    System baseline(config);
    baseline.run(program.trace);
    program.base_cycles = baseline.stats().cycles;
    return program;
}

double
overheadWith(const Program &program, std::uint32_t muladd_units,
             std::uint32_t fifo_entries)
{
    SystemConfig config;
    config.act_enabled = true;
    config.act.topology = program.model.topology;
    config.act.hw.neuron.muladd_units = muladd_units;
    config.act.hw.fifo_entries = fifo_entries;
    PairEncoder encoder;
    WeightStore store(program.model.topology);
    store.setAll(program.threads, program.model.weights);
    System with_act(config, encoder, store);
    with_act.run(program.trace);

    return static_cast<double>(with_act.stats().cycles -
                               program.base_cycles) /
           static_cast<double>(program.base_cycles);
}

void
run()
{
    bench::banner("Figure 9: overhead sensitivity",
                  "Table III sweeps: multiply-add units {1,2,5,10} "
                  "(neuron latency T = ceil(M/x) + 2), input FIFO "
                  "{4,8,16}");

    std::vector<Program> programs;
    for (const char *name : {"lu", "ocean", "canneal", "swaptions"})
        programs.push_back(prepare(name));

    std::printf("--- multiply-add units (FIFO fixed at 8) ---\n");
    {
        const bench::Table table({16, 12, 12, 12, 12});
        table.row({"program", "x=1 (T=12)", "x=2 (T=7)", "x=5 (T=4)",
                   "x=10 (T=3)"});
        table.rule();
        for (const Program &program : programs) {
            std::vector<std::string> cells{program.name};
            for (const std::uint32_t units : {1u, 2u, 5u, 10u}) {
                cells.push_back(format(
                    "%.1f%%", overheadWith(program, units, 8) * 100.0));
            }
            table.row(cells);
        }
    }

    std::printf("\n--- input FIFO depth (2 multiply-add units) ---\n");
    {
        const bench::Table table({16, 12, 12, 12});
        table.row({"program", "4 entries", "8 entries", "16 entries"});
        table.rule();
        for (const Program &program : programs) {
            std::vector<std::string> cells{program.name};
            for (const std::uint32_t fifo : {4u, 8u, 16u}) {
                cells.push_back(format(
                    "%.1f%%", overheadWith(program, 2, fifo) * 100.0));
            }
            table.row(cells);
        }
    }
    std::printf("\nexpected shape: overhead falls with more multiply-add "
                "units (shorter neuron latency)\nand with deeper FIFOs "
                "(bursts absorbed without retire stalls).\n");
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
