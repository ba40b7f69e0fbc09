#include "fleet/service.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "act/act_module.hh"
#include "analysis/trace_lint.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "deps/encoder.hh"
#include "deps/tracker.hh"
#include "runner/thread_pool.hh"
#include "sim/memsys.hh"
#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"
#include "workloads/kernel.hh"
#include "workloads/workload.hh"

namespace act::fleet
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Registry handles (volatile: ingest volume is timing dependent in
 *  bench mode and drop counts always are). */
struct FleetMetrics
{
    telemetry::Counter events_ingested;
    telemetry::Counter blocks_ingested;
    telemetry::Counter events_dropped;
    telemetry::Counter blocks_dropped;
    telemetry::Counter predictions;
    telemetry::Counter flagged;
    telemetry::Counter lint_rejects;

    static const FleetMetrics &
    get()
    {
        static const FleetMetrics metrics = [] {
            auto &reg = telemetry::MetricsRegistry::global();
            const auto kVolatile = telemetry::Stability::kVolatile;
            FleetMetrics m;
            m.events_ingested =
                reg.counter("fleet.events_ingested", kVolatile);
            m.blocks_ingested =
                reg.counter("fleet.blocks_ingested", kVolatile);
            m.events_dropped =
                reg.counter("fleet.events_dropped", kVolatile);
            m.blocks_dropped =
                reg.counter("fleet.blocks_dropped", kVolatile);
            m.predictions = reg.counter("fleet.predictions", kVolatile);
            m.flagged = reg.counter("fleet.flagged", kVolatile);
            m.lint_rejects =
                reg.counter("fleet.lint_rejects", kVolatile);
            return m;
        }();
        return metrics;
    }
};

/** Per-shard ingress depth gauge, `fleet.queue_depth.<shard>`. */
telemetry::Gauge
shardDepthGauge(std::uint32_t shard)
{
    return telemetry::MetricsRegistry::global().gauge(
        "fleet.queue_depth." + std::to_string(shard));
}

void
checkConfig(const FleetConfig &config)
{
    if (config.clients == 0 || config.clients > 4096)
        ACT_FATAL("fleet: clients must be in 1..4096, got "
                  << config.clients);
    if (config.shards == 0 || config.shards > 64)
        ACT_FATAL("fleet: shards must be in 1..64, got "
                  << config.shards);
    if (config.block_events == 0)
        ACT_FATAL("fleet: block_events must be > 0");
    if (config.queue_blocks == 0)
        ACT_FATAL("fleet: queue_blocks must be > 0");
    if (config.batch_max == 0)
        ACT_FATAL("fleet: batch_max must be > 0");
    if (config.repeat == 0 && config.duration_s <= 0.0)
        ACT_FATAL("fleet: repeat 0 requires a duration");
}

/** Module configuration of every shard: online testing only. */
ActConfig
fleetActConfig()
{
    ActConfig config;
    // Pin the module in testing mode: with an unreachable measurement
    // interval the misprediction rate is never sampled, so no commit
    // ever flips to training and the shared weight registers stay
    // frozen — the property that makes arena multiplexing sound.
    config.interval_length = std::numeric_limits<std::uint64_t>::max();
    return config;
}

/**
 * The frozen weight set every shard loads, derived from the run seed
 * only, so all shard engines (and the batch-replay engine) are
 * identical. Magnitudes near the sigmoid's active region give the
 * classifier real discrimination over the encoder's [-2, 2] features
 * instead of saturating one way for everything.
 */
std::vector<double>
fleetWeights(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed ^ 0xf1ee7c0ffeeULL);
    std::vector<double> weights(count);
    for (double &w : weights)
        w = rng.uniform(-0.9, 0.9);
    return weights;
}

/** Per-client memory-system parameters (kMem front-end): small caches
 *  so hundreds of clients stay cheap, everything else Table III. */
MemSystemConfig
clientMemConfig()
{
    MemSystemConfig config;
    config.cores = 4;
    config.l1_bytes = 8 * 1024;
    config.l1_assoc = 2;
    config.l2_bytes = 64 * 1024;
    config.l2_assoc = 4;
    return config;
}

/** All mutable per-client monitoring state. */
struct ClientState
{
    ClientState(const ActModule &module, FrontEnd front,
                const MemSystemConfig &mem_config)
        : arena(module.makeArena())
    {
        if (front == FrontEnd::kMem)
            mem = std::make_unique<MemorySystem>(mem_config);
    }

    ActArena arena;
    DependenceTracker tracker;
    std::unique_ptr<MemorySystem> mem; //!< kMem front-end only.
};

/** Feed one event through the client's front-end. */
std::optional<RawDependence>
observeEvent(ClientState &client, const TraceEvent &event)
{
    if (!client.mem)
        return client.tracker.observe(event);

    // Mirror System::handle's memory-side behaviour: loads and stores
    // hit the cache model, lock ops are RMWs on the lock word, and a
    // non-stack load with a known last writer forms the dependence.
    MemorySystem &mem = *client.mem;
    const CoreId core = event.tid % mem.config().cores;
    switch (event.kind) {
      case EventKind::kStore:
        mem.access(core, event);
        return std::nullopt;
      case EventKind::kLoad: {
        const MemAccess access = mem.access(core, event);
        if (event.stack || !access.last_writer)
            return std::nullopt;
        return RawDependence{access.last_writer->pc, event.pc,
                             access.last_writer->tid != event.tid};
      }
      case EventKind::kLock:
      case EventKind::kUnlock: {
        TraceEvent rmw = event;
        rmw.kind = EventKind::kStore;
        mem.access(core, rmw);
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
}

/**
 * One diagnosis shard: an ActModule engine, the arenas of the clients
 * assigned here, and the inference batcher. ingest() runs on exactly
 * one thread; snapshot() may run concurrently (epoch reporter), so
 * the report is mutex-guarded and touched only at block/flush
 * granularity — never per event.
 */
class ShardWorker
{
  public:
    explicit ShardWorker(const FleetConfig &config)
        : config_(config), module_(fleetActConfig(), PairEncoder{}),
          width_(module_.config().sequence_length * PairEncoder{}.width())
    {
        module_.restoreWeights(
            fleetWeights(module_.network().weightCount(), config.seed));
        ACT_ASSERT(module_.mode() == ActMode::kTesting);
        clients_.resize(config.clients);
        flat_.reserve(config.batch_max * width_);
        pending_.reserve(config.batch_max);
    }

    /** Process one block (consumer thread only). */
    void
    ingest(EventBlock &&block)
    {
        if (config_.lint_blocks) {
            BatchLintOptions lint;
            lint.max_threads = 1024;
            const auto findings = lintEventBatch(block.events, lint);
            if (!clean(findings)) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++report_.totals.lint_rejects;
                FleetMetrics::get().lint_rejects.inc();
                return;
            }
        }

        ClientState &client = state(block.client);
        module_.bindArena(&client.arena);
        std::uint64_t deps = 0;
        for (const TraceEvent &event : block.events) {
            const auto dep = observeEvent(client, event);
            if (!dep)
                continue;
            ++deps;
            if (!module_.stageDependence(*dep))
                continue;
            const std::vector<double> &inputs = module_.stagedInputs();
            ACT_ASSERT(inputs.size() == width_);
            flat_.insert(flat_.end(), inputs.begin(), inputs.end());
            pending_.push_back(Pending{block.client,
                                       module_.stagedSequence(),
                                       event.tid});
            if (pending_.size() >= config_.batch_max) {
                flushBatch();
                module_.bindArena(&client.arena);
            }
        }

        const FleetMetrics &m = FleetMetrics::get();
        m.events_ingested.add(block.events.size());
        m.blocks_ingested.inc();
        std::lock_guard<std::mutex> lock(mutex_);
        report_.totals.events += block.events.size();
        ++report_.totals.blocks;
        report_.totals.dependences += deps;
    }

    /** Drain the batcher and fold in arena-held counters. */
    void
    finish()
    {
        flushBatch();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &client : clients_) {
            if (!client)
                continue;
            const ActModuleStats &s = client->arena.stats;
            report_.totals.input_overwrites += s.input_buffer_overwrites;
            report_.totals.debug_overwrites += s.debug_buffer_overwrites;
        }
    }

    /** Point-in-time copy for epoch reporting. */
    FleetReport
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return report_;
    }

  private:
    struct Pending
    {
        std::uint32_t client;
        DependenceSequence sequence;
        ThreadId tid;
    };

    ClientState &
    state(std::uint32_t client)
    {
        ACT_ASSERT(client < clients_.size());
        if (!clients_[client]) {
            clients_[client] = std::make_unique<ClientState>(
                module_, config_.front, clientMemConfig());
        }
        return *clients_[client];
    }

    void
    flushBatch()
    {
        if (pending_.empty())
            return;
        module_.network().inferBatchFlat(flat_, width_, pending_.size(),
                                         outputs_);
        std::uint64_t flagged = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (std::size_t i = 0; i < pending_.size(); ++i) {
                const Pending &p = pending_[i];
                module_.bindArena(&clients_[p.client]->arena);
                const auto inputs =
                    std::span<const double>(flat_).subspan(i * width_,
                                                           width_);
                const StagedOutcome outcome = module_.commitPrediction(
                    p.sequence, inputs, outputs_[i], p.tid);
                if (outcome.predicted_invalid) {
                    ++flagged;
                    const RawDependence &last = p.sequence.deps.back();
                    report_.addSuspect(last.store_pc, last.load_pc,
                                       outcome.raw);
                }
            }
            report_.totals.predictions += pending_.size();
            report_.totals.flagged += flagged;
        }
        const FleetMetrics &m = FleetMetrics::get();
        m.predictions.add(pending_.size());
        m.flagged.add(flagged);
        flat_.clear();
        pending_.clear();
    }

    const FleetConfig &config_;
    ActModule module_;
    std::size_t width_; //!< Doubles per staged input vector.
    std::vector<std::unique_ptr<ClientState>> clients_;

    std::vector<double> flat_;      //!< Packed staged input vectors.
    std::vector<Pending> pending_;  //!< Metadata parallel to flat_.
    std::vector<double> outputs_;   //!< Batch results, one per item.

    mutable std::mutex mutex_;      //!< Guards report_.
    FleetReport report_;
};

/** Record every client's trace (deterministic; workloads rotate the
 *  prediction-kernel catalog unless one was pinned). */
std::vector<Trace>
recordClientTraces(const FleetConfig &config)
{
    registerAllWorkloads();
    const std::vector<std::string> catalog =
        config.workload.empty() ? predictionKernelNames()
                                : std::vector<std::string>{};
    std::vector<Trace> traces(config.clients);
    WorkStealingPool pool;
    for (std::uint32_t c = 0; c < config.clients; ++c) {
        pool.submit([&, c] {
            const std::string &name =
                catalog.empty() ? config.workload
                                : catalog[c % catalog.size()];
            const auto workload = makeWorkload(name);
            WorkloadParams params;
            params.seed = config.seed + c;
            params.scale = config.scale;
            traces[c] = workload->record(params);
        });
    }
    pool.wait();
    return traces;
}

/** Merge shard reports (order-independent) and attach run totals. */
FleetReport
mergeReports(const std::vector<std::unique_ptr<ShardWorker>> &workers,
             const FleetConfig &config, std::uint64_t events_dropped,
             std::uint64_t blocks_dropped)
{
    FleetReport merged;
    for (const auto &worker : workers)
        merged.merge(worker->snapshot());
    merged.totals.clients = config.clients;
    merged.totals.events_dropped = events_dropped;
    merged.totals.blocks_dropped = blocks_dropped;
    return merged;
}

} // namespace

FleetResult
runFleetService(const FleetConfig &config, std::FILE *epoch_out)
{
    checkConfig(config);
    const std::vector<Trace> traces = recordClientTraces(config);

    // Producer bookkeeping per shard queue: clients are assigned
    // round-robin, so shard s serves clients {c | c mod shards == s}.
    std::vector<std::uint32_t> producers(config.shards, 0);
    for (std::uint32_t c = 0; c < config.clients; ++c)
        ++producers[c % config.shards];

    std::vector<std::unique_ptr<BlockQueue>> queues;
    std::vector<std::unique_ptr<ShardWorker>> workers;
    for (std::uint32_t s = 0; s < config.shards; ++s) {
        queues.push_back(std::make_unique<BlockQueue>(
            config.queue_blocks, producers[s]));
        workers.push_back(std::make_unique<ShardWorker>(config));
    }

    std::atomic<std::uint64_t> events_dropped{0};
    std::atomic<std::uint64_t> blocks_dropped{0};

    telemetry::ScopedSpan span("fleet.stream", "fleet");
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config.duration_s));

    // Shards are dedicated threads: they run for the whole service
    // lifetime and block in pop(), which would wedge a cooperative
    // work-stealing worker.
    std::vector<std::thread> shard_threads;
    for (std::uint32_t s = 0; s < config.shards; ++s) {
        shard_threads.emplace_back([&, s] {
            telemetry::SpanTracer::global().nameThread(
                "fleet-shard-" + std::to_string(s));
            const telemetry::Gauge depth = shardDepthGauge(s);
            EventBlock block;
            while (queues[s]->pop(block)) {
                depth.dec();
                workers[s]->ingest(std::move(block));
            }
            workers[s]->finish();
        });
    }

    // Epoch reporter: merge shard snapshots every epoch_s and render
    // an incremental report. Progress output only — the final report
    // is produced after every thread joins.
    std::mutex epoch_mutex;
    std::condition_variable epoch_cv;
    bool streaming_done = false;
    std::uint64_t epochs = 0;
    std::thread epoch_thread;
    if (config.epoch_s > 0.0 && epoch_out != nullptr) {
        epoch_thread = std::thread([&] {
            std::unique_lock<std::mutex> lock(epoch_mutex);
            const auto period =
                std::chrono::duration<double>(config.epoch_s);
            while (!epoch_cv.wait_for(
                lock, period, [&] { return streaming_done; })) {
                lock.unlock();
                const FleetReport epoch = mergeReports(
                    workers, config, events_dropped.load(),
                    blocks_dropped.load());
                std::fprintf(
                    epoch_out,
                    "epoch %llu events=%llu predictions=%llu "
                    "flagged=%llu suspects=%zu dropped=%llu\n",
                    static_cast<unsigned long long>(epochs + 1),
                    static_cast<unsigned long long>(
                        epoch.totals.events),
                    static_cast<unsigned long long>(
                        epoch.totals.predictions),
                    static_cast<unsigned long long>(
                        epoch.totals.flagged),
                    epoch.suspects.size(),
                    static_cast<unsigned long long>(
                        epoch.totals.events_dropped));
                std::fflush(epoch_out);
                lock.lock();
                ++epochs;
            }
        });
    }

    // Clients run as pool tasks: short bursts of block pushes. A task
    // blocked in push() under the kBlock policy cannot deadlock — its
    // shard is a dedicated thread that always drains.
    {
        WorkStealingPool pool;
        for (std::uint32_t c = 0; c < config.clients; ++c) {
            pool.submit([&, c] {
                BlockQueue &queue = *queues[c % config.shards];
                const telemetry::Gauge depth =
                    shardDepthGauge(c % config.shards);
                const std::vector<TraceEvent> &events =
                    traces[c].events();
                const FleetMetrics &m = FleetMetrics::get();
                for (std::uint32_t rep = 0;; ++rep) {
                    if (config.duration_s > 0.0) {
                        if (Clock::now() >= deadline)
                            break;
                    } else if (rep >= config.repeat) {
                        break;
                    }
                    for (std::size_t offset = 0;
                         offset < events.size();
                         offset += config.block_events) {
                        const std::size_t end = std::min(
                            offset + config.block_events,
                            events.size());
                        EventBlock block;
                        block.client = c;
                        block.events.assign(events.begin() + offset,
                                            events.begin() + end);
                        if (config.backpressure ==
                            Backpressure::kBlock) {
                            queue.push(std::move(block));
                            depth.inc();
                        } else if (queue.tryPush(block)) {
                            depth.inc();
                        } else {
                            // Shed: counted exactly, never silent.
                            events_dropped.fetch_add(
                                block.events.size());
                            blocks_dropped.fetch_add(1);
                            m.events_dropped.add(block.events.size());
                            m.blocks_dropped.inc();
                        }
                    }
                }
                queue.producerDone();
            });
        }
        pool.wait();
    }

    for (auto &thread : shard_threads)
        thread.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    if (epoch_thread.joinable()) {
        {
            std::lock_guard<std::mutex> lock(epoch_mutex);
            streaming_done = true;
        }
        epoch_cv.notify_all();
        epoch_thread.join();
    }

    FleetResult result;
    result.report = mergeReports(workers, config, events_dropped.load(),
                                 blocks_dropped.load());
    result.wall_s = wall_s;
    result.epochs = epochs;
    return result;
}

FleetResult
replayFleetBatch(const FleetConfig &config)
{
    checkConfig(config);
    const std::vector<Trace> traces = recordClientTraces(config);

    // One worker, no queues, clients in id order: the sequential
    // reference the streaming service must reproduce byte for byte.
    // Blocks are chunked identically so block counts match too.
    const auto start = Clock::now();
    ShardWorker worker(config);
    const std::uint32_t reps = config.repeat == 0 ? 1 : config.repeat;
    for (std::uint32_t c = 0; c < config.clients; ++c) {
        const std::vector<TraceEvent> &events = traces[c].events();
        for (std::uint32_t rep = 0; rep < reps; ++rep) {
            for (std::size_t offset = 0; offset < events.size();
                 offset += config.block_events) {
                const std::size_t end = std::min(
                    offset + config.block_events, events.size());
                EventBlock block;
                block.client = c;
                block.events.assign(events.begin() + offset,
                                    events.begin() + end);
                worker.ingest(std::move(block));
            }
        }
    }
    worker.finish();

    FleetResult result;
    result.report = worker.snapshot();
    result.report.totals.clients = config.clients;
    result.wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return result;
}

} // namespace act::fleet
