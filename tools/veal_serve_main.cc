/**
 * veal-serve: the sharded multi-tenant translation service front end.
 *
 * Feeds a veal-trace-v1 request trace (from --trace, or generated in
 * process from --requests/--tenants/...) through a TranslationService
 * and prints the deterministic service report.  The report, the
 * per-tenant digests, and the --metrics-json snapshot are byte-identical
 * for any --shards/--threads/--batch value; wall-clock goes to stderr
 * only.
 *
 * SIGINT/SIGTERM request a graceful shutdown: the service finishes the
 * tick in flight, flushes the persistent store's manifest, and still
 * prints the report and metrics snapshot for the completed prefix.
 *
 * Exit status: 0 on a completed run, 1 on a failed run (unreadable or
 * malformed trace, unwritable snapshot), 2 on bad usage.
 */

#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>

#include "bench/cli.h"
#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/support/metrics/metrics.h"

namespace {

namespace cli = veal::bench::cli;

constexpr const char* kTool = "veal-serve";

/** Flipped by the signal handler; polled by run() at tick boundaries. */
std::atomic<bool> g_stop{false};

extern "C" void
handleStopSignal(int)
{
    // Async-signal-safe: one relaxed store, nothing else.  Everything
    // interesting (shutdown, drain, flush) happens on the driver
    // thread at the next tick boundary.
    g_stop.store(true, std::memory_order_relaxed);
}

void
installStopHandlers()
{
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
}

int
usage()
{
    std::cerr <<
        "usage: veal-serve [options]\n"
        "trace input (pick one):\n"
        "  --trace FILE    replay a veal-trace-v1 file\n"
        "  --requests N    generate an N-request trace (default 256)\n"
        "    --tenants N   tenants in the generated trace (default 4)\n"
        "    --loops N     distinct loops in the pool (default 16)\n"
        "    --tick N      requests per tick (default 32)\n"
        "    --seed S      trace generator seed (default 1)\n"
        "    --iterations N  iterations per request (default 12)\n"
        "  --gen-trace FILE  write the generated trace to FILE and exit\n"
        "service shape (never affects the report bytes):\n"
        "  --shards N      worker shards, each with a private code cache\n"
        "                  (default 2)\n"
        "  --threads N     pool width for the shard phase (default 1)\n"
        "  --batch N       CPU pricing lanes per batch call (default 16)\n"
        "admission control:\n"
        "  --quota N       per-tenant in-flight quota per tick (default 8)\n"
        "  --queue-depth N requests admitted per tick (default 64)\n"
        "  --cache-entries N  per-shard code-cache capacity (default 16)\n"
        "persistence:\n"
        "  --cache-dir DIR    persistent cross-run code cache; a rerun\n"
        "                     with the same DIR warm-starts from it\n"
        "  --cache-capacity N store entry bound, SLRU-evicted (default\n"
        "                     4096)\n"
        "fleet steering (single design point unless --fleet given):\n"
        "  --fleet SPEC       heterogeneous backend fleet: 'standard'\n"
        "                     (baseline + 4 presets), 'baseline', or a\n"
        "                     comma list of baseline,cca-heavy,fp-heavy,\n"
        "                     stream-heavy,tiny-ii\n"
        "  --fleet-capacity N per-backend resident-key capacity\n"
        "                     (default 0 = unlimited)\n"
        "TLB cost model (off unless --tlb* given):\n"
        "  --tlb              enable at the default design point\n"
        "  --tlb-entries N    stream-TLB capacity in pages (default 32)\n"
        "  --tlb-walk N       cycles per page walk (default 30)\n"
        "  --tlb-page N       page size in bytes (default 4096)\n"
        "faults:\n"
        "  --fault-seed S  arm a per-request FaultPlan stream\n"
        "output:\n"
        "  --metrics-json FILE  write a veal-metrics-v1 snapshot\n";
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string trace_file;
    std::string gen_trace_file;
    std::string metrics_json;
    veal::TraceGenOptions gen;
    veal::ServiceOptions options;
    options.shards = 2;
    std::string fleet_spec;
    int fleet_capacity = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() {
            return cli::requireValue(kTool, argc, argv, &i, usage);
        };
        if (arg == "--trace") {
            trace_file = value();
        } else if (arg == "--gen-trace") {
            gen_trace_file = value();
        } else if (arg == "--requests") {
            gen.requests = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--tenants") {
            gen.tenants = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--loops") {
            gen.loop_pool = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--tick") {
            gen.tick_size = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--seed") {
            gen.seed = cli::parseU64(kTool, arg, value(), usage);
        } else if (arg == "--iterations") {
            gen.iterations = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--shards") {
            options.shards = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--threads") {
            options.threads = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--batch") {
            options.batch = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--quota") {
            options.tenant_quota =
                cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--queue-depth") {
            options.queue_depth =
                cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--cache-entries") {
            options.shard_cache_entries =
                cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--fault-seed") {
            options.fault_seed = cli::parseU64(kTool, arg, value(), usage);
        } else if (arg == "--cache-dir") {
            options.cache_dir = value();
        } else if (arg == "--cache-capacity") {
            options.store.max_entries =
                cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--fleet") {
            fleet_spec = value();
        } else if (arg == "--fleet-capacity") {
            fleet_capacity = cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--tlb") {
            options.tlb.enabled = true;
        } else if (arg == "--tlb-entries") {
            options.tlb.enabled = true;
            options.tlb.entries =
                cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--tlb-walk") {
            options.tlb.enabled = true;
            options.tlb.walk_cycles =
                cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--tlb-page") {
            options.tlb.enabled = true;
            options.tlb.page_bytes =
                cli::parseCount(kTool, arg, value(), usage);
        } else if (arg == "--metrics-json") {
            metrics_json = value();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            cli::usageError(kTool, "unknown option '" + arg + "'", usage);
        }
    }

    if (options.shards < 1 || options.batch < 1 ||
        options.queue_depth < 1 || options.shard_cache_entries < 1) {
        cli::usageError(kTool,
                        "--shards, --batch, --queue-depth, and "
                        "--cache-entries must be positive",
                        usage);
    }
    if (options.store.max_entries < 1 || options.tlb.entries < 0 ||
        options.tlb.page_bytes < 1 || options.tlb.walk_cycles < 0) {
        cli::usageError(kTool,
                        "--cache-capacity and --tlb-page must be "
                        "positive; --tlb-entries and --tlb-walk "
                        "non-negative",
                        usage);
    }
    if (!trace_file.empty() && !gen_trace_file.empty()) {
        cli::usageError(kTool, "--trace and --gen-trace are exclusive",
                        usage);
    }
    if (!fleet_spec.empty()) {
        auto fleet = veal::fleet::FleetConfig::parse(fleet_spec,
                                                     fleet_capacity);
        if (!fleet.has_value()) {
            cli::usageError(kTool,
                            "--fleet: unknown spec '" + fleet_spec + "'",
                            usage);
        }
        options.fleet = std::move(fleet);
    }

    veal::ServiceTrace trace;
    if (!trace_file.empty()) {
        std::ifstream in(trace_file);
        if (!in) {
            std::cerr << kTool << ": cannot read " << trace_file << "\n";
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        auto parsed = veal::parseTrace(text.str());
        if (std::holds_alternative<std::string>(parsed)) {
            std::cerr << kTool << ": " << trace_file << ": "
                      << std::get<std::string>(parsed) << "\n";
            return 1;
        }
        trace = std::move(std::get<veal::ServiceTrace>(parsed));
    } else {
        trace = veal::generateTrace(gen);
    }

    if (!gen_trace_file.empty()) {
        std::ofstream out(gen_trace_file);
        if (!out) {
            std::cerr << kTool << ": cannot write " << gen_trace_file
                      << "\n";
            return 1;
        }
        out << veal::formatTrace(trace);
        return 0;
    }

    options.stop = &g_stop;
    installStopHandlers();

    veal::metrics::Registry registry;
    veal::TranslationService service(options, &registry);
    {
        // Wall time goes to stderr only; the report stays clock-free.
        const veal::metrics::ScopedWallTimer timer("veal-serve run");
        service.run(trace);
    }
    if (service.shuttingDown()) {
        std::cerr << kTool << ": stop signal received; drained the "
                     "in-flight tick, flushed the store, reporting the "
                     "completed prefix\n";
    }
    std::cout << service.report().render();

    // Flush the MANIFEST before the metrics snapshot so the store's
    // recency order is durable the moment the run reports success.
    service.flushPersistentStore();

    // Shard-local cache hit rates are physical diagnostics: they depend
    // on --shards by nature, so they go to stderr, never the report.
    for (int s = 0; s < options.shards; ++s) {
        const auto stats = service.shardCacheStats(s);
        std::cerr << "shard " << s << " cache: hits=" << stats.hits
                  << " misses=" << stats.misses
                  << " evictions=" << stats.evictions << "\n";
    }

    if (!metrics_json.empty() &&
        !veal::metrics::writeSnapshot(registry, metrics_json)) {
        std::cerr << kTool << ": cannot write " << metrics_json << "\n";
        return 1;
    }
    return 0;
}
