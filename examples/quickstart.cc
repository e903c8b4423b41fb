/**
 * @file
 * Quickstart: build the paper's base machine, run one workload under
 * every registered protocol, and print normalized execution times
 * (normalized to a CC-NUMA with an infinite block cache, as in
 * Figure 6) plus the winner/regret summary. A protocol registered
 * with ProtocolRegistry::global().add() appears here automatically.
 *
 * Usage: quickstart [app-name] [scale] [jobs]
 *   app-name  one of the ten Table 3 applications (default: moldyn)
 *   scale     input scale factor (default 0.5 for a quick run)
 *   jobs      threads for the runs (default 4; 0 = one per core;
 *             deterministic at any value)
 */

#include <cstdlib>
#include <iostream>

#include "common/params.hh"
#include "common/table.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"

int
main(int argc, char **argv)
{
    using namespace rnuma;

    std::string app = argc > 1 ? argv[1] : "moldyn";
    double scale = argc > 2 ? std::atof(argv[2]) : 0.5;
    std::size_t jobs = argc > 3
        ? static_cast<std::size_t>(std::atol(argv[3])) : 4;

    Params p = Params::base();
    std::cout << "R-NUMA quickstart: app=" << app << " scale=" << scale
              << "\n"
              << "machine: " << p.numNodes << " nodes x "
              << p.cpusPerNode << " cpus, block cache "
              << p.blockCacheSize / 1024 << "KB, page cache "
              << p.pageCacheSize / 1024 << "KB, threshold "
              << p.relocationThreshold << "\n\n";

    auto wl = makeWorkload(app, p, scale);
    std::cout << "workload: "
              << dynamic_cast<const VectorWorkload &>(*wl).totalRefs()
              << " stream entries\n\n";

    // Every run builds its own copy of the workload, so the runs can
    // execute concurrently with bit-identical results. The empty
    // spec list selects every registered protocol.
    ComparisonMatrix m = compareAll(
        p, [&] { return makeWorkload(app, p, scale); }, {}, jobs);

    Table t({"protocol", "ticks", "normalized", "vs winner",
             "remote fetches", "refetches", "page ops"});
    auto row = [&](const std::string &name, const RunStats &s,
                   const std::string &regret) {
        t.addRow({name, std::to_string(s.ticks),
                  Table::num(static_cast<double>(s.ticks) /
                             static_cast<double>(m.baseline.ticks)),
                  regret,
                  std::to_string(s.remoteFetches),
                  std::to_string(s.refetches),
                  std::to_string(s.scomaAllocations +
                                 s.relocations)});
    };
    row("CC-NUMA(inf)", m.baseline, "-");
    for (const ComparisonEntry &e : m.entries) {
        double r = m.regret(e.id);
        row(e.name, e.stats,
            r <= 0 ? "winner" : "+" + Table::pct(r));
    }
    t.print(std::cout);

    std::cout << "\nwinner: " << m.winner().name
              << "  best of CC/SC: " << Table::num(m.bestOfBase())
              << "  R-NUMA: " << Table::num(m.norm("rnuma"))
              << "\npaper invariant: R-NUMA is never much worse "
                 "than the best of the two base\nsystems (Section "
                 "5) — and any newly registered policy lands in "
                 "this table\nwith zero wiring.\n";
    return 0;
}
