/**
 * @file
 * Regenerates paper Table III: the specification of each suite-
 * specialized overlay produced by the DSE, next to the hand-designed
 * General overlay — system parameters (tiles, L2 banks, NoC width)
 * and accelerator structure (PEs, switches, radix, FU mix,
 * scratchpads, port bandwidth).
 */

#include "common.h"

using namespace overgen;

namespace {

struct Spec
{
    std::string name;
    adg::SysAdg design;
};

void
printSpec(const Spec &spec)
{
    const adg::Adg &tile = spec.design.adg;
    int int_add = 0, int_mul = 0, int_div = 0;
    int flt_add = 0, flt_mul = 0, flt_div = 0, flt_sqrt = 0;
    for (adg::NodeId pe : tile.nodeIdsOfKind(adg::NodeKind::Pe)) {
        for (const FuCapability &cap :
             tile.node(pe).pe().capabilities) {
            bool flt = dataTypeIsFloat(cap.type);
            switch (cap.op) {
              case Opcode::Add:
                (flt ? flt_add : int_add) += 1;
                break;
              case Opcode::Mul:
                (flt ? flt_mul : int_mul) += 1;
                break;
              case Opcode::Div:
                (flt ? flt_div : int_div) += 1;
                break;
              case Opcode::Sqrt:
                flt_sqrt += 1;
                break;
              default:
                break;
            }
        }
    }
    int in_bw = 0, out_bw = 0;
    for (adg::NodeId p : tile.nodeIdsOfKind(adg::NodeKind::InPort))
        in_bw += tile.node(p).port().widthBytes;
    for (adg::NodeId p : tile.nodeIdsOfKind(adg::NodeKind::OutPort))
        out_bw += tile.node(p).port().widthBytes;
    int spad_kib = 0;
    bool spad_indirect = false;
    for (adg::NodeId s :
         tile.nodeIdsOfKind(adg::NodeKind::Scratchpad)) {
        spad_kib += tile.node(s).spad().capacityKiB;
        spad_indirect |= tile.node(s).spad().indirect;
    }
    std::printf("%-10s | tiles %2d  l2banks %2d  noc %2dB | PEs %2d  "
                "sw %2d  radix %4.2f | int+/x// %d/%d/%d  "
                "flt+/x///sqrt %d/%d/%d/%d | spad %3dKiB%s | "
                "in %3dB out %3dB | G/R/R %d/%d/%d\n",
                spec.name.c_str(), spec.design.sys.numTiles,
                spec.design.sys.l2Banks, spec.design.sys.nocBytes,
                tile.countKind(adg::NodeKind::Pe),
                tile.countKind(adg::NodeKind::Switch),
                tile.averageSwitchRadix(), int_add, int_mul, int_div,
                flt_add, flt_mul, flt_div, flt_sqrt, spad_kib,
                spad_indirect ? "(ind)" : "", in_bw, out_bw,
                tile.countKind(adg::NodeKind::Generate),
                tile.countKind(adg::NodeKind::Recurrence),
                tile.countKind(adg::NodeKind::Register));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    int iters = bench::benchIterations();
    bench::banner("Table III", "suite-specialized overlay specs", iters);
    std::vector<Spec> specs;
    std::vector<std::string> names = { "machsuite", "vision", "dsp" };
    std::vector<std::vector<wl::KernelSpec>> suites = {
        wl::machSuite(), wl::visionSuite(), wl::dspSuite()
    };
    for (size_t s = 0; s < suites.size(); ++s) {
        dse::DseOptions options;
        options.iterations = iters;
        options.seed = 11 + s;
        options.threads = harness.threads();
        options.sink = harness.sink();
        options.telemetryLabel = names[s];
        dse::DseResult result = dse::exploreOverlay(suites[s], options);
        specs.push_back({ names[s], result.design });
    }
    specs.push_back({ "general", bench::generalOverlay() });
    for (const Spec &spec : specs)
        printSpec(spec);
    std::printf("\npaper shape: suite overlays pack 7-13 small "
                "specialized tiles; the general overlay fits only 4 "
                "fully-provisioned ones. DSP keeps float FUs, "
                "MachSuite/Vision are integer-only, suites prune "
                "unused engines.\n");
    harness.finish();
    return 0;
}
