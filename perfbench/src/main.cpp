// raqbench — the benchmark binary (run it through perfbench/run.py).
//
//   raqbench prepare
//       Train the benchmark's networks into $RAQ_MODEL_CACHE (untimed).
//   raqbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       Run one workload; the last stdout line is the JSON result. Exits
//       1 when an output check fails, 2 on a usage or set-up error.
//   raqbench setup --workload <name> --seed <n>
//       Only the workload's set-up; the result holds setup_s alone.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace raq::perfbench {

std::vector<std::string> workload_names() {
    return {"lifetime", "edge-closed", "fleet-aging", "pipeline-recut"};
}

}  // namespace raq::perfbench

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: raqbench prepare\n"
                 "       raqbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       raqbench setup --workload <name> --seed <n>\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace raq::perfbench;
    Options options;
    options.process_start = Clock::now();
    if (argc < 2) return usage();
    const std::string command = argv[1];
    try {
        if (command == "prepare") {
            raq::nn::ModelCache cache(model_dir());
            cache.ensure(benchmark_networks(), 3);
            return 0;
        }
        if (command != "run" && command != "setup") return usage();
        options.setup_only = command == "setup";
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const char* value = argv[i + 1];
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::strtoull(value, nullptr, 10);
            else if (flag == "--seconds")
                options.seconds = std::atof(value);
            else if (flag == "--trace")
                options.trace = std::strcmp(value, "1") == 0;
            else if (flag == "--artifact-dir")
                options.artifact_dir = value;
            else
                return usage();
        }
        bool known = false;
        for (const std::string& name : workload_names()) known |= name == options.workload;
        if (!known || !(options.seconds > 0.0)) return usage();
        if (options.trace) std::filesystem::create_directories(options.artifact_dir);

        Report report;
        const IdleSpinners spinners;
        if (options.workload == "lifetime")
            run_lifetime(options, report);
        else
            run_serving(options, report);
        for (const std::string& m : report.mismatches)
            std::fprintf(stderr, "raqbench: CHECK FAILED: %s\n", m.c_str());
        print_result(report);
        return report.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "raqbench: %s\n", e.what());
        return 2;
    }
}
