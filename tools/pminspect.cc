/**
 * @file
 * pminspect: offline forensic analyzer for saved pmem pool images.
 *
 *   pminspect [options] IMAGE...
 *
 * Opens each image (pmem/image_io format, e.g. written by
 * `crashmatrix --explain --image-out=DIR`) strictly read-only and
 * prints the forensic classification of every transaction found in
 * the speculative logs — COMMITTED / TORN / IN-FLIGHT with per-record
 * reason strings — plus segment headers, CRC seals, timestamps,
 * segment-count attestations and the decoded flight-recorder ring.
 * Recovery is NOT run on the image.
 *
 * Options:
 *   --threads=N       root slots to scan (default: all 19)
 *   --json[=PATH]     emit the JSON report (stdout or PATH); embeds
 *                     a metrics snapshot of this process
 *   --audit=RUNTIME   recovery audit: run RUNTIME's real recover()
 *                     on a throwaway copy and diff its decisions
 *                     against the classification; exits nonzero on
 *                     disagreement ("spec" or "spec-dp")
 *
 * Exit status: 0 on success, 1 on usage/IO errors, 2 when an audit
 * disagrees.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "forensic/inspector.hh"
#include "forensic/recovery_audit.hh"
#include "obs/metrics.hh"
#include "pmem/image_io.hh"

namespace
{

using namespace specpmt;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--threads=N] [--json[=PATH]] "
                 "[--audit=RUNTIME] IMAGE...\n",
                 argv0);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = forensic::kMaxInspectThreads;
    bool json = false;
    std::string json_path;
    std::string audit_runtime;
    std::vector<std::string> images;
    bool help = false;

    Flags flags;
    flags.count("--threads", threads)
        .flag("--json", json)
        .option("--json",
                [&](std::string_view path) {
                    json = true;
                    json_path = path;
                    return std::string();
                })
        .text("--audit", audit_runtime)
        .flag("--help", help)
        .flag("-h", help)
        .positionals(images);
    if (const std::string error = flags.parse(argc, argv); !error.empty()) {
        std::fprintf(stderr, "pminspect: %s\n", error.c_str());
        return usage(argv[0]);
    }
    if (help) {
        usage(argv[0]);
        return 0;
    }
    if (images.empty())
        return usage(argv[0]);
    if (!audit_runtime.empty() &&
        !forensic::isAuditableRuntime(audit_runtime)) {
        std::fprintf(stderr,
                     "pminspect: --audit supports spec or spec-dp "
                     "(got %s)\n",
                     audit_runtime.c_str());
        return 1;
    }

    int status = 0;
    std::string json_out;
    if (json)
        json_out = "[";
    bool first = true;

    for (const auto &path : images) {
        std::vector<std::uint8_t> image;
        std::string error;
        if (!pmem::loadImage(path, image, error)) {
            std::fprintf(stderr, "pminspect: %s: %s\n", path.c_str(),
                         error.c_str());
            status = 1;
            continue;
        }
        const auto dev = pmem::deviceFromImage(image);
        const auto report =
            forensic::inspectImage(*dev, threads, path);

        forensic::AuditResult audit;
        if (!audit_runtime.empty()) {
            audit = forensic::auditRecovery(image, audit_runtime,
                                            threads, report);
            if (!audit.agrees)
                status = 2;
        }

        if (json) {
            if (!first)
                json_out += ",";
            first = false;
            json_out += "\n{\"report\": ";
            json_out += report.toJson(
                obs::Registry::global().snapshot().toJson());
            if (!audit_runtime.empty())
                json_out += ", \"audit\": " + audit.toJson();
            json_out += "}";
        } else {
            std::fputs(report.toText().c_str(), stdout);
            if (!audit_runtime.empty())
                std::fputs(audit.toText().c_str(), stdout);
        }
    }

    if (json) {
        json_out += "\n]\n";
        if (json_path.empty()) {
            std::fputs(json_out.c_str(), stdout);
        } else {
            std::ofstream out(json_path,
                              std::ios::binary | std::ios::trunc);
            out << json_out;
            if (!out) {
                std::fprintf(stderr, "pminspect: cannot write %s\n",
                             json_path.c_str());
                status = 1;
            }
        }
    }
    return status;
}
