#include "obs/artifacts.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace specpmt::obs
{

void
OutputFlags::declare(Flags &flags)
{
    flags.text("--metrics-out", metricsPath)
        .option("--trace-out", [this](std::string_view path) {
            tracePath = path;
            if (!tracePath.empty())
                Tracer::global().enable();
            return std::string();
        });
}

std::string
OutputFlags::writeArtifacts() const
{
    if (!metricsPath.empty()) {
        const bool ok = metricsPath.ends_with(".json")
                            ? Registry::global().writeJson(metricsPath)
                            : Registry::global().writePrometheus(
                                  metricsPath);
        if (!ok)
            return "cannot write --metrics-out=" + metricsPath;
    }
    if (!tracePath.empty() &&
        !Tracer::global().writeChromeJson(tracePath))
        return "cannot write --trace-out=" + tracePath;
    return {};
}

} // namespace specpmt::obs
