#include "obs/artifacts.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace specpmt::obs
{

namespace
{

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

} // namespace

bool
OutputFlags::accept(std::string_view arg)
{
    constexpr std::string_view kMetrics = "--metrics-out=";
    constexpr std::string_view kTrace = "--trace-out=";
    if (arg.rfind(kMetrics, 0) == 0) {
        metricsPath = std::string(arg.substr(kMetrics.size()));
        return true;
    }
    if (arg.rfind(kTrace, 0) == 0) {
        tracePath = std::string(arg.substr(kTrace.size()));
        if (!tracePath.empty())
            Tracer::global().enable();
        return true;
    }
    return false;
}

void
OutputFlags::writeArtifacts() const
{
    if (!metricsPath.empty()) {
        if (endsWith(metricsPath, ".json"))
            Registry::global().writeJson(metricsPath);
        else
            Registry::global().writePrometheus(metricsPath);
    }
    if (!tracePath.empty())
        Tracer::global().writeChromeJson(tracePath);
}

} // namespace specpmt::obs
