#include "kv/workload_spec.hh"

#include <algorithm>
#include <cmath>

#include "common/hash.hh"
#include "common/logging.hh"

namespace specpmt::kv
{

namespace
{

double
zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

} // namespace

const char *
mixName(Mix mix)
{
    switch (mix) {
      case Mix::A:
        return "A";
      case Mix::B:
        return "B";
      case Mix::C:
        return "C";
    }
    return "?";
}

std::optional<Mix>
parseMix(std::string_view name)
{
    for (const Mix mix : {Mix::A, Mix::B, Mix::C}) {
        if (name == mixName(mix))
            return mix;
    }
    return std::nullopt;
}

double
mixUpdateFraction(Mix mix)
{
    switch (mix) {
      case Mix::A:
        return 0.5;
      case Mix::B:
        return 0.05;
      case Mix::C:
        return 0.0;
    }
    return 0.0;
}

const char *
keyDistName(KeyDist dist)
{
    switch (dist) {
      case KeyDist::Uniform:
        return "uniform";
      case KeyDist::Zipfian:
        return "zipfian";
    }
    return "?";
}

std::optional<KeyDist>
parseKeyDist(std::string_view name)
{
    for (const KeyDist dist : {KeyDist::Uniform, KeyDist::Zipfian}) {
        if (name == keyDistName(dist))
            return dist;
    }
    return std::nullopt;
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta), zetan_(zeta(n, theta)),
      alpha_(1.0 / (1.0 - theta)),
      eta_((1.0 - std::pow(2.0 / static_cast<double>(n),
                           1.0 - theta)) /
           (1.0 - zeta(2, theta) / zetan_))
{
    SPECPMT_ASSERT(n >= 2);
    SPECPMT_ASSERT(theta > 0.0 && theta < 1.0);
}

std::uint64_t
ZipfianGenerator::next(Rng &rng) const
{
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(rank, n_ - 1);
}

std::uint64_t
rankToKey(std::uint64_t rank, std::uint64_t keys)
{
    return 1 + mix64(rank + 1) % keys;
}

OpGenerator::OpGenerator(const WorkloadSpec &spec,
                         const ZipfianGenerator *zipf,
                         std::uint64_t seed)
    : spec_(spec), zipf_(zipf),
      updateFraction_(mixUpdateFraction(spec.mix)), rng_(seed)
{
    SPECPMT_ASSERT(spec_.keys >= 1);
    if (spec_.dist == KeyDist::Zipfian)
        SPECPMT_ASSERT(zipf_ != nullptr);
}

WorkloadOp
OpGenerator::next()
{
    // Draw order is load-bearing: rank, update?, [multiPut?, batch
    // payloads] — exactly the sequence the closed-loop driver used
    // inline, so existing seeds keep reproducing the same runs.
    WorkloadOp op;
    const std::uint64_t rank = spec_.dist == KeyDist::Zipfian
        ? zipf_->next(rng_)
        : rng_.below(spec_.keys);
    op.key = rankToKey(rank, spec_.keys);
    const bool update = rng_.uniform() < updateFraction_;
    if (!update) {
        op.kind = WorkloadOp::Kind::Get;
    } else if (spec_.multiPutFraction > 0.0 &&
               rng_.uniform() < spec_.multiPutFraction) {
        op.kind = WorkloadOp::Kind::MultiPut;
        op.batch.reserve(spec_.multiPutBatch);
        op.batch.emplace_back(op.key,
                              KvValue::tagged(op.key, rng_.next()));
        for (unsigned b = 1; b < spec_.multiPutBatch; ++b) {
            const KvKey extra =
                rankToKey(rng_.below(spec_.keys), spec_.keys);
            op.batch.emplace_back(
                extra, KvValue::tagged(extra, rng_.next()));
        }
    } else {
        op.kind = WorkloadOp::Kind::Put;
        op.value = KvValue::tagged(op.key, rng_.next());
    }
    return op;
}

} // namespace specpmt::kv
