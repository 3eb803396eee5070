#include "guard/sentinel.hh"

#include <cstdio>
#include <sstream>

#include "base/logging.hh"

namespace limit::guard {

namespace {

thread_local ProbeScope *activeProbe = nullptr;

/** Bisection divisor ceiling; window() clamps to ≥ 1 tick anyway. */
constexpr std::uint64_t maxBisectDiv = 1ull << 40;

void
jsonFingerprint(std::ostringstream &os, const Fingerprint &fp)
{
    os << "{\"hash\":\"0x" << std::hex << fp.hash << std::dec
       << "\",\"end_tick\":" << fp.endTick
       << ",\"instructions\":" << fp.instructions
       << ",\"context_switches\":" << fp.contextSwitches
       << ",\"runs\":" << fp.runs << "}";
}

} // namespace

std::string_view
modeName(ExecMode m)
{
    switch (m) {
      case ExecMode::Superblock:
        return "superblock";
      case ExecMode::Batched:
        return "batched";
      case ExecMode::PerOp:
        return "per-op";
    }
    return "?";
}

bool
parseMode(std::string_view text, ExecMode &out)
{
    for (ExecMode m :
         {ExecMode::Superblock, ExecMode::Batched, ExecMode::PerOp}) {
        if (text == modeName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

ExecMode
effectiveMode(ExecMode requested)
{
    const bool batchedOk = sim::batchedExecutionDefault() &&
                           sim::ScopedExecutionClamp::batchedAllowed();
    const bool sbOk = batchedOk && sim::superblockExecutionDefault() &&
                      sim::ScopedExecutionClamp::superblocksAllowed();
    if (!batchedOk)
        return ExecMode::PerOp;
    if (requested == ExecMode::Superblock && !sbOk)
        return ExecMode::Batched;
    return requested;
}

ProbeScope::ProbeScope(std::uint64_t windowDiv)
    : windowDiv_(windowDiv > 0 ? windowDiv : 1), prev_(activeProbe)
{
    activeProbe = this;
}

ProbeScope::~ProbeScope()
{
    activeProbe = prev_;
}

ProbeScope *
ProbeScope::active()
{
    return activeProbe;
}

bool
Sentinel::check(std::size_t job, ExecMode mode, const Probe &probe)
{
    if (!shouldCheck(job, mode))
        return false;
    checks_.fetch_add(1);

    bool diverged = false;
    DivergenceReport report;
    try {
        const std::uint64_t div =
            options_.windowDiv > 0 ? options_.windowDiv : 1;
        const Fingerprint fast = probe(mode, div);
        const Fingerprint ref = probe(ExecMode::PerOp, div);
        if (fast != ref) {
            diverged = true;
            report.job = job;
            report.fast = mode;
            report.windowDiv = div;
            report.divergentDiv = div;
            report.fastFp = fast;
            report.referenceFp = ref;
            report.trail.push_back({div, false});
            // Bisect: doubling the divisor halves the window. The
            // narrowest still-diverging window brackets where the
            // fast path first went wrong; each probe costs half the
            // previous one, so the whole trail is about one more
            // windowDiv-sized probe pair.
            std::uint64_t d = div;
            for (unsigned step = 0; step < options_.maxBisectSteps;
                 ++step) {
                if (d > maxBisectDiv / 2)
                    break;
                d *= 2;
                const Fingerprint f2 = probe(mode, d);
                const Fingerprint r2 = probe(ExecMode::PerOp, d);
                const bool matched = f2 == r2;
                report.trail.push_back({d, matched});
                if (matched) {
                    report.cleanDiv = d;
                    break;
                }
                report.divergentDiv = d;
            }
        }
    } catch (const std::exception &e) {
        probeErrors_.fetch_add(1);
        warn("sentinel: probe for job ", job, " failed (", e.what(),
             "); check voided");
        return false;
    }

    if (!diverged)
        return false;

    // Quarantine: all later jobs run at least one rung slower. The
    // floor only ever descends the ladder (monotone max).
    const auto slower = static_cast<std::uint8_t>(nextSlower(mode));
    std::uint8_t cur = floor_.load();
    while (cur < slower && !floor_.compare_exchange_weak(cur, slower)) {
    }
    report.quarantined = static_cast<ExecMode>(floor_.load());
    divergences_.fetch_add(1);
    warn("sentinel: job ", job, " diverged in ", modeName(mode),
         " mode (fast 0x", std::hex, report.fastFp.hash,
         " vs reference 0x", report.referenceFp.hash, std::dec,
         "); quarantining to ", modeName(report.quarantined));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        reports_.push_back(std::move(report));
    }
    return true;
}

std::vector<DivergenceReport>
Sentinel::reports() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
}

std::string
Sentinel::reportJson() const
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"limitpp-divergence-v1\",\n"
       << "  \"checks\": " << checks_.load() << ",\n"
       << "  \"probe_errors\": " << probeErrors_.load() << ",\n"
       << "  \"window_div\": " << options_.windowDiv << ",\n"
       << "  \"sample_every\": " << options_.sampleEvery << ",\n"
       << "  \"divergences\": [";
    const std::vector<DivergenceReport> reports = this->reports();
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const DivergenceReport &r = reports[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"job\": " << r.job << ", \"fast\": \""
           << modeName(r.fast) << "\", \"quarantined\": \""
           << modeName(r.quarantined)
           << "\", \"window_div\": " << r.windowDiv
           << ", \"divergent_div\": " << r.divergentDiv
           << ", \"clean_div\": " << r.cleanDiv << ",\n     \"fast_fp\": ";
        jsonFingerprint(os, r.fastFp);
        os << ",\n     \"reference_fp\": ";
        jsonFingerprint(os, r.referenceFp);
        os << ",\n     \"trail\": [";
        for (std::size_t j = 0; j < r.trail.size(); ++j) {
            os << (j == 0 ? "" : ", ") << "{\"div\": " << r.trail[j].div
               << ", \"matched\": "
               << (r.trail[j].matched ? "true" : "false") << "}";
        }
        os << "]}";
    }
    os << (reports.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

bool
Sentinel::writeReport() const
{
    if (options_.reportPath.empty() || divergences() == 0)
        return false;
    FILE *f = std::fopen(options_.reportPath.c_str(), "w");
    if (f == nullptr) {
        warn("sentinel: cannot write ", options_.reportPath);
        return false;
    }
    const std::string json = reportJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return true;
}

} // namespace limit::guard
