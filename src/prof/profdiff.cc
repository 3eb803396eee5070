#include "prof/profdiff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "base/json.hh"

namespace limit::prof {

namespace {

using json::Value;

// ---------------------------------------------------------------------
// Flattening
// ---------------------------------------------------------------------

/** Sanitize a label for use inside a dotted key. */
std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
        out += (c == '.' || c == ' ' || c == '|') ? '_' : c;
    return out;
}

/**
 * Label an array element by its identifying fields so keys line up
 * across reports regardless of position shifts.
 */
std::string
elementLabel(const Value &v, std::size_t index)
{
    if (v.kind != Value::Kind::Object)
        return std::to_string(index);
    std::string label;
    for (const char *key : {"name", "axis", "class", "site", "region"}) {
        if (const Value *f = v.find(key);
            f && f->kind == Value::Kind::String) {
            if (!label.empty())
                label += ':';
            label += sanitize(f->text);
        }
    }
    for (const char *key :
         {"addr", "core", "tid", "nr", "waiter", "param",
          "first_slice"}) {
        if (const Value *f = v.find(key);
            f && f->kind == Value::Kind::Number) {
            if (!label.empty())
                label += ':';
            label += key;
            label += '_';
            std::ostringstream num;
            num << f->number;
            label += num.str();
        }
        if (!label.empty())
            break;
    }
    return label.empty() ? std::to_string(index) : label;
}

bool
isHistogram(const Value &v)
{
    return v.kind == Value::Kind::Object &&
           v.find("bucket_bits") != nullptr &&
           v.find("buckets") != nullptr;
}

bool
isTimelineSection(const Value &v)
{
    return v.kind == Value::Kind::Object &&
           v.find("cores") != nullptr && v.find("events") != nullptr &&
           v.find("interval_ticks") != nullptr;
}

void flatten(const Value &v, const std::string &prefix,
             std::map<std::string, double> &out);

/** Collapse a timeline section's slice matrix to per-event totals. */
void
flattenTimeline(const Value &v, const std::string &prefix,
                std::map<std::string, double> &out)
{
    std::vector<std::string> events;
    for (const auto &e : v.find("events")->items)
        events.push_back(sanitize(e.text));
    const Value *cores = v.find("cores");
    std::vector<double> total(events.size(), 0.0);
    for (const auto &core : cores->items) {
        const Value *id = core.find("core");
        const Value *slices = core.find("slices");
        if (!id || !slices)
            continue;
        std::vector<double> coreTotal(events.size(), 0.0);
        for (const auto &row : slices->items) {
            for (std::size_t e = 0;
                 e < row.items.size() && e < events.size(); ++e) {
                coreTotal[e] += row.items[e].number;
            }
        }
        std::ostringstream cid;
        cid << id->number;
        for (std::size_t e = 0; e < events.size(); ++e) {
            total[e] += coreTotal[e];
            out[prefix + ".core_" + cid.str() + ".event." + events[e]] =
                coreTotal[e];
        }
    }
    for (std::size_t e = 0; e < events.size(); ++e)
        out[prefix + ".event." + events[e]] = total[e];
    for (const auto &[k, m] : v.members) {
        if (k == "cores" || k == "events" || k == "name")
            continue;
        flatten(m, prefix + "." + k, out);
    }
}

void
flatten(const Value &v, const std::string &prefix,
        std::map<std::string, double> &out)
{
    switch (v.kind) {
      case Value::Kind::Number:
        out[prefix] = v.number;
        return;
      case Value::Kind::String: {
        // Meta values are strings even when numeric; surface the
        // parseable ones so meta counters diff too.
        const char *start = v.text.c_str();
        char *end = nullptr;
        const double d = std::strtod(start, &end);
        if (end != start && *end == '\0')
            out[prefix] = d;
        return;
      }
      case Value::Kind::Object: {
        if (isHistogram(v)) {
            for (const char *key : {"count", "sum", "min", "max"}) {
                if (const Value *f = v.find(key);
                    f && f->kind == Value::Kind::Number) {
                    out[prefix + "." + key] = f->number;
                }
            }
            return;
        }
        if (isTimelineSection(v)) {
            flattenTimeline(v, prefix, out);
            return;
        }
        for (const auto &[k, m] : v.members) {
            if (k == "schema" || k == "name")
                continue;
            // Run-shape knobs, not results: a 1-seed run diffed
            // against a 4-seed baseline should compare measurements,
            // not fail the gate on the depth setting itself.
            if (prefix == "meta" && (k == "seeds" || k == "jobs"))
                continue;
            flatten(m, prefix.empty() ? k : prefix + "." + k, out);
        }
        return;
      }
      case Value::Kind::Array: {
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            flatten(v.items[i],
                    prefix + "." + elementLabel(v.items[i], i), out);
        }
        return;
      }
      default:
        return;
    }
}

} // namespace

bool
flattenReportJson(std::string_view text,
                  std::map<std::string, double> &out, std::string *error)
{
    Value root;
    if (!json::parse(text, root, error))
        return false;
    if (root.kind != Value::Kind::Object) {
        if (error)
            *error = "report root is not a JSON object";
        return false;
    }
    flatten(root, "", out);
    return true;
}

bool
diffReports(const std::vector<std::string> &base_jsons,
            const std::vector<std::string> &fresh_jsons,
            DiffResult &out, std::string *error)
{
    out = DiffResult{};
    if (base_jsons.empty() || fresh_jsons.empty()) {
        if (error)
            *error = "each side of the diff needs at least one report";
        return false;
    }

    struct Stat
    {
        double sum = 0, lo = 0, hi = 0;
        std::size_t n = 0;

        void
        add(double v)
        {
            if (n == 0) {
                lo = hi = v;
            } else {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            sum += v;
            ++n;
        }

        double mean() const { return n ? sum / static_cast<double>(n) : 0; }
    };

    auto gather = [&](const std::vector<std::string> &docs,
                      std::map<std::string, Stat> &stats) {
        for (std::size_t i = 0; i < docs.size(); ++i) {
            std::map<std::string, double> flat;
            std::string err;
            if (!flattenReportJson(docs[i], flat, &err)) {
                if (error) {
                    *error = "report " + std::to_string(i) +
                             " failed to parse: " + err;
                }
                return false;
            }
            for (const auto &[k, v] : flat)
                stats[k].add(v);
        }
        return true;
    };

    std::map<std::string, Stat> base, fresh;
    if (!gather(base_jsons, base) || !gather(fresh_jsons, fresh))
        return false;

    for (const auto &[k, b] : base) {
        auto it = fresh.find(k);
        if (it == fresh.end()) {
            out.onlyBase.push_back(k);
            continue;
        }
        const Stat &f = it->second;
        if (b.mean() == f.mean() && b.lo == f.lo && b.hi == f.hi) {
            ++out.identical;
            continue;
        }
        DiffEntry e;
        e.key = k;
        e.base = b.mean();
        e.baseLo = b.lo;
        e.baseHi = b.hi;
        e.fresh = f.mean();
        e.freshLo = f.lo;
        e.freshHi = f.hi;
        e.delta = e.fresh - e.base;
        e.deltaPct = e.base != 0
                         ? 100.0 * e.delta / std::abs(e.base)
                         : (e.delta > 0 ? 1e9 : -1e9);
        e.significant = f.lo > b.hi || f.hi < b.lo;
        out.entries.push_back(std::move(e));
    }
    for (const auto &[k, f] : fresh) {
        if (!base.count(k))
            out.onlyFresh.push_back(k);
    }
    std::stable_sort(out.entries.begin(), out.entries.end(),
                     [](const DiffEntry &a, const DiffEntry &b) {
                         return std::abs(a.deltaPct) >
                                std::abs(b.deltaPct);
                     });
    return true;
}

std::size_t
DiffResult::exceeding(double gate_pct) const
{
    std::size_t n = 0;
    for (const auto &e : entries) {
        if (e.significant && std::abs(e.deltaPct) > gate_pct)
            ++n;
    }
    return n;
}

std::string
DiffResult::markdown(double gate_pct) const
{
    std::ostringstream os;
    auto fmt = [](double v) {
        std::ostringstream s;
        if (v == static_cast<double>(static_cast<long long>(v)) &&
            std::abs(v) < 1e15) {
            s << static_cast<long long>(v);
        } else {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", v);
            s << buf;
        }
        return s.str();
    };
    os << "# profdiff\n\n";
    if (clean()) {
        os << "No deltas: " << identical
           << " metrics identical on both sides.\n";
        return os.str();
    }
    os << entries.size() << " differing metrics ("
       << exceeding(gate_pct) << " significant above the "
       << fmt(gate_pct) << "% gate), " << identical
       << " identical.\n\n";
    if (!entries.empty()) {
        os << "| metric | base | new | delta | delta % | base band |"
              " new band | gate |\n"
           << "|---|---|---|---|---|---|---|---|\n";
        for (const auto &e : entries) {
            const bool over =
                e.significant && std::abs(e.deltaPct) > gate_pct;
            os << "| " << e.key << " | " << fmt(e.base) << " | "
               << fmt(e.fresh) << " | " << fmt(e.delta) << " | "
               << fmt(e.deltaPct) << " | [" << fmt(e.baseLo) << ", "
               << fmt(e.baseHi) << "] | [" << fmt(e.freshLo) << ", "
               << fmt(e.freshHi) << "] | "
               << (over ? "**FAIL**"
                        : (e.significant ? "ok" : "within spread"))
               << " |\n";
        }
    }
    auto listKeys = [&](const char *title,
                        const std::vector<std::string> &keys) {
        if (keys.empty())
            return;
        os << "\n" << title << ":\n";
        for (const auto &k : keys)
            os << "- " << k << "\n";
    };
    listKeys("Only in base", onlyBase);
    listKeys("Only in new", onlyFresh);
    return os.str();
}

} // namespace limit::prof
