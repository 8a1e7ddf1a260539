/**
 * @file
 * Lightweight statistics counters and registries.
 *
 * Every simulation component exposes its counters through a StatGroup so
 * that tests and benches can introspect them by name without knowing the
 * component's concrete type. Components on the per-instruction path (the
 * DISE engine, caches, the branch predictor) count in plain members and
 * write them into their group only when stats() is read, so a group is
 * never updated per event. A StatsRegistry aggregates the groups of a
 * whole simulator instance under hierarchical dotted names ("mem.l1i",
 * "dise", "pipeline"), adds registry-owned scalars (host wall clock,
 * run metadata) and derived ratios (miss rates, CPI), and serializes
 * everything to JSON for machine-readable artifacts.
 */

#ifndef DISE_COMMON_STATS_HPP
#define DISE_COMMON_STATS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/json.hpp"

namespace dise {

/** A named group of scalar counters. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Increment (creating if necessary) the counter @p key. */
    void add(const std::string &key, uint64_t delta = 1);

    /** Set a counter to an absolute value. */
    void set(const std::string &key, uint64_t value);

    /** Read a counter; returns 0 when absent. */
    uint64_t get(const std::string &key) const;

    /** All counters in insertion-independent (sorted) order. */
    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }

    /** Reset every counter to zero. */
    void reset();

    /** Render as "group.key value" lines. */
    std::string dump() const;

  private:
    std::string name_;
    std::map<std::string, uint64_t> counters_;
};

/** Ratio helper that tolerates zero denominators. */
double safeRatio(double num, double den);

/**
 * A view over the StatGroups of one simulator instance.
 *
 * Components register their groups under hierarchical dotted paths; the
 * registry does not own them and reads their counters lazily, so it must
 * be serialized while the components are still alive. Registry-owned
 * scalars carry values that live outside any component (wall-clock time,
 * run outcome), and derived ratios are computed from two counter paths
 * at serialization time.
 */
class StatsRegistry
{
  public:
    /** Register @p group under @p path (e.g. "mem.l1i"); not owned. */
    void add(const std::string &path, const StatGroup *group);

    /** Set a registry-owned scalar (number, string, bool...). */
    void set(const std::string &path, Json value);

    /**
     * Define a derived ratio at @p path computed as the counter (or
     * scalar) at @p numPath over the one at @p denPath; a zero
     * denominator yields 0 (safeRatio).
     */
    void addRatio(const std::string &path, const std::string &numPath,
                  const std::string &denPath);

    /**
     * Read one value by full dotted path — a group counter
     * ("mem.l1i.misses"), a registry scalar, or a derived ratio.
     * Returns 0 for unknown paths (mirrors StatGroup::get).
     */
    double value(const std::string &path) const;

    /**
     * Serialize to a JSON object nested along the dotted paths:
     * {"mem": {"l1i": {"misses": 63, "miss_rate": 0.0027, ...}}}.
     */
    Json toJson() const;

    /** Flat "path value" text lines, sorted by path (debugging). */
    std::string dump() const;

  private:
    /** Numeric lookup without ratio resolution (ratio inputs). */
    bool rawValue(const std::string &path, double &out) const;

    struct Ratio
    {
        std::string path;
        std::string numPath;
        std::string denPath;
    };

    std::map<std::string, const StatGroup *> groups_;
    std::map<std::string, Json> scalars_;
    std::vector<Ratio> ratios_;
};

} // namespace dise

#endif // DISE_COMMON_STATS_HPP
