/**
 * @file
 * Correctness checks as counted operations: every check attempted is
 * one operation, every check that fails is one failed operation. The
 * benchmark evaluates them outside its timed windows and reports the
 * counts in its result line.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

class Checks
{
  public:
    /** Count one check; record `what` when it failed. */
    bool
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            failures_.push_back(what);
        }
        return ok;
    }

    /** Count one equality check between an expected and a seen value. */
    template <typename T>
    bool
    expectEq(const std::string &what, const T &expected, const T &seen)
    {
        if (expected == seen)
            return expect(true, what);
        std::ostringstream os;
        os << what << ": expected " << expected << ", got " << seen;
        return expect(false, os.str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
