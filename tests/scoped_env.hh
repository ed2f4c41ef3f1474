/**
 * @file
 * Test helper: override an environment variable for one scope.
 */

#ifndef VIRTSIM_TESTS_SCOPED_ENV_HH
#define VIRTSIM_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <string>

namespace virtsim {

/** Sets (or, with a null value, unsets) `name` and restores the prior
 *  state on exit: the prior value, including an empty one, or unset
 *  if it was unset. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *prev = std::getenv(name);
        if (prev)
            saved = prev;
        had = prev != nullptr;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had)
            ::setenv(name.c_str(), saved.c_str(), 1);
        else
            ::unsetenv(name.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name;
    std::string saved;
    bool had = false;
};

} // namespace virtsim

#endif // VIRTSIM_TESTS_SCOPED_ENV_HH
